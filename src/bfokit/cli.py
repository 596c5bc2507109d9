"""Command-line surface.

Subcommands reproduce the analysis artifacts from the configured input
files: per-burst BFO prediction, track-angle sweeps, the cruise trend
line, log-on warm-up drift bounds, the two-hypothesis descent-rate
tables with the downward-acceleration estimate, and tarmac bias
calibration.

Exit codes: 0 success, 1 usage or a closed stdout, 2 parse/config error, a path the
system refuses or a full stdout, 3 numerical-domain error, which includes a result
that would hold NaN or an infinity. Files are written only once the result passes its checks.
``--format json`` switches both results and errors to JSON.
"""

import argparse
import json
import math
import os
import sys
import warnings
from functools import partial
from itertools import chain
from pathlib import Path

from .bfo_model import AircraftState, descent_sensitivity, predict_bfo, calibrate_bias
from .config import load_config, parse_named_time, parse_window
from .descent import MESSAGES, Hypothesis, analyze, final_logon_pair
from .errors import ConfigError, DomainError, ParseError
from .geodesy import GeodeticPosition, GroundKinematics, elevation_angle
from .ingest import _fmt, _write_table, _write_whole, write_curve_csv
from .satellite import satellite_state_at
from .timestamps import format_time_utc
from .track_sweep import TrackSector, bfo_error_vs_track, peak_to_peak, track_offset
from .trend import extrapolate, fit_linear_trend
from .units import FPM_TO_MPS, KNOTS_TO_MPS
from .warmup import extract_drift_bounds


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return

    def walk(node, indent=0):
        pad = "  " * indent
        for key, value in node.items():
            if isinstance(value, dict) and value:
                print(f"{pad}{key}:")
                walk(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")

    walk(payload)


def _check_finite(node, path="") -> None:
    """Refuse a result that holds NaN or an infinity, naming its key path."""
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _check_finite(value, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise DomainError(f"{path} is not finite")


def _fmt_cell(v: float) -> str:
    """A ``--format pretty`` fpm cell: whole thousands get separators."""
    if float(v) == int(v) and abs(v) >= 1000:
        return f'"{int(v):,}"'  # quoted, so the separators stay inside one CSV cell
    return _fmt(v)


def _speed_list(text: str) -> dict[str, float]:
    """``{curve key: speed}`` in list order. A speed whose key an earlier speed has is refused."""
    curves = {}
    for entry in text.split(","):
        try:
            speed = float(entry)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of speeds") from None
        key = f"{speed:g}kts"
        if key in curves:
            raise argparse.ArgumentTypeError(f"{text!r} names the curve {key} more than once")
        curves[key] = speed
    return curves


def _load_log(cfg):
    """The config's burst log, with one stderr warning per rejected row."""
    records = cfg.load_log()
    for lineno, reason in records.rejected:
        print(f"bfokit: warning: {cfg.log_csv}: rejected line {lineno}: {reason}", file=sys.stderr)
    return records.measurements


def _window(cfg, text: str, flag: str) -> tuple[float, float]:
    """The ``START..END`` value of ``flag`` as two UTC seconds, by :func:`parse_window`."""
    start_text, _, end_text = text.partition("..")
    if not end_text:
        raise ConfigError(f"{flag} must look like START..END")
    return parse_window((start_text, end_text), cfg.reference_date, flag)


# ---------------------------------------------------------------------------
# subcommands: each takes the loaded config and the parsed arguments and returns (result, {output path: writer})

def _cmd_predict_bfo(cfg, args) -> tuple[dict, dict]:
    t = parse_named_time(args.time, cfg.reference_date, "--time")
    state = AircraftState(
        position=GeodeticPosition(args.lat, args.lon, args.alt),
        kinematics=GroundKinematics(
            ground_speed_mps=args.speed_kts * KNOTS_TO_MPS,
            track_angle_deg=args.track_deg % 360.0 if math.isfinite(args.track_deg) else args.track_deg,
            vertical_rate_mps=args.vrate_fpm * FPM_TO_MPS,
        ),
        timestamp=t,
    )
    sat = satellite_state_at(t, cfg.load_ephemeris())
    predicted, terms = predict_bfo(state, sat, cfg.load_corrections(), cfg.bias_hz, cfg.channel, cfg.slot)
    return {"time_utc": format_time_utc(t), "predicted_bfo_hz": predicted, **terms._asdict()}, {}


def _measured_bfo_at(cfg, t: float) -> float:
    hits = [m for m in _load_log(cfg) if m.timestamp == t]
    if not hits:
        raise DomainError(f"no logged measurement at {format_time_utc(t)}; pass --measured-bfo")
    return hits[0].bfo_hz


def _cmd_track_sweep(cfg, args) -> tuple[dict, dict]:
    t = parse_named_time(args.time, cfg.reference_date, "--time")
    measured = args.measured_bfo if args.measured_bfo is not None else _measured_bfo_at(cfg, t)
    ephemeris = cfg.load_ephemeris()
    corrections = cfg.load_corrections()

    out: dict = {"time_utc": format_time_utc(t), "measured_bfo_hz": measured, "curves": {}}
    files = {}
    for key, speed in args.speed_kts.items():
        curve = bfo_error_vs_track(
            crossing=cfg.arc_crossing,
            t=t,
            ground_speed_mps=speed * KNOTS_TO_MPS,
            measured_bfo_hz=measured,
            ephemeris=ephemeris,
            corrections=corrections,
            bias_hz=cfg.bias_hz,
            cfg=cfg.channel,
            slot=cfg.slot,
            step_deg=args.step_deg,
        )
        out["curves"][key] = {
            "south_offset_hz": track_offset(curve, TrackSector.SOUTH),
            "north_offset_hz": track_offset(curve, TrackSector.NORTH),
            "peak_to_peak_hz": peak_to_peak(curve),
        }
        if args.out_dir:
            path = Path(args.out_dir) / f"track_sweep_{key}.csv"
            provenance = [f"# bfo error vs track angle at {format_time_utc(t)}, {key}"]
            files[path] = partial(write_curve_csv, curve=curve, provenance=provenance)
            out["curves"][key]["csv"] = str(path)
    return out, files


def _cmd_trend(cfg, args) -> tuple[dict, dict]:
    window = _window(cfg, args.window, "--window") if args.window else cfg.fit_window
    model = fit_linear_trend(_load_log(cfg), window)
    out = {
        "slope_hz_per_hour": model.slope_hz_per_hour,
        "intercept_hz": model.intercept_hz,
        "window_utc": [format_time_utc(window[0]), format_time_utc(window[1])],
        "residual_rms_hz": model.residual_rms_hz,
        "extrapolations": {},
    }
    for text in args.extrapolate or []:
        t = parse_named_time(text, cfg.reference_date, "--extrapolate")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out["extrapolations"][format_time_utc(t)] = extrapolate(model, t)
        for record in caught:
            print(f"bfokit: warning: {record.message}", file=sys.stderr)
    return out, {}


def _cmd_logon_drift(cfg, args) -> tuple[dict, dict]:
    return extract_drift_bounds(cfg.load_logon_sequences()).as_dict(), {}


def _cmd_descent_bounds(cfg, args) -> tuple[dict, dict]:
    pair = final_logon_pair(_load_log(cfg))
    if args.exact_sensitivity:
        sat = satellite_state_at(pair[0].timestamp, cfg.load_ephemeris())
        sensitivity = descent_sensitivity(elevation_angle(cfg.arc_crossing, sat.position), cfg.channel)
    else:
        sensitivity = cfg.sensitivity_hz_per_100fpm
    wanted = {"1": [Hypothesis.POWER_OUTAGE], "2": [Hypothesis.OTHER_CAUSE]}.get(args.hypothesis, list(Hypothesis))
    drift = extract_drift_bounds(cfg.load_logon_sequences()) if Hypothesis.POWER_OUTAGE in wanted else None
    result = analyze(pair, drift, cfg.noise, cfg.expected_south_hz, cfg.expected_north_hz, sensitivity, wanted)

    times = [format_time_utc(t) for t in result.times]
    cell = _fmt_cell if args.format == "pretty" else _fmt
    tables: dict = {}  # file name -> (header, rows of formatted cells)
    hypotheses: dict = {}
    for hyp, bounds in result.hypotheses.items():
        ranges = {"noise_extended_hz": bounds.noise_extended}
        header = ["noise_low_hz", "noise_high_hz"]
        if bounds.drift_removed is not None:
            ranges = {"drift_removed_hz": bounds.drift_removed, **ranges}
            header = ["drift_removed_low_hz", "drift_removed_high_hz",
                      "noise_extended_low_hz", "noise_extended_high_hz"]
        adjusted = {
            message: {"recorded_bfo_hz": rec, **{key: [r[i].lower_hz, r[i].upper_hz] for key, r in ranges.items()}}
            for i, (message, rec) in enumerate(zip(MESSAGES, result.recorded))
        }
        rates = {
            t: {"south": list(r.south_fpm), "north": list(r.north_fpm)} for t, r in zip(times, bounds.table.rates)
        }
        hypotheses[hyp.value] = {"adjusted_bfo": adjusted, "descent_rates_fpm": rates}
        tables[f"adjusted_bfo_{hyp.value}.csv"] = (
            ["time_utc", "recorded_bfo_hz", *header],
            [[t, *map(_fmt, chain([a["recorded_bfo_hz"]], *(a[key] for key in ranges)))]
             for t, a in zip(times, adjusted.values())],
        )
        tables[f"descent_rates_{hyp.value}.csv"] = (
            ["time_utc", "min_south_fpm", "min_north_fpm", "max_south_fpm", "max_north_fpm"],
            [[t, *map(cell, chain(*zip(r["south"], r["north"])))] for t, r in rates.items()],
        )

    out: dict = {
        "sensitivity_hz_per_100fpm": sensitivity,
        "expected_bfo_hz": {"south": cfg.expected_south_hz, "north": cfg.expected_north_hz},
        "recorded": {m: {"time_utc": t, "bfo_hz": rec} for m, t, rec in zip(MESSAGES, times, result.recorded)},
        "hypotheses": hypotheses,
    }
    if drift is not None:
        out["drift_bounds"] = drift.as_dict()
    if result.combined is not None:
        out["combined_outer_fpm"] = {t: list(r.outer_fpm) for t, r in zip(times, result.combined.rates)}
        out["acceleration"] = result.acceleration._asdict()
        tables["descent_rates_combined.csv"] = (
            ["time_utc", "min_fpm", "max_fpm"],
            [[t, *map(cell, outer)] for t, outer in out["combined_outer_fpm"].items()],
        )
    files = {Path(args.out_dir, name): partial(_write_table, provenance=(), schema=dict.fromkeys(head, str), rows=rows)
             for name, (head, rows) in tables.items()} if args.out_dir else {}
    if args.out_dir and "acceleration" in out:
        text = json.dumps(out["acceleration"], indent=2, sort_keys=True) + "\n"
        files[Path(args.out_dir, "acceleration.json")] = partial(_write_whole, chunks=[text])
    return out, files


def _cmd_calibrate_bias(cfg, args) -> tuple[dict, dict]:
    if cfg.tarmac is None:
        raise ConfigError("config has no tarmac position")
    t0, t1 = _window(cfg, args.tarmac_window, "--tarmac-window")
    static = GroundKinematics(0.0, 0.0, 0.0)
    pairs = [
        (m, AircraftState(cfg.tarmac, static, m.timestamp))
        for m in _load_log(cfg)
        if t0 <= m.timestamp <= t1
    ]
    bias = calibrate_bias(pairs, cfg.load_ephemeris(), cfg.load_corrections(), cfg.channel, cfg.slot)
    return {"bias_hz": bias, "measurements_used": len(pairs)}, {}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bfokit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="analysis config JSON (default: $BFOKIT_CONFIG)")
    common.add_argument("--format", choices=["text", "json", "pretty"], default="text",
                        help="json: results and errors as JSON; pretty: the output of text, but descent-bounds"
                        ' --out-dir writes fpm cells of 1,000 or more with separators, quoted as "2,900"')

    p = sub.add_parser("predict-bfo", parents=[common], help="predict one burst's BFO and its term decomposition")
    p.set_defaults(run=_cmd_predict_bfo)
    p.add_argument("--time", required=True, help="UTC timestamp (full ISO or HH:MM[:SS]Z)")
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--lon", type=float, required=True)
    p.add_argument("--alt", type=float, default=0.0, help="meters above the ellipsoid")
    p.add_argument("--speed-kts", type=float, default=0.0)
    p.add_argument("--track-deg", type=float, default=0.0)
    p.add_argument("--vrate-fpm", type=float, default=0.0)

    p = sub.add_parser("track-sweep", parents=[common], help="BFO error vs assumed track angle at the arc crossing")
    p.set_defaults(run=_cmd_track_sweep)
    p.add_argument("--time", default="00:11Z")
    p.add_argument("--speed-kts", type=_speed_list, default="450", help="comma-separated ground speeds")
    p.add_argument("--step-deg", type=float, default=1.0)
    p.add_argument("--measured-bfo", type=float, default=None)
    p.add_argument("--out-dir", default=None, help="write one curve CSV per speed")

    p = sub.add_parser("trend", parents=[common], help="fit the cruise BFO trend line and extrapolate")
    p.set_defaults(run=_cmd_trend)
    p.add_argument("--window", default=None, help="START..END (default: config fit_window)")
    p.add_argument("--extrapolate", action="append", help="timestamp to evaluate (repeatable)")

    p = sub.add_parser("logon-drift", parents=[common], help="warm-up drift bounds from the log-on sequences")
    p.set_defaults(run=_cmd_logon_drift)

    p = sub.add_parser("descent-bounds", parents=[common], help="two-hypothesis descent-rate bounds and acceleration")
    p.set_defaults(run=_cmd_descent_bounds)
    p.add_argument("--hypothesis", choices=["1", "2", "both"], default="both")
    p.add_argument("--out-dir", default=None, help="write the result tables as CSV/JSON")
    p.add_argument("--exact-sensitivity", action="store_true",
                   help="use the unrounded vertical-Doppler sensitivity at the arc crossing")

    p = sub.add_parser("calibrate-bias", parents=[common], help="oscillator bias from tarmac measurements")
    p.set_defaults(run=_cmd_calibrate_bias)
    p.add_argument("--tarmac-window", required=True, help="START..END")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, files = args.run(load_config(args.config), args)
        _check_finite(payload)
        for path, write in files.items():  # only a result that passed its checks is written
            path.parent.mkdir(parents=True, exist_ok=True)
            write(path)
    except (ParseError, ConfigError, OSError) as e:  # OSError: a path the system refuses to read or write
        _fail(e, args.format, kind="parse/config")
        return 2
    except DomainError as e:
        _fail(e, args.format, kind="domain")
        return 3
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except OSError as e:  # a closed stdout (exit 1, silent) or a full one (exit 2): no exit flush may raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(e, BrokenPipeError):
            return 1
        _fail(f"stdout: {e}", args.format, kind="parse/config")
        return 2
    return 0


def _fail(message, fmt: str, kind: str) -> None:
    if fmt == "json":
        print(json.dumps({"error": {"kind": kind, "message": str(message)}}), file=sys.stderr)
    else:
        print(f"bfokit: {kind} error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
