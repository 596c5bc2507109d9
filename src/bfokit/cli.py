"""Command-line surface.

Subcommands reproduce the analysis artifacts from the configured input
files: per-burst BFO prediction, track-angle sweeps, the cruise trend
line, log-on warm-up drift bounds, the two-hypothesis descent-rate
tables with the downward-acceleration estimate, and tarmac bias
calibration.

Exit codes: 0 success, 1 usage, 2 parse/config error, 3 numerical-domain
error. ``--format json`` switches both results and errors to JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bfo_model import AircraftState, descent_sensitivity, predict_bfo, calibrate_bias
from .config import load_config
from .descent import (
    FPM_TO_MPS,
    DescentBoundsTable,
    Hypothesis,
    adjusted_bfo_range,
    combine_hypotheses,
    descent_rate_bounds,
    drift_removed_range,
    estimate_downward_acceleration,
)
from .errors import BfokitError, ConfigError, DomainError, ParseError
from .geodesy import GeodeticPosition, GroundKinematics, elevation_angle
from .ingest import _fmt, _write_csv, format_time_utc, write_curve_csv
from .satellite import satellite_state_at
from .stats import MessageType
from .track_sweep import KNOTS_TO_MPS, TrackSector, bfo_error_vs_track, peak_to_peak, track_offset
from .trend import extrapolate, fit_linear_trend
from .warmup import extract_drift_bounds

# Longest plausible gap between a log-on request and its acknowledgment;
# the historical log-on sequences show 6-8 s.
MAX_LOGON_ACK_GAP_S = 60.0


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


def _fmt_cell(v: float, pretty: bool) -> str:
    if pretty and float(v) == int(v) and abs(v) >= 1000:
        return f"{int(v):,}"
    return _fmt(v)


def _load_log(cfg):
    """The config's burst log, with one stderr warning per rejected row."""
    records = cfg.load_log()
    for lineno, reason in records.rejected:
        print(f"bfokit: warning: {cfg.log_csv}: rejected line {lineno}: {reason}", file=sys.stderr)
    return records.measurements


# ---------------------------------------------------------------------------
# subcommands

def _cmd_predict_bfo(args) -> dict:
    cfg = load_config(args.config)
    t = cfg.parse_time(args.time)
    state = AircraftState(
        position=GeodeticPosition(args.lat, args.lon, args.alt),
        kinematics=GroundKinematics(
            ground_speed_mps=args.speed_kts * KNOTS_TO_MPS,
            track_angle_deg=args.track_deg % 360.0,
            vertical_rate_mps=args.vrate_fpm * FPM_TO_MPS,
        ),
        timestamp=t,
    )
    sat = satellite_state_at(t, cfg.load_ephemeris())
    predicted, terms = predict_bfo(
        state, sat, cfg.load_corrections(), cfg.bias_hz, cfg.channel, cfg.slot
    )
    return {"time_utc": format_time_utc(t), "predicted_bfo_hz": predicted, **terms.as_dict()}


def _measured_bfo_at(cfg, t: float) -> float:
    hits = [m for m in _load_log(cfg) if m.timestamp == t]
    if not hits:
        raise DomainError(
            f"no logged measurement at {format_time_utc(t)}; pass --measured-bfo"
        )
    return hits[0].bfo_hz


def _cmd_track_sweep(args) -> dict:
    cfg = load_config(args.config)
    t = cfg.parse_time(args.time)
    measured = args.measured_bfo if args.measured_bfo is not None else _measured_bfo_at(cfg, t)
    ephemeris = cfg.load_ephemeris()
    corrections = cfg.load_corrections()
    speeds = [float(s) for s in args.speed_kts.split(",")]

    out: dict = {"time_utc": format_time_utc(t), "measured_bfo_hz": measured, "curves": {}}
    for speed in speeds:
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
        key = f"{speed:g}kts"
        out["curves"][key] = {
            "south_offset_hz": track_offset(curve, TrackSector.SOUTH),
            "north_offset_hz": track_offset(curve, TrackSector.NORTH),
            "peak_to_peak_hz": peak_to_peak(curve),
        }
        if args.out_dir:
            path = Path(args.out_dir) / f"track_sweep_{key}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_curve_csv(
                path,
                curve,
                provenance=[f"# bfo error vs track angle at {format_time_utc(t)}, {key}"],
            )
            out["curves"][key]["csv"] = str(path)
    return out


def _cmd_trend(args) -> dict:
    cfg = load_config(args.config)
    if args.window:
        start_text, _, end_text = args.window.partition("..")
        if not end_text:
            raise ConfigError("--window must look like START..END")
        window = (cfg.parse_time(start_text), cfg.parse_time(end_text))
    else:
        window = cfg.fit_window
    model = fit_linear_trend(_load_log(cfg), window)
    out = {
        "slope_hz_per_hour": model.slope_hz_per_hour,
        "intercept_hz": model.intercept_hz,
        "window_utc": [format_time_utc(window[0]), format_time_utc(window[1])],
        "residual_rms_hz": model.residual_rms_hz,
        "extrapolations": {},
    }
    for text in args.extrapolate or []:
        t = cfg.parse_time(text)
        out["extrapolations"][format_time_utc(t)] = extrapolate(model, t)
    return out


def _cmd_logon_drift(args) -> dict:
    cfg = load_config(args.config)
    drift = extract_drift_bounds(cfg.load_logon_sequences())
    return drift.as_dict()


def _final_logon_pair(ms):
    """The last log-on acknowledgment and the last request before it."""
    acks = [m for m in ms if m.message_type is MessageType.LOGON_ACK]
    if not acks:
        raise DomainError("log holds no log-on acknowledgment")
    ack = acks[-1]
    requests = [
        m for m in ms if m.message_type is MessageType.LOGON_REQUEST and m.timestamp < ack.timestamp
    ]
    if not requests:
        raise DomainError("log holds no log-on request before its last acknowledgment")
    request = requests[-1]
    if ack.timestamp - request.timestamp > MAX_LOGON_ACK_GAP_S:
        raise DomainError(
            f"final log-on acknowledgment at {format_time_utc(ack.timestamp)} comes more than"
            f" {MAX_LOGON_ACK_GAP_S:g} s after the last request, at {format_time_utc(request.timestamp)}"
        )
    return request, ack


def _rates_rows(times, table: DescentBoundsTable, pretty: bool):
    rows = []
    for t, r in zip(times, table.rates):
        rows.append(
            [
                format_time_utc(t),
                _fmt_cell(r.south_fpm[0], pretty),
                _fmt_cell(r.north_fpm[0], pretty),
                _fmt_cell(r.south_fpm[1], pretty),
                _fmt_cell(r.north_fpm[1], pretty),
            ]
        )
    return rows


def _cmd_descent_bounds(args) -> dict:
    cfg = load_config(args.config)
    logon, ack = _final_logon_pair(_load_log(cfg))
    times = (logon.timestamp, ack.timestamp)
    recorded = (logon.bfo_hz, ack.bfo_hz)

    if args.exact_sensitivity:
        sat = satellite_state_at(times[0], cfg.load_ephemeris())
        elev = elevation_angle(cfg.arc_crossing, sat.position)
        sensitivity = descent_sensitivity(elev, cfg.channel)
    else:
        sensitivity = cfg.sensitivity_hz_per_100fpm

    wanted = {"1": [Hypothesis.POWER_OUTAGE], "2": [Hypothesis.OTHER_CAUSE]}.get(
        args.hypothesis, [Hypothesis.POWER_OUTAGE, Hypothesis.OTHER_CAUSE]
    )
    drift = extract_drift_bounds(cfg.load_logon_sequences()) if Hypothesis.POWER_OUTAGE in wanted else None

    pretty = args.format == "pretty"
    out: dict = {
        "sensitivity_hz_per_100fpm": sensitivity,
        "expected_bfo_hz": {"south": cfg.expected_south_hz, "north": cfg.expected_north_hz},
        "recorded": {
            "logon": {"time_utc": format_time_utc(times[0]), "bfo_hz": recorded[0]},
            "ack": {"time_utc": format_time_utc(times[1]), "bfo_hz": recorded[1]},
        },
        "hypotheses": {},
    }
    if drift is not None:
        out["drift_bounds"] = drift.as_dict()

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    tables: dict[Hypothesis, DescentBoundsTable] = {}
    slug = {Hypothesis.POWER_OUTAGE: "power_outage", Hypothesis.OTHER_CAUSE: "other_cause"}

    for hyp in wanted:
        adjusted_rows = []
        rates = []
        adjusted_json = {}
        for message, t, rec in zip(("logon", "ack"), times, recorded):
            adj = adjusted_bfo_range(rec, message, hyp, drift, cfg.noise)
            rates.append(descent_rate_bounds(cfg.expected_south_hz, cfg.expected_north_hz, adj, sensitivity))
            row = [format_time_utc(t), _fmt(rec)]
            entry = {"recorded_bfo_hz": rec}
            if hyp is Hypothesis.POWER_OUTAGE:
                rem = drift_removed_range(rec, message, drift)
                row += [_fmt(rem.lower_hz), _fmt(rem.upper_hz)]
                entry["drift_removed_hz"] = [rem.lower_hz, rem.upper_hz]
            row += [_fmt(adj.lower_hz), _fmt(adj.upper_hz)]
            entry["noise_extended_hz"] = [adj.lower_hz, adj.upper_hz]
            adjusted_rows.append(row)
            adjusted_json[message] = entry

        table = DescentBoundsTable(times, tuple(rates), label=slug[hyp])
        tables[hyp] = table
        out["hypotheses"][slug[hyp]] = {
            "adjusted_bfo": adjusted_json,
            "descent_rates_fpm": {
                format_time_utc(t): {"south": list(r.south_fpm), "north": list(r.north_fpm)}
                for t, r in zip(times, table.rates)
            },
        }
        if out_dir:
            if hyp is Hypothesis.POWER_OUTAGE:
                adj_header = [
                    "time_utc", "recorded_bfo_hz",
                    "drift_removed_low_hz", "drift_removed_high_hz",
                    "noise_extended_low_hz", "noise_extended_high_hz",
                ]
            else:
                adj_header = ["time_utc", "recorded_bfo_hz", "noise_low_hz", "noise_high_hz"]
            _write_csv(out_dir / f"adjusted_bfo_{slug[hyp]}.csv", (), adj_header, adjusted_rows)
            _write_csv(
                out_dir / f"descent_rates_{slug[hyp]}.csv", (),
                ["time_utc", "min_south_fpm", "min_north_fpm", "max_south_fpm", "max_north_fpm"],
                _rates_rows(times, table, pretty),
            )

    if len(wanted) == 2:
        combined = combine_hypotheses(tables[Hypothesis.POWER_OUTAGE], tables[Hypothesis.OTHER_CAUSE])
        accel = estimate_downward_acceleration(combined, times[0], times[1])
        out["combined_outer_fpm"] = {
            format_time_utc(t): list(r.outer_fpm) for t, r in zip(times, combined.rates)
        }
        out["acceleration"] = {
            "fpm_per_s": accel.fpm_per_s,
            "mps2": accel.mps2,
            "g": accel.g,
        }
        if out_dir:
            _write_csv(
                out_dir / "descent_rates_combined.csv", (),
                ["time_utc", "min_fpm", "max_fpm"],
                [
                    [format_time_utc(t), _fmt_cell(r.outer_fpm[0], pretty), _fmt_cell(r.outer_fpm[1], pretty)]
                    for t, r in zip(times, combined.rates)
                ],
            )
            (out_dir / "acceleration.json").write_text(
                json.dumps(out["acceleration"], indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    return out


def _cmd_calibrate_bias(args) -> dict:
    cfg = load_config(args.config)
    if cfg.tarmac is None:
        raise ConfigError("config has no tarmac position")
    start_text, _, end_text = args.tarmac_window.partition("..")
    if not end_text:
        raise ConfigError("--tarmac-window must look like START..END")
    t0, t1 = cfg.parse_time(start_text), cfg.parse_time(end_text)
    static = GroundKinematics(0.0, 0.0, 0.0)
    pairs = [
        (m, AircraftState(cfg.tarmac, static, m.timestamp))
        for m in _load_log(cfg)
        if t0 <= m.timestamp <= t1
    ]
    bias = calibrate_bias(pairs, cfg.load_ephemeris(), cfg.load_corrections(), cfg.channel, cfg.slot)
    return {"bias_hz": bias, "measurements_used": len(pairs)}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bfokit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="analysis config JSON (default: $BFOKIT_CONFIG)")
        p.add_argument("--format", choices=["text", "json", "pretty"], default="text")

    p = sub.add_parser("predict-bfo", help="predict one burst's BFO and its term decomposition")
    common(p)
    p.add_argument("--time", required=True, help="UTC timestamp (full ISO or HH:MM[:SS]Z)")
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--lon", type=float, required=True)
    p.add_argument("--alt", type=float, default=0.0, help="meters above the ellipsoid")
    p.add_argument("--speed-kts", type=float, default=0.0)
    p.add_argument("--track-deg", type=float, default=0.0)
    p.add_argument("--vrate-fpm", type=float, default=0.0)
    p.set_defaults(run=_cmd_predict_bfo)

    p = sub.add_parser("track-sweep", help="BFO error vs assumed track angle at the arc crossing")
    common(p)
    p.add_argument("--time", default="00:11Z")
    p.add_argument("--speed-kts", default="450", help="comma-separated ground speeds")
    p.add_argument("--step-deg", type=float, default=1.0)
    p.add_argument("--measured-bfo", type=float, default=None)
    p.add_argument("--out-dir", default=None, help="write one curve CSV per speed")
    p.set_defaults(run=_cmd_track_sweep)

    p = sub.add_parser("trend", help="fit the cruise BFO trend line and extrapolate")
    common(p)
    p.add_argument("--window", default=None, help="START..END (default: config fit_window)")
    p.add_argument("--extrapolate", action="append", help="timestamp to evaluate (repeatable)")
    p.set_defaults(run=_cmd_trend)

    p = sub.add_parser("logon-drift", help="warm-up drift bounds from the log-on sequences")
    common(p)
    p.set_defaults(run=_cmd_logon_drift)

    p = sub.add_parser("descent-bounds", help="two-hypothesis descent-rate bounds and acceleration")
    common(p)
    p.add_argument("--hypothesis", choices=["1", "2", "both"], default="both")
    p.add_argument("--out-dir", default=None, help="write the result tables as CSV/JSON")
    p.add_argument(
        "--exact-sensitivity",
        action="store_true",
        help="use the unrounded vertical-Doppler sensitivity at the arc crossing",
    )
    p.set_defaults(run=_cmd_descent_bounds)

    p = sub.add_parser("calibrate-bias", help="oscillator bias from tarmac measurements")
    common(p)
    p.add_argument("--tarmac-window", required=True, help="START..END")
    p.set_defaults(run=_cmd_calibrate_bias)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        payload = args.run(args)
    except (ParseError, ConfigError) as e:
        _fail(e, fmt, kind="parse/config")
        return 2
    except DomainError as e:
        _fail(e, fmt, kind="domain")
        return 3
    except BfokitError as e:
        _fail(e, fmt, kind="error")
        return 3
    _emit(payload, fmt)
    return 0


def _fail(exc: Exception, fmt: str, kind: str) -> None:
    if fmt == "json":
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)
    else:
        print(f"bfokit: {kind} error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
