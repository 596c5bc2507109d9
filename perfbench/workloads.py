"""The three bfokit benchmark workloads, their correctness checks and the
per-layer probes.

All workloads are closed loops with one client: a round of requests runs,
each request waits for the previous one, and each output is checked
before the next request starts (checks are outside the timed walls).

* ``cold_cli`` -- one round is the six CLI subcommands on the bundled
  config, each in a fresh interpreter, in seeded order with seeded
  arguments. This is how an analyst uses the tool; interpreter start,
  import, config and small-file ingest dominate it.
* ``dense_sweep`` -- one round is one in-process ``cli.main(["track-sweep",
  ...])`` at 0.01 deg, at a seeded crossing, time and speed; rounds rotate
  over three of each. One speed per call keeps a round near 2 s, so a run
  holds enough rounds for a steady fastest decile.
  All track angles share one ``t``, so the forward model, geodesy and the
  curve CSV writer dominate; ``satellite_state_at`` runs once per speed.
* ``reference_flights`` -- one round is the library error-statistics
  pipeline over a seeded multi-day, multi-flight burst log. Every burst has
  its own ``t``, so per-query table lookups and ``flag_outliers`` (fed by
  injected non-zero-BER bursts) weigh in, and the log is the heavy read
  path of ingest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
from cli_child import peak_rss_kb
from bfokit import bfo_model, cli, config, descent, geodesy, ingest, satellite, stats, track_sweep, trend, warmup
from bfokit.bfo_model import AircraftState
from bfokit.geodesy import GeodeticPosition, GroundKinematics

HERE = Path(__file__).resolve().parent
TOL_HZ = 1e-9
EXPECTED_DRIFT = {
    "logon_minus_settled_hz": [17.0, 136.0],
    "ack_minus_settled_hz": [17.0, 130.0],
    "ack_below_logon_hz": [0.0, 6.0],
}
GOLDEN_DIR = Path("tests") / "golden"
GOLDEN_FILES = ["adjusted_bfo_power_outage.csv", "adjusted_bfo_other_cause.csv",
                "descent_rates_power_outage.csv", "descent_rates_other_cause.csv",
                "descent_rates_combined.csv", "acceleration.json"]
SUBCOMMANDS = ["predict_bfo", "track_sweep", "trend", "logon_drift", "descent_bounds", "calibrate_bias"]
SIZES = {
    # dense_sweep: crossings, speeds per call, step; reference_flights: days, flights, bursts
    "full": {"dense": (3, 1, 0.01), "reference": (4.0, 20, 150)},
    "tiny": {"dense": (1, 1, 0.5), "reference": (1.0, 3, 20)},
}


@dataclass
class Outcome:
    """One request: timed wall, work items, failures, (if traced) spans,
    the peak RSS of the process that served it, in KiB, and (if untraced)
    the time of the reference work run right after it.

    ``check`` verifies the request's output; the runner calls it after
    tracing is switched off, so checks add no spans.
    """

    kind: str
    wall_s: float
    items: int
    failures: list = field(default_factory=list)
    spans: dict | None = None
    check: object = None
    rss_kb: int = 0
    reference_s: float = float("nan")


@dataclass
class Context:
    root: Path
    workdir: Path
    seed: int
    size: str


def ols(times, values, t0):
    """Closed-form least-squares line (slope per hour, value at t0)."""
    hours = [(t - t0) / 3600.0 for t in times]
    mx, my = statistics.fmean(hours), statistics.fmean(values)
    sxx = sum((h - mx) ** 2 for h in hours)
    slope = sum((h - mx) * (v - my) for h, v in zip(hours, values)) / sxx
    return slope, my - slope * mx


def close(a, b, rel=False) -> bool:
    return abs(a - b) <= (TOL_HZ * max(1.0, abs(b)) if rel else TOL_HZ)


def oracle_error(crossing, t, speed_kts, track, measured, ephemeris, corrections, cfg) -> float:
    """Scalar forward-model BFO error for one level-flight track angle."""
    state = AircraftState(crossing, GroundKinematics(speed_kts * track_sweep.KNOTS_TO_MPS, track % 360.0, 0.0), t)
    sat = satellite.satellite_state_at(t, ephemeris)
    predicted, _ = bfo_model.predict_bfo(state, sat, corrections, cfg.bias_hz, cfg.channel, cfg.slot)
    return predicted - measured


def check_curve(path: Path, step: float, expect, failures: list) -> list:
    """Parse a curve CSV, check its angle grid and every 100th point
    against ``expect(track) -> error``; return the parsed curve."""
    rows = path.read_text(encoding="utf-8").splitlines()
    body = [r for r in rows if r and not r.startswith("#")][1:]
    curve = [tuple(map(float, r.split(","))) for r in body]
    n = int(round(360.0 / step))
    if len(curve) != n + 1:
        failures.append(f"{path.name}: {len(curve)} rows, expected {n + 1}")
        return curve
    for k in range(0, n + 1, 100):
        track, err = curve[k]
        if abs(track - k * step) > 1e-9 or not close(err, expect(k * step)):
            failures.append(f"{path.name}: point {k} ({track}, {err}) disagrees with the scalar oracle")
            break
    return curve


def sector_offsets(curve):
    south = min(e for a, e in curve if 90.0 <= a % 360.0 <= 270.0)
    north = max(e for a, e in curve if a % 360.0 <= 90.0 or a % 360.0 >= 270.0)
    errors = [e for _, e in curve]
    return south, north, max(errors) - min(errors)


def check_sweep_payload(curves_json: dict, key: str, curve, failures: list) -> None:
    got = curves_json.get(key, {})
    want = sector_offsets(curve)
    for name, value in zip(("south_offset_hz", "north_offset_hz", "peak_to_peak_hz"), want):
        if not close(got.get(name, float("nan")), value):
            failures.append(f"{key}: {name} {got.get(name)} != {value} from the curve")


def python_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli_cold(root: Path, workdir: Path, argv, traced: bool):
    """One CLI call in a fresh interpreter (see cli_child.py); returns
    (wall_s, completed, spans, peak RSS of that interpreter in KiB)."""
    report = workdir / "cli_report.json"
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(report), "1" if traced else "0", *argv]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=python_env(root), timeout=120)
    wall = perf_counter() - start
    spans, rss_kb = None, 0
    if report.exists():
        got = json.loads(report.read_text(encoding="utf-8"))
        report.unlink()
        spans, rss_kb = got["spans"], got["rss_kb"]
    return wall, proc, spans, rss_kb


# ---------------------------------------------------------------------------

class ColdCli:
    name = "cold_cli"

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        self.inp = gen.cold_inputs(self.ctx.workdir, random.Random(self.ctx.seed))
        self.cfg = config.load_config(self.inp.config)

    def prepare_checks(self) -> None:
        cfg, inp = self.cfg, self.inp
        self.eph, self.corr = cfg.load_ephemeris(), cfg.load_corrections()
        log = cfg.load_log().measurements
        sat = satellite.satellite_state_at(inp.predict_state.timestamp, self.eph)
        self.want_predict, _ = bfo_model.predict_bfo(
            inp.predict_state, sat, self.corr, cfg.bias_hz, cfg.channel, cfg.slot)
        fit = [m for m in log if cfg.fit_window[0] <= m.timestamp <= cfg.fit_window[1]]
        slope, intercept = ols([m.timestamp for m in fit], [m.bfo_hz for m in fit], cfg.fit_window[0])
        self.want_trend = slope * (inp.extrapolate_time - cfg.fit_window[0]) / 3600.0 + intercept
        static = GroundKinematics(0.0, 0.0, 0.0)
        lo, hi = inp.tarmac_window
        residuals = []
        for m in log:
            if lo <= m.timestamp <= hi:
                state = AircraftState(cfg.tarmac, static, m.timestamp)
                sat = satellite.satellite_state_at(m.timestamp, self.eph)
                residuals.append(m.bfo_hz - bfo_model.predict_bfo(state, sat, self.corr, 0.0, cfg.channel, cfg.slot)[0])
        self.want_bias = statistics.fmean(residuals)
        self.want_bias_used = len(residuals)
        self.golden = {name: (self.ctx.root / GOLDEN_DIR / name).read_bytes() for name in GOLDEN_FILES}

    def round(self):
        return [(kind, lambda traced, argv=argv, kind=kind: self.request(kind, argv, traced))
                for kind, argv in self.inp.requests]

    def request(self, kind: str, argv, traced: bool) -> Outcome:
        wall, proc, spans, rss_kb = run_cli_cold(self.ctx.root, self.ctx.workdir, argv, traced)
        out = Outcome(kind, wall, 1, spans=spans, rss_kb=rss_kb)
        if proc.returncode != 0:
            out.failures.append(f"{kind}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return out

        def check(failures):
            try:
                getattr(self, f"_check_{kind}")(json.loads(proc.stdout), failures)
            except (ValueError, KeyError, TypeError, OSError) as e:
                failures.append(f"{kind}: unreadable output: {e!r}")

        out.check = check
        return out

    def _check_predict_bfo(self, payload, failures):
        if not close(payload["predicted_bfo_hz"], self.want_predict):
            failures.append(f"predict-bfo {payload['predicted_bfo_hz']} != oracle {self.want_predict}")

    def _check_track_sweep(self, payload, failures):
        inp, cfg = self.inp, self.cfg
        for speed in inp.sweep_speeds:
            key = f"{float(speed):g}kts"
            curve = check_curve(
                inp.out_dir / "sweep" / f"track_sweep_{key}.csv", 1.0,
                lambda track, speed=speed: oracle_error(cfg.arc_crossing, inp.sweep_time, speed, track,
                                                        inp.sweep_measured, self.eph, self.corr, cfg),
                failures)
            check_sweep_payload(payload["curves"], key, curve, failures)

    def _check_trend(self, payload, failures):
        (value,) = payload["extrapolations"].values()
        if not close(value, self.want_trend, rel=True):
            failures.append(f"trend extrapolation {value} != closed-form OLS {self.want_trend}")

    def _check_logon_drift(self, payload, failures):
        if payload != EXPECTED_DRIFT:
            failures.append(f"logon-drift {payload} != {EXPECTED_DRIFT}")

    def _check_descent_bounds(self, payload, failures):
        for name, want in self.golden.items():
            if (self.inp.out_dir / "descent" / name).read_bytes() != want:
                failures.append(f"descent-bounds {name} differs from the golden table")

    def _check_calibrate_bias(self, payload, failures):
        if payload["measurements_used"] != self.want_bias_used or not close(payload["bias_hz"], self.want_bias):
            failures.append(f"calibrate-bias {payload} != oracle {self.want_bias} ({self.want_bias_used})")

    def probe_inputs(self):
        inp, cfg = self.inp, self.cfg
        return ProbeInputs(
            config=inp.config, log=cfg.log_csv, ephemeris=cfg.ephemeris_csv,
            corrections=cfg.correction_csv, logon=cfg.logon_sequence_csv, logon_meta=cfg.logon_meta_json,
            sweep=(cfg.arc_crossing, inp.sweep_time, inp.sweep_speeds[0], inp.sweep_measured, 1.0),
            windows=[cfg.fit_window],
        )


class DenseSweep:
    name = "dense_sweep"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.calls = 0

    def setup(self) -> None:
        crossings, speeds, step = SIZES[self.ctx.size]["dense"]
        self.inp = gen.dense_inputs(self.ctx.workdir, random.Random(self.ctx.seed), crossings, speeds, step)
        cfg_path, _, t, _, speeds = self.inp.requests[0]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["track-sweep", "--config", str(cfg_path), "--time", gen.fmt_time(t),
                      "--speed-kts", str(speeds[0]), "--format", "json"])

    def prepare_checks(self) -> None:
        self.cfgs = [config.load_config(r[0]) for r in self.inp.requests]

    def round(self):
        k = self.calls % len(self.inp.requests)
        self.calls += 1
        return [("track_sweep", lambda traced: self.request(k))]

    def request(self, k: int) -> Outcome:
        cfg_path, crossing, t, measured, speeds = self.inp.requests[k]
        step = self.inp.step_deg
        argv = ["track-sweep", "--config", str(cfg_path), "--time", gen.fmt_time(t), "--step-deg", repr(step),
                "--speed-kts", ",".join(map(str, speeds)), "--out-dir", str(self.inp.out_dir), "--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - start
        points = int(round(360.0 / step)) + 1
        out = Outcome("track_sweep", wall, points * len(speeds), rss_kb=peak_rss_kb())
        if code != 0:
            out.failures.append(f"track-sweep exit {code}")
            return out

        def check(failures):
            payload = json.loads(buf.getvalue())
            cfg, tables = self.cfgs[k], self.inp.tables
            for speed in speeds:
                key = f"{float(speed):g}kts"
                curve = check_curve(
                    self.inp.out_dir / f"track_sweep_{key}.csv", step,
                    lambda track, speed=speed: oracle_error(crossing, t, speed, track, measured,
                                                            tables.ephemeris, tables.corrections, cfg),
                    failures)
                check_sweep_payload(payload["curves"], key, curve, failures)

        out.check = check
        return out

    def probe_inputs(self):
        cfg_path, crossing, t, measured, speeds = self.inp.requests[0]
        cfg = config.load_config(cfg_path)
        return ProbeInputs(
            config=cfg_path, log=cfg.log_csv, ephemeris=cfg.ephemeris_csv, corrections=cfg.correction_csv,
            logon=cfg.logon_sequence_csv, logon_meta=cfg.logon_meta_json,
            sweep=(crossing, t, speeds[0], measured, self.inp.step_deg), windows=[cfg.fit_window],
        )


class ReferenceFlights:
    name = "reference_flights"

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        days, flights, bursts = SIZES[self.ctx.size]["reference"]
        self.inp = gen.reference_inputs(self.ctx.workdir, random.Random(self.ctx.seed), days, flights, bursts)
        config.load_config(self.inp.config).load_log()

    def prepare_checks(self) -> None:
        self.log_bytes = self.inp.log.read_bytes()
        noise, flagged = self.inp.noise, self.inp.outliers
        clean = [e for t, e in noise.items() if t not in flagged]
        self.want_stats = (statistics.fmean(clean), statistics.stdev(clean), min(clean), max(clean), len(clean))

    def round(self):
        return [("pipeline", lambda traced: self.request())]

    def request(self) -> Outcome:
        inp = self.inp
        copy = inp.out_dir / "roundtrip.csv"
        start = perf_counter()
        cfg = config.load_config(inp.config)
        records = cfg.load_log()
        eph, corr = cfg.load_ephemeris(), cfg.load_corrections()
        ms = records.measurements
        flags = stats.flag_outliers(ms)
        errors = []
        for m in ms:
            sat = satellite.satellite_state_at(m.timestamp, eph)
            predicted, _ = bfo_model.predict_bfo(inp.states[m.timestamp], sat, corr, cfg.bias_hz,
                                                 cfg.channel, cfg.slot)
            errors.append(stats.bfo_error(predicted, m.bfo_hz))
        summary = stats.compute_error_stats([e for e, bad in zip(errors, flags) if not bad])
        fits = [trend.fit_linear_trend(ms, w) for w in inp.windows]
        ingest.write_log_csv(copy, ms, records.provenance)
        back = ingest.load_log_csv(copy)
        wall = perf_counter() - start

        out = Outcome("pipeline", wall, len(ms), rss_kb=peak_rss_kb())

        def check(f):
            if records.rejected or back.rejected:
                f.append(f"rejected rows: {list(records.rejected)[:3]} {list(back.rejected)[:3]}")
            if [m.timestamp for m in ms] != list(inp.noise):
                f.append("loaded bursts differ from the generated bursts")
                return
            bad = [(m.timestamp, e) for m, e in zip(ms, errors) if not close(e, inp.noise[m.timestamp])]
            if bad:
                f.append(f"{len(bad)} errors miss the injected noise, first {bad[0]}")
            got_flagged = {m.timestamp for m, b in zip(ms, flags) if b}
            if got_flagged != inp.outliers:
                f.append(f"flag_outliers flagged {len(got_flagged)}, injected {len(inp.outliers)}")
            got = (summary.mean_hz, summary.std_hz, summary.min_hz, summary.max_hz, summary.count)
            if not all(close(a, b) for a, b in zip(got, self.want_stats)):
                f.append(f"error stats {got} != {self.want_stats}")
            for (t0, t1), fit in zip(inp.windows, fits):
                in_window = [m for m in ms if t0 <= m.timestamp <= t1]
                slope, intercept = ols([m.timestamp for m in in_window], [m.bfo_hz for m in in_window], t0)
                if not (close(fit.slope_hz_per_hour, slope, rel=True) and close(fit.intercept_hz, intercept, rel=True)):
                    f.append(f"trend fit ({fit.slope_hz_per_hour}, {fit.intercept_hz}) != OLS ({slope}, {intercept})")
                    break
            if copy.read_bytes() != self.log_bytes or back.measurements != ms or back.provenance != records.provenance:
                f.append("write_log_csv -> load_log_csv round trip is not byte-identical")

        out.check = check
        return out

    def probe_inputs(self):
        inp = self.inp
        cfg = config.load_config(inp.config)
        t = next(iter(inp.states))
        state = inp.states[t]
        sat = satellite.satellite_state_at(t, inp.tables.ephemeris)
        measured = bfo_model.predict_bfo(state, sat, inp.tables.corrections, cfg.bias_hz,
                                         cfg.channel, cfg.slot)[0] - inp.noise[t]
        return ProbeInputs(
            config=inp.config, log=inp.log, ephemeris=cfg.ephemeris_csv, corrections=cfg.correction_csv,
            logon=cfg.logon_sequence_csv, logon_meta=cfg.logon_meta_json,
            sweep=(state.position, t, state.kinematics.ground_speed_mps / track_sweep.KNOTS_TO_MPS, measured, 1.0),
            windows=inp.windows,
        )


WORKLOADS = {w.name: w for w in (ColdCli, DenseSweep, ReferenceFlights)}


# ---------------------------------------------------------------------------
# per-layer probes: untraced per-call times on the workload's own inputs

@dataclass
class ProbeInputs:
    config: Path
    log: Path
    ephemeris: Path
    corrections: Path
    logon: Path
    logon_meta: Path
    sweep: tuple  # (crossing, t, speed kts, measured bfo, step deg)
    windows: list  # trend fit windows


def per_call_s(fn, budget_s: float = 0.03, batches: int = 3) -> float:
    """Median per-call time of ``fn`` over a few batches of ~budget_s each
    (a single call when one call takes over half a second)."""
    start = perf_counter()
    fn()
    first = perf_counter() - start
    if first > 0.5:
        return first
    n = max(1, int(budget_s / max(first, 1e-7)))
    samples = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - start) / n)
    return statistics.median(samples)


def probe(pi: ProbeInputs, workdir: Path, seed: int) -> dict:
    """Per-call costs of each layer on this workload's inputs (untraced)."""
    us = 1e6
    m = {}
    m["config.load_config_us"] = per_call_s(lambda: config.load_config(pi.config)) * us
    records = ingest.load_log_csv(pi.log)
    ms = records.measurements
    eph = ingest.load_ephemeris_csv(pi.ephemeris)
    corr = ingest.load_correction_csv(pi.corrections)
    m["ingest.load_log_csv_us_per_row"] = per_call_s(lambda: ingest.load_log_csv(pi.log)) * us / len(ms)
    m["ingest.load_ephemeris_csv_us_per_row"] = per_call_s(lambda: ingest.load_ephemeris_csv(pi.ephemeris)) * us / len(eph)
    m["ingest.load_correction_csv_us_per_row"] = per_call_s(lambda: ingest.load_correction_csv(pi.corrections)) * us / len(corr)
    m["ingest.load_logon_csv_us"] = per_call_s(lambda: ingest.load_logon_csv(pi.logon, pi.logon_meta)) * us
    m["ingest.write_log_csv_us_per_row"] = per_call_s(
        lambda: ingest.write_log_csv(workdir / "probe_log.csv", ms, records.provenance)) * us / len(ms)
    m["ingest.rows_rejected"] = len(records.rejected)
    m["inputs.ephemeris_rows"] = len(eph)
    m["inputs.log_bursts"] = len(ms)
    m["inputs.nonzero_ber_pct"] = 100.0 * sum(x.ber > 0 for x in ms) / len(ms)

    rng = random.Random(seed)
    points = [GeodeticPosition(rng.uniform(-45, 10), rng.uniform(75, 105), rng.uniform(0, 12000))
              for _ in range(200)]
    kin = [GroundKinematics(rng.uniform(100, 270), rng.uniform(0, 360)) for _ in points]
    lo, hi = eph.span
    times = [rng.uniform(lo, hi) for _ in points]
    sats = [satellite.satellite_state_at(t, eph) for t in times]
    n = len(points)
    m["geodesy.geodetic_to_ecef_us"] = per_call_s(lambda: [geodesy.geodetic_to_ecef(p) for p in points]) * us / n
    m["geodesy.kinematics_to_ecef_velocity_us"] = per_call_s(
        lambda: [geodesy.kinematics_to_ecef_velocity(p, k) for p, k in zip(points, kin)]) * us / n
    m["geodesy.elevation_angle_us"] = per_call_s(
        lambda: [geodesy.elevation_angle(p, s.position) for p, s in zip(points, sats)]) * us / n
    m["satellite.satellite_state_at_us"] = per_call_s(
        lambda: [satellite.satellite_state_at(t, eph) for t in times]) * us / n
    m["satellite.deterministic_correction_at_us"] = per_call_s(
        lambda: [satellite.deterministic_correction_at(t, corr) for t in times]) * us / n
    cfg = config.load_config(pi.config)
    states = [AircraftState(p, k, t) for p, k, t in zip(points, kin, times)]
    m["bfo_model.predict_bfo_us"] = per_call_s(
        lambda: [bfo_model.predict_bfo(a, s, corr, cfg.bias_hz, cfg.channel, cfg.slot)
                 for a, s in zip(states, sats)]) * us / n

    crossing, t, speed, measured, step = pi.sweep
    box = []

    def sweep():
        box[:] = track_sweep.bfo_error_vs_track(crossing, t, speed * track_sweep.KNOTS_TO_MPS, measured, eph,
                                                corr, cfg.bias_hz, cfg.channel, cfg.slot, step)

    m["track_sweep.bfo_error_vs_track_us_per_point"] = per_call_s(sweep) * us / (int(round(360.0 / step)) + 1)
    curve = list(box)
    m["track_sweep.track_offset_us"] = per_call_s(
        lambda: (track_sweep.track_offset(curve, track_sweep.TrackSector.SOUTH),
                 track_sweep.track_offset(curve, track_sweep.TrackSector.NORTH))) * us / 2
    m["ingest.write_curve_csv_us_per_row"] = per_call_s(
        lambda: ingest.write_curve_csv(workdir / "probe_curve.csv", curve)) * us / len(curve)

    m["stats.flag_outliers_us_per_burst"] = per_call_s(lambda: stats.flag_outliers(ms)) * us / len(ms)
    quarter = ms[: max(1, len(ms) // 4)]
    m["stats.flag_outliers_quarter_log_us_per_burst"] = per_call_s(lambda: stats.flag_outliers(quarter)) * us / len(quarter)
    m["stats.flagged_count"] = sum(stats.flag_outliers(ms))
    samples = [x.bfo_hz for x in ms] if len(ms) >= 2 else [0.0, 1.0]
    m["stats.compute_error_stats_us"] = per_call_s(lambda: stats.compute_error_stats(samples)) * us
    m["trend.fit_linear_trend_us"] = per_call_s(
        lambda: [trend.fit_linear_trend(ms, w) for w in pi.windows]) * us / len(pi.windows)
    sequences = ingest.load_logon_csv(pi.logon, pi.logon_meta)
    m["warmup.extract_drift_bounds_us"] = per_call_s(lambda: warmup.extract_drift_bounds(sequences)) * us
    drift = warmup.extract_drift_bounds(sequences)
    m["descent.pipeline_us"] = per_call_s(lambda: descent_pipeline(drift, cfg)) * us
    return m


def descent_pipeline(drift, cfg):
    """Adjusted ranges -> rates -> combined envelope -> acceleration on the
    bundled final pair (182 Hz log-on request, -2 Hz acknowledgment)."""
    times, recorded = (0.0, 8.0), (182.0, -2.0)
    tables = []
    for hyp in (descent.Hypothesis.POWER_OUTAGE, descent.Hypothesis.OTHER_CAUSE):
        rates = tuple(
            descent.descent_rate_bounds(cfg.expected_south_hz, cfg.expected_north_hz,
                                        descent.adjusted_bfo_range(rec, msg, hyp, drift, cfg.noise),
                                        cfg.sensitivity_hz_per_100fpm)
            for msg, rec in zip(("logon", "ack"), recorded))
        tables.append(descent.DescentBoundsTable(times, rates))
    combined = descent.combine_hypotheses(*tables)
    return descent.estimate_downward_acceleration(combined, *times)


def import_times(root: Path, reps: int = 3) -> dict:
    """Cumulative ``-X importtime`` of bfokit and numpy in fresh interpreters."""
    found = {"bfokit": [], "numpy": []}
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bfokit.cli"],
                              capture_output=True, text=True, env=python_env(root), timeout=60)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"import.{k}_s": statistics.median(v) for k, v in found.items() if v}
