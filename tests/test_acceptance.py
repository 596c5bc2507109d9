"""Acceptance gate: every criterion as one test with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import time

import numpy as np

from bfokit.bfo_model import ChannelConfig, descent_sensitivity, predict_bfo
from bfokit.descent import (
    DescentBoundsTable,
    Hypothesis,
    adjusted_bfo_range,
    combine_hypotheses,
    descent_rate_bounds,
    drift_removed_range,
    estimate_downward_acceleration,
)
from bfokit.fixtures import fixture_path
from bfokit.geodesy import (
    GeodeticPosition,
    GroundKinematics,
    geodetic_to_ecef,
)
from bfokit.ingest import load_error_samples_csv
from bfokit.satellite import CorrectionTable, NominalSlot, nominal_satellite_position, SatelliteState
from bfokit.geodesy import EcefVector
from bfokit.bfo_model import AircraftState
from bfokit.stats import NoiseBounds, compute_error_stats
from bfokit.track_sweep import KNOTS_TO_MPS, TrackSector, bfo_error_vs_track, peak_to_peak, track_offset
from bfokit.trend import extrapolate, fit_linear_trend
from bfokit.warmup import DriftBounds, extract_drift_bounds
from test_geodesy import ecef_to_geodetic


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} | {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_table_exact_reproduction():
    started = time.perf_counter()
    drift = DriftBounds((17.0, 136.0), (17.0, 130.0), (0.0, 6.0))
    noise = NoiseBounds(-28.0, 18.0)
    recorded = {"logon": 182.0, "ack": -2.0}
    times = (0.0, 8.0)

    expected_cells = {
        Hypothesis.POWER_OUTAGE: {
            "drift_removed": {"logon": (46.0, 165.0), "ack": (-132.0, -19.0)},
            "adjusted": {"logon": (28.0, 193.0), "ack": (-150.0, 9.0)},
            "rates": {
                "logon": ((3900.0, 13600.0), (5100.0, 14800.0)),
                "ack": ((14800.0, 24100.0), (15900.0, 25300.0)),
            },
        },
        Hypothesis.OTHER_CAUSE: {
            "adjusted": {"logon": (164.0, 210.0), "ack": (-20.0, 26.0)},
            "rates": {
                "logon": ((2900.0, 5600.0), (4100.0, 6800.0)),
                "ack": ((13800.0, 16500.0), (14900.0, 17600.0)),
            },
        },
    }
    expected_combined = {0.0: (2900.0, 14800.0), 8.0: (13800.0, 25300.0)}

    mismatches = []
    tables = {}
    for hyp, want in expected_cells.items():
        rates = []
        for message in ("logon", "ack"):
            if hyp is Hypothesis.POWER_OUTAGE:
                rem = drift_removed_range(recorded[message], message, drift)
                if (rem.lower_hz, rem.upper_hz) != want["drift_removed"][message]:
                    mismatches.append(f"{hyp} drift-removed {message}")
            adj = adjusted_bfo_range(recorded[message], message, hyp, drift, noise)
            if (adj.lower_hz, adj.upper_hz) != want["adjusted"][message]:
                mismatches.append(f"{hyp} adjusted {message}")
            r = descent_rate_bounds(260.0, 280.0, adj, 1.7)
            if (r.south_fpm, r.north_fpm) != want["rates"][message]:
                mismatches.append(f"{hyp} rates {message}")
            rates.append(r)
        tables[hyp] = DescentBoundsTable(times, tuple(rates))

    combined = combine_hypotheses(tables[Hypothesis.POWER_OUTAGE], tables[Hypothesis.OTHER_CAUSE])
    for t, want in expected_combined.items():
        if combined.row(t).outer_fpm != want:
            mismatches.append(f"combined at {t}")
    elapsed = time.perf_counter() - started

    ok = not mismatches and elapsed < 1.0
    report(
        "criterion 1 (table-exact descent bounds)",
        ok,
        f"all 22 table cells exact, runtime {elapsed * 1000:.1f} ms"
        if ok
        else f"mismatches={mismatches} elapsed={elapsed:.3f}s",
    )


def test_criterion_2_acceleration():
    drift = DriftBounds((17.0, 136.0), (17.0, 130.0), (0.0, 6.0))
    noise = NoiseBounds(-28.0, 18.0)
    times = (0.0, 8.0)
    tables = {}
    for hyp in (Hypothesis.POWER_OUTAGE, Hypothesis.OTHER_CAUSE):
        rates = tuple(
            descent_rate_bounds(
                260.0, 280.0, adjusted_bfo_range(rec, msg, hyp, drift, noise), 1.7
            )
            for msg, rec in (("logon", 182.0), ("ack", -2.0))
        )
        tables[hyp] = DescentBoundsTable(times, rates)
    combined = combine_hypotheses(*tables.values())
    est = estimate_downward_acceleration(combined, 0.0, 8.0)
    ok = abs(est.fpm_per_s - 1300.0) <= 50.0 and abs(est.g - 0.68) <= 0.03
    report(
        "criterion 2 (midpoint acceleration)",
        ok,
        f"{est.fpm_per_s:.1f} fpm/s, {est.g:.4f} g",
    )


def test_criterion_3_sensitivity_constants():
    cfg = ChannelConfig(uplink_hz=1646.6525e6)
    s90 = descent_sensitivity(90.0, cfg)
    s388 = descent_sensitivity(38.8, cfg)
    ok = 2.75 <= s90 <= 2.85 and 1.70 <= s388 <= 1.80
    report(
        "criterion 3 (sensitivity constants)",
        ok,
        f"90deg: {s90:.4f} Hz/100fpm, 38.8deg: {s388:.4f} Hz/100fpm",
    )


def test_criterion_4_warmup_ranges(logon_sequences):
    drift = extract_drift_bounds(logon_sequences)
    ok = (
        drift.logon_minus_settled == (17.0, 136.0)
        and drift.ack_minus_settled == (17.0, 130.0)
        and drift.ack_below_logon == (0.0, 6.0)
    )
    report(
        "criterion 4 (warm-up drift ranges)",
        ok,
        f"logon-settled {drift.logon_minus_settled}, ack-settled {drift.ack_minus_settled},"
        f" ack-below-logon {drift.ack_below_logon}",
    )


def test_criterion_5_trend(analysis_config, log_records, ephemeris, corrections):
    model = fit_linear_trend(log_records.measurements, analysis_config.fit_window)
    t = analysis_config.parse_time("00:19:29Z")
    value = extrapolate(model, t)
    curve = bfo_error_vs_track(
        crossing=analysis_config.arc_crossing,
        t=analysis_config.parse_time("00:11Z"),
        ground_speed_mps=450.0 * KNOTS_TO_MPS,
        measured_bfo_hz=252.0,
        ephemeris=ephemeris,
        corrections=corrections,
        bias_hz=analysis_config.bias_hz,
        cfg=analysis_config.channel,
        slot=analysis_config.slot,
    )
    south = value + track_offset(curve, TrackSector.SOUTH)  # the expected level-flight BFO on a south track
    ok = 252.0 <= value <= 256.0 and abs(south - 260.0) <= 2.0
    report(
        "criterion 5 (cruise trend)",
        ok,
        f"extrapolated {value:.2f} Hz, expected south-track {south:.2f} Hz",
    )


def test_criterion_6_track_sweep(analysis_config, ephemeris, corrections):
    def curve(speed):
        return bfo_error_vs_track(
            crossing=analysis_config.arc_crossing,
            t=analysis_config.parse_time("00:11Z"),
            ground_speed_mps=speed * KNOTS_TO_MPS,
            measured_bfo_hz=252.0,
            ephemeris=ephemeris,
            corrections=corrections,
            bias_hz=analysis_config.bias_hz,
            cfg=analysis_config.channel,
            slot=analysis_config.slot,
        )

    c450, c500 = curve(450.0), curve(500.0)
    south = track_offset(c450, TrackSector.SOUTH)
    ratio = peak_to_peak(c500) / peak_to_peak(c450)
    ok = abs(south - 6.0) <= 2.0 and 0.85 <= ratio <= 1.15
    report(
        "criterion 6 (track sweep)",
        ok,
        f"south minimum {south:.2f} Hz, p2p ratio {ratio:.4f}",
    )


def test_criterion_7_property_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(2014)
    cfg = ChannelConfig()
    slot = NominalSlot()

    # Doppler-compensation cancellation over 10^4 random states
    sat = SatelliteState(nominal_satellite_position(slot), EcefVector(0.0, 0.0, 0.0))
    flat = CorrectionTable([-1.0, 1.0], [0.0, 0.0])
    worst_cancellation = 0.0
    for _ in range(10_000):
        state = AircraftState(
            GeodeticPosition(rng.uniform(-75, 75), rng.uniform(-179, 180), 0.0),
            GroundKinematics(rng.uniform(0, 300), rng.uniform(0, 360), 0.0),
            0.0,
        )
        terms = predict_bfo(state, sat, flat, 0.0, cfg, slot)[1]
        total = terms.uplink_doppler_hz + terms.aes_compensation_hz
        worst_cancellation = max(worst_cancellation, abs(total))

    # geodesy round trip over 10^4 random points
    worst_deg, worst_alt = 0.0, 0.0
    for _ in range(10_000):
        p = GeodeticPosition(
            rng.uniform(-90, 90), rng.uniform(-179.999, 180.0), rng.uniform(-5000, 100000)
        )
        q = ecef_to_geodetic(geodetic_to_ecef(p))
        worst_deg = max(worst_deg, abs(q.latitude_deg - p.latitude_deg))
        if abs(p.latitude_deg) < 90.0 - 1e-9:
            worst_deg = max(worst_deg, abs(q.longitude_deg - p.longitude_deg))
        worst_alt = max(worst_alt, abs(q.altitude_m - p.altitude_m))

    # OLS vs explicit normal equations
    from bfokit.stats import BfoMeasurement, Channel, MessageType

    worst_rel = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 50))
        times = np.sort(rng.uniform(0.0, 30000.0, n))
        bfos = rng.uniform(-50.0, 300.0, n)
        model = fit_linear_trend(
            [
                BfoMeasurement(float(t), Channel.R, MessageType.DATA, float(b), cn0_dbhz=41.7)
                for t, b in zip(times, bfos)
            ],
            (0.0, 30000.0),
        )
        h = times / 3600.0
        sx, sy = h.sum(), bfos.sum()
        sxx, sxy = (h * h).sum(), (h * bfos).sum()
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept = (sy - slope * sx) / n
        scale = max(abs(slope), abs(intercept), 1.0)
        worst_rel = max(
            worst_rel,
            abs(model.slope_hz_per_hour - slope) / scale,
            abs(model.intercept_hz - intercept) / scale,
        )

    # descent-bound monotonicity under bound widening
    monotone = True
    for _ in range(300):
        rec = rng.uniform(-50.0, 250.0)
        d_lo, d_hi = sorted(rng.uniform(0.0, 150.0, 2))
        n_lo, n_hi = sorted(rng.uniform(-40.0, 30.0, 2))
        grow_d, grow_n = rng.uniform(0.0, 10.0, 2)
        drift = DriftBounds((d_lo, d_hi), (d_lo, d_hi), (0.0, 1.0))
        wide_drift = DriftBounds(
            (d_lo - grow_d, d_hi + grow_d), (d_lo - grow_d, d_hi + grow_d), (0.0, 1.0)
        )
        base = descent_rate_bounds(
            260.0, 280.0,
            adjusted_bfo_range(rec, "logon", Hypothesis.POWER_OUTAGE, drift, NoiseBounds(n_lo, n_hi)),
            1.7, rounding_fpm=None,
        )
        wide = descent_rate_bounds(
            260.0, 280.0,
            adjusted_bfo_range(
                rec, "logon", Hypothesis.POWER_OUTAGE, wide_drift,
                NoiseBounds(n_lo - grow_n, n_hi + grow_n),
            ),
            1.7, rounding_fpm=None,
        )
        if not (
            wide.south_fpm[0] <= base.south_fpm[0]
            and wide.south_fpm[1] >= base.south_fpm[1]
            and wide.north_fpm[0] <= base.north_fpm[0]
            and wide.north_fpm[1] >= base.north_fpm[1]
        ):
            monotone = False

    elapsed = time.perf_counter() - started
    ok = (
        worst_cancellation < 1e-9
        and worst_deg < 1e-9
        and worst_alt < 1e-6
        and worst_rel < 1e-9
        and monotone
        and elapsed < 60.0
    )
    report(
        "criterion 7 (property suites)",
        ok,
        f"cancellation {worst_cancellation:.2e} Hz, round-trip {worst_deg:.2e} deg /"
        f" {worst_alt:.2e} m, OLS {worst_rel:.2e} rel, monotone={monotone},"
        f" runtime {elapsed:.1f} s",
    )


def test_criterion_8_statistics_fixture():
    values, _ = load_error_samples_csv(fixture_path("bfo_error_reference.csv"))
    stats = compute_error_stats(values)
    ok = (
        stats.count == 2501
        and abs(stats.mean_hz - 0.18) <= 0.01
        and abs(stats.std_hz - 4.3) <= 0.05
        and stats.min_hz == -28.0
        and stats.max_hz == 18.0
    )
    report(
        "criterion 8 (reference error statistics)",
        ok,
        f"n={stats.count} mean={stats.mean_hz:.4f} std={stats.std_hz:.4f}"
        f" min={stats.min_hz} max={stats.max_hz}",
    )
