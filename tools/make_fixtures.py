#!/usr/bin/env python3
"""Regenerate the bundled synthetic fixtures.

Everything here is deterministic (no RNG): the ephemeris and correction
tables come from closed-form models, the reference error sample from
normal-distribution quantiles, and the burst logs from hand-chosen
values plus forward-model predictions. Files are written through the
package's own CSV writers so that load/write round trips stay byte
identical.

Run from the repository root:  python3 tools/make_fixtures.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from statistics import NormalDist, fmean, stdev

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bfokit.bfo_model import AircraftState, ChannelConfig, predict_bfo  # noqa: E402
from bfokit.geodesy import GeodeticPosition, GroundKinematics  # noqa: E402
from bfokit.ingest import (  # noqa: E402
    write_correction_csv,
    write_ephemeris_csv,
    write_error_samples_csv,
    write_log_csv,
    write_logon_csv,
)
from bfokit.satellite import (  # noqa: E402
    SIDEREAL_DAY_S,
    CorrectionTable,
    NominalSlot,
    SyntheticGeoModel,
    satellite_state_at,
)
from bfokit.stats import BfoMeasurement, Channel, MessageType  # noqa: E402
from bfokit.timestamps import parse_time_utc  # noqa: E402
from bfokit.track_sweep import TrackSector, bfo_error_vs_track, track_offset  # noqa: E402
from bfokit.units import KNOTS_TO_MPS  # noqa: E402
from bfokit.warmup import CompensationMode, LogonSequence  # noqa: E402

OUT = REPO / "src" / "bfokit" / "fixtures"

T = parse_time_utc  # full ISO timestamps only in this script

CROSSING = GeodeticPosition(-38.67, 85.11, 0.0)
TARMAC = GeodeticPosition(2.7456, 101.7099, 21.0)
NODE_TIME = T("2014-03-07T16:52:52Z")
PERIGEE_TIME = T("2014-03-07T20:00:00Z")
EPH_START = T("2014-03-07T15:30:00Z")
EPH_END = T("2014-03-08T01:00:00Z")
EPH_STEP_S = 600.0

MEASURED_0011 = 252.0
SOUTH_MIN_TARGET_HZ = 6.0


def build_ephemeris():
    model = SyntheticGeoModel(
        longitude_deg=64.5,
        inclination_deg=1.65,
        node_time=NODE_TIME,
        eccentricity=0.00025,
        perigee_time=PERIGEE_TIME,
    )
    table = model.table(
        EPH_START,
        EPH_END,
        EPH_STEP_S,
        provenance=[
            "# source: synthetic inclined-geosynchronous ephemeris (64.5E relay,"
            " 1.65 deg inclination); the real operator ephemeris is not published"
        ],
    )
    write_ephemeris_csv(OUT / "ior_ephemeris_synthetic.csv", table)
    return table


def build_corrections():
    times, values = [], []
    t = EPH_START
    while t <= EPH_END:
        times.append(t)
        values.append(round(4.0 - 12.0 * math.cos(2 * math.pi * (t - NODE_TIME) / SIDEREAL_DAY_S + 0.7), 3))
        t += EPH_STEP_S
    table = CorrectionTable(
        times,
        values,
        provenance=[
            "# source: synthetic net translation + ground-AFC correction table;"
            " the real tabulated values are not published"
        ],
    )
    write_correction_csv(OUT / "ior_corrections_synthetic.csv", table)
    return table


def calibrate_fixture_bias(ephemeris, corrections) -> float:
    """Bias that puts the 00:11Z south-sector minimum BFO error at +6 Hz."""
    curve = bfo_error_vs_track(
        crossing=CROSSING,
        t=T("2014-03-08T00:11:00Z"),
        ground_speed_mps=450.0 * KNOTS_TO_MPS,
        measured_bfo_hz=MEASURED_0011,
        ephemeris=ephemeris,
        corrections=corrections,
        bias_hz=0.0,
        cfg=ChannelConfig(),
        slot=NominalSlot(),
        step_deg=1.0,
    )
    return SOUTH_MIN_TARGET_HZ - track_offset(curve, TrackSector.SOUTH)


def _m(time, channel, msg, bfo, bto=None, ber=0, cn0=41.7, signal=None):
    return BfoMeasurement(
        timestamp=T(time),
        channel=Channel(channel),
        message_type=MessageType(msg),
        bfo_hz=float(bfo),
        bto_us=bto,
        ber=float(ber),
        cn0_dbhz=float(cn0),
        signal_db=signal,
    )


def build_main_log(ephemeris, corrections, bias_hz):
    cfg = ChannelConfig()
    slot = NominalSlot()
    static = GroundKinematics(0.0, 0.0, 0.0)

    def tarmac_bfo(time):
        t = T(time)
        sat = satellite_state_at(t, ephemeris)
        state = AircraftState(TARMAC, static, t)
        predicted, _ = predict_bfo(state, sat, corrections, bias_hz, cfg, slot)
        return round(predicted)

    rows = [
        _m("2014-03-07T16:00:00Z", "T", "data", tarmac_bfo("2014-03-07T16:00:00Z"), cn0=41.9),
        _m("2014-03-07T16:05:00Z", "T", "data", tarmac_bfo("2014-03-07T16:05:00Z"), cn0=41.8),
        _m("2014-03-07T16:10:00Z", "T", "data", tarmac_bfo("2014-03-07T16:10:00Z"), cn0=41.9),
        _m("2014-03-07T18:39:53Z", "C", "phone", 84, cn0=41.6),
        _m("2014-03-07T18:40:56Z", "C", "phone", 88, cn0=41.7),
        _m("2014-03-07T19:41:03Z", "R", "interrogation", 111, bto=14820, cn0=41.8),
        _m("2014-03-07T20:41:05Z", "R", "interrogation", 141, bto=14540, cn0=41.9),
        _m("2014-03-07T21:41:27Z", "R", "interrogation", 168, bto=14920, cn0=41.6),
        _m("2014-03-07T22:41:22Z", "R", "interrogation", 204, bto=15600, cn0=41.8),
        _m("2014-03-07T23:14:01Z", "C", "phone", 216, cn0=41.7),
        _m("2014-03-07T23:15:02Z", "C", "phone", 222, cn0=41.7),
        _m("2014-03-08T00:11:00Z", "R", "interrogation", 252, bto=18040, cn0=41.8),
        _m("2014-03-08T00:19:29Z", "R", "logon_request", 182, bto=12520, cn0=41.5),
        _m("2014-03-08T00:19:37Z", "R", "logon_ack", -2, bto=23000, cn0=41.4),
    ]
    write_log_csv(
        OUT / "mh370_bfo_log.csv",
        rows,
        provenance=[
            "# source: synthetic burst log on the accident-flight timeline;"
            " cruise and end-of-flight BFO values chosen to reproduce the"
            " published trend (252 Hz at 00:11Z) and final pair (182 / -2 Hz)"
        ],
    )


def build_key_events():
    rows = [
        _m("2014-03-07T16:42:00Z", "T", "data", 233, cn0=41.9),
        _m("2014-03-07T17:07:00Z", "T", "data", 175, cn0=41.8),
        _m("2014-03-07T17:21:13Z", "R", "other", 160, cn0=41.7),
        _m("2014-03-07T18:22:12Z", "R", "other", 130, cn0=41.6),
        _m("2014-03-07T18:25:27Z", "R", "logon_request", 142, ber=1, cn0=37.6),
        _m("2014-03-07T18:39:53Z", "C", "phone", 84, cn0=41.6),
        _m("2014-03-07T19:41:03Z", "R", "interrogation", 111, bto=14820, cn0=41.8),
        _m("2014-03-08T00:19:29Z", "R", "logon_request", 182, bto=12520, cn0=41.5),
    ]
    write_log_csv(
        OUT / "mh370_key_events.csv",
        rows,
        provenance=[
            "# source: key accident-flight timeline events as one row each;"
            " BFO values synthetic"
        ],
    )


# Relative log-on decay shapes: (seconds since log-on, raw Hz relative to the
# acknowledgment, message type, BER, C/N0). Closed-loop sequences store raw
# (unhalved) values; the analysis halves them.
LOGON_SHAPES = {
    "1": {
        "start": "2014-02-23T23:57:00Z",
        "mode": "closed_loop",
        "ack_abs": 152.0,
        "points": [
            (0, 12, "logon_request", 0, 41.7),
            (8, 0, "logon_ack", 0, 41.8),
            (20, -80, "data", 1, 41.6),
            (35, -170, "data", 1, 41.6),
            (50, -230, "data", 0, 41.7),
            (58, -260, "data", 0, 41.8),
        ],
    },
    "2": {
        "start": "2014-02-26T14:11:00Z",
        "mode": "closed_loop",
        "ack_abs": 147.0,
        "points": [
            (0, 6, "logon_request", 0, 41.8),
            (7, 0, "logon_ack", 0, 41.9),
            (18, -60, "data", 0, 41.7),
            (30, -120, "data", 0, 41.8),
            (42, -165, "data", 0, 41.6),
            (55, -190, "data", 0, 41.7),
        ],
    },
    "3": {
        "start": "2014-03-05T03:06:00Z",
        "mode": "closed_loop",
        "ack_abs": 139.0,
        "points": [
            (0, 2, "logon_request", 0, 41.6),
            (6, 0, "logon_ack", 0, 41.7),
            (25, -30, "data", 0, 41.8),
            (40, -50, "data", 0, 41.7),
            (55, -58, "data", 0, 41.6),
            (1800, -60, "data", 0, 41.8),
            (1815, -60, "data", 0, 41.7),
        ],
    },
    "4": {
        "start": "2014-03-06T13:29:00Z",
        "mode": "closed_loop",
        "ack_abs": 143.0,
        "points": [
            (0, 0, "logon_request", 0, 41.8),
            (8, 0, "logon_ack", 0, 41.7),
            (20, -20, "data", 0, 41.9),
            (33, -30, "data", 0, 41.8),
            (45, -34, "data", 0, 41.7),
        ],
    },
    "5": {
        "start": "2014-03-06T15:02:00Z",
        "mode": "closed_loop",
        "ack_abs": 150.0,
        "points": [
            (0, 4, "logon_request", 0, 41.7),
            (7, 0, "logon_ack", 0, 41.8),
            (22, -24, "data", 0, 41.6),
            (41, -38, "data", 0, 41.7),
            (1750, -44, "data", 0, 41.8),
            (1770, -44, "data", 0, 41.7),
        ],
    },
    "6": {
        "start": "2014-03-07T12:50:00Z",
        "mode": "closed_loop",
        "ack_abs": 149.0,
        "points": [
            (0, 8, "logon_request", 0, 41.8),
            (9, 0, "logon_ack", 0, 41.7),
            (30, -40, "data", 1, 41.7),
            (60, -74, "data", 0, 41.8),
            (95, -96, "data", 1, 41.6),
            (130, -106, "data", 0, 41.7),
            (170, -110, "data", 0, 41.8),
            (200, -110, "data", 0, 41.7),
        ],
    },
    "7": {
        "start": "2014-03-07T18:25:27Z",
        "mode": "open_loop",
        "ack_abs": 273.0,
        "points": [
            (0, -131, "logon_request", 1, 37.6),
            (4, 2, "data", 0, 41.8),
            (8, 0, "logon_ack", 0, 41.7),
            (25, -8, "data", 0, 41.6),
            (50, -14, "data", 0, 41.8),
            (90, -18, "data", 0, 41.7),
            (150, -20, "data", 0, 41.6),
            (200, -21, "data", 0, 41.8),
            (240, -21, "data", 0, 41.7),
        ],
    },
}

LOGON_META = {
    "1": {
        "outage_minutes": [381, 442],
        "notes": "after scheduled maintenance check; some non-zero BERs;"
        " sequence ends before settling (expected to settle like 6 and 7)",
        "settled_proxy": True,
    },
    "2": {"outage_minutes": [295, 354], "settled_proxy": True},
    "3": {"outage_minutes": [35, 95]},
    "4": {"outage_minutes": [43, 103], "settled_proxy": True},
    "5": {"outage_minutes": [35, 92]},
    "6": {"outage_minutes": [228, 288], "notes": "some non-zero BERs"},
    "7": {"outage_minutes": [20, 78], "notes": "first point untrustworthy"},
}


def build_logon_sequences():
    sequences = []
    for seq_id, shape in LOGON_SHAPES.items():
        start = T(shape["start"])
        ms = tuple(
            BfoMeasurement(
                timestamp=start + dt,
                channel=Channel.R,
                message_type=MessageType(msg),
                bfo_hz=shape["ack_abs"] + rel,
                ber=float(ber),
                cn0_dbhz=cn0,
            )
            for dt, rel, msg, ber, cn0 in shape["points"]
        )
        meta = LOGON_META[seq_id]
        sequences.append(
            LogonSequence(
                id=seq_id,
                measurements=ms,
                compensation_mode=CompensationMode(shape["mode"]),
                outage_bounds_min=tuple(meta["outage_minutes"]),
                notes=meta.get("notes", ""),
                settled_proxy=meta.get("settled_proxy", False),
            )
        )
    write_logon_csv(
        OUT / "logon_sequences.csv",
        sequences,
        provenance=[
            "# source: synthetic transcription of seven historical 9M-MRO"
            " log-on BFO decay sequences; values chosen to reproduce the"
            " published warm-up drift ranges [17,136], [17,130] and [0,6] Hz"
        ],
    )
    (OUT / "logon_sequences_meta.json").write_text(
        json.dumps(LOGON_META, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def build_error_reference():
    n = 2501
    nd = NormalDist(0.18, 4.3)
    vals = [nd.inv_cdf((i + 0.5) / n) for i in range(n)]
    vals[0], vals[-1] = -28.0, 18.0
    interior = vals[1:-1]
    center = fmean(interior)

    def with_scale(k):
        return [-28.0] + [center + (v - center) * k for v in interior] + [18.0]

    lo, hi = 0.8, 1.2
    for _ in range(60):
        mid = (lo + hi) / 2
        if stdev(with_scale(mid)) < 4.30:
            lo = mid
        else:
            hi = mid
    sample = [round(v, 4) for v in with_scale((lo + hi) / 2)]
    write_error_samples_csv(
        OUT / "bfo_error_reference.csv",
        sample,
        provenance=[
            "# source: synthetic 2501-sample set matching the published"
            " 20-flight BFO error statistics (mean 0.18 Hz, std 4.3 Hz,"
            " strict bounds [-28,+18] Hz); not real log data"
        ],
    )
    return sample


def build_config(bias_hz: float):
    config = {
        "reference_date": "2014-03-07",
        "log_csv": "mh370_bfo_log.csv",
        "ephemeris_csv": "ior_ephemeris_synthetic.csv",
        "correction_csv": "ior_corrections_synthetic.csv",
        "logon_sequence_csv": "logon_sequences.csv",
        "logon_meta_json": "logon_sequences_meta.json",
        "channel": {
            "uplink_hz": 1646.6525e6,
            "downlink_hz": 3615.0e6,
            "ges": {"lat": -31.8044, "lon": 115.8872, "alt": 22.0},
        },
        "nominal_slot": {"longitude_deg": 64.5},
        "noise_bounds": {"lower_hz": -28.0, "upper_hz": 18.0},
        "expected_bfo": {"south_hz": 260.0, "north_hz": 280.0},
        "arc_crossing": {"lat": -38.67, "lon": 85.11, "alt": 0.0},
        "tarmac": {"lat": 2.7456, "lon": 101.7099, "alt": 21.0},
        "fit_window": ["19:41Z", "00:11Z"],
        "bias_hz": bias_hz,
        "sensitivity_hz_per_100fpm": 1.7,
    }
    (OUT / "mh370_analysis.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8"
    )


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    ephemeris = build_ephemeris()
    corrections = build_corrections()
    bias = calibrate_fixture_bias(ephemeris, corrections)
    print(f"calibrated bias: {bias!r} Hz")
    build_main_log(ephemeris, corrections, bias)
    build_key_events()
    build_logon_sequences()
    sample = build_error_reference()
    print(f"error sample: n={len(sample)} mean={fmean(sample):.4f} std={stdev(sample):.4f}")
    build_config(bias)
    print(f"fixtures written to {OUT}")


if __name__ == "__main__":
    main()
