"""Seeded inputs for the bfokit benchmark.

Every input is a pure function of the seed and the size: the same seed
writes byte-identical files. The files follow bfokit's CSV conventions
(ISO-8601 Zulu seconds, integral numbers without a fraction, other
numbers as ``repr``), so a bfokit write of a loaded file must give the
same bytes back.

The expected values the benchmark checks against (injected noise, which
bursts are outliers, scalar oracle inputs) are returned in memory; bfokit
only ever sees the files and configs written here.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from bfokit.bfo_model import AircraftState, ChannelConfig, predict_bfo
from bfokit.fixtures import fixture_path
from bfokit.geodesy import GeodeticPosition, GroundKinematics
from bfokit.satellite import (
    SIDEREAL_DAY_S,
    CorrectionTable,
    NominalSlot,
    SyntheticGeoModel,
    satellite_state_at,
)
from bfokit.track_sweep import KNOTS_TO_MPS

EPOCH = datetime(2014, 3, 7, 12, 0, tzinfo=timezone.utc).timestamp()
TABLE_STEP_S = 600.0
SLOT_LON_DEG = 64.5
UPLINK_HZ = 1646652500.0
DOWNLINK_HZ = 3615000000.0
GES = {"lat": -31.8044, "lon": 115.8872, "alt": 22.0}
BUNDLED = ["mh370_bfo_log.csv", "ior_ephemeris_synthetic.csv", "ior_corrections_synthetic.csv",
           "logon_sequences.csv", "logon_sequences_meta.json", "mh370_analysis.json"]
LOG_HEADER = "time_utc,channel,msg_type,bfo_hz,bto_us,ber,cn0_dbhz,signal_db"

# Burst quality mix of the reference-flight log. Outliers carry a non-zero
# BER *and* a C/N0 drop well past bfokit's 3 dB threshold; decoys carry a
# non-zero BER at normal C/N0, so flag_outliers must check both. Decoys
# also set how many bursts take flag_outliers' neighbour scan.
OUTLIER_FRAC = 0.01
DECOY_FRAC = 0.09
CN0_BASE_DBHZ = 41.5


def fmt_time(t: float) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def fmt_num(v) -> str:
    if v is None:
        return ""
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def _write_csv(path: Path, provenance: str, header: str, rows) -> None:
    lines = [f"# {provenance}", header] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def channel_config() -> ChannelConfig:
    return ChannelConfig(UPLINK_HZ, DOWNLINK_HZ, GeodeticPosition(GES["lat"], GES["lon"], GES["alt"]))


@dataclass
class Tables:
    ephemeris: object
    corrections: CorrectionTable
    start: float
    end: float


def write_tables(directory: Path, rng: random.Random, start: float, days: float) -> Tables:
    """Seeded inclined-GEO ephemeris and correction table, 10-minute rows."""
    end = start + days * 86400.0
    node = start + rng.uniform(0.0, SIDEREAL_DAY_S)
    model = SyntheticGeoModel(
        longitude_deg=SLOT_LON_DEG,
        inclination_deg=rng.uniform(1.4, 1.8),
        node_time=node,
        eccentricity=rng.uniform(1e-4, 4e-4),
        perigee_time=node + rng.uniform(0.0, SIDEREAL_DAY_S),
    )
    eph = model.table(start, end, TABLE_STEP_S)
    _write_csv(
        directory / "ephemeris.csv",
        "source: seeded synthetic inclined-geosynchronous ephemeris",
        "time_utc,x_m,y_m,z_m,vx_mps,vy_mps,vz_mps",
        ([fmt_time(t)] + [fmt_num(v) for v in (*p, *v)]
         for t, p, v in zip(eph.times.tolist(), eph.positions.tolist(), eph.velocities.tolist())),
    )
    phase = rng.uniform(0.0, 2.0 * math.pi)
    times = eph.times.tolist()
    values = [round(4.0 - 12.0 * math.cos(2 * math.pi * (t - node) / SIDEREAL_DAY_S + phase), 3)
              for t in times]
    _write_csv(directory / "corrections.csv", "source: seeded synthetic correction table",
               "time_utc,delta_f_hz", ([fmt_time(t), fmt_num(v)] for t, v in zip(times, values)))
    return Tables(eph, CorrectionTable(times, values), start, end)


def write_config(path: Path, log: str, reference_date: str, fit_window, crossing, bias_hz: float) -> None:
    cfg = {
        "reference_date": reference_date,
        "log_csv": log,
        "ephemeris_csv": "ephemeris.csv",
        "correction_csv": "corrections.csv",
        "logon_sequence_csv": "logon_sequences.csv",
        "logon_meta_json": "logon_sequences_meta.json",
        "channel": {"uplink_hz": UPLINK_HZ, "downlink_hz": DOWNLINK_HZ, "ges": GES},
        "nominal_slot": {"longitude_deg": SLOT_LON_DEG},
        "arc_crossing": crossing,
        "fit_window": fit_window,
        "bias_hz": bias_hz,
    }
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def copy_bundled(directory: Path, names) -> None:
    for name in names:
        shutil.copyfile(fixture_path(name), directory / name)


def _log_row(t, channel, msg, bfo, ber, cn0, bto=None):
    return [fmt_time(t), channel, msg, fmt_num(bfo), fmt_num(bto), fmt_num(ber), fmt_num(cn0), ""]


# ---------------------------------------------------------------------------
# cold_cli: the bundled analysis, with seeded arguments

@dataclass
class ColdInputs:
    config: Path
    out_dir: Path
    requests: list  # [(subcommand, argv)], one round in seeded order
    predict_state: AircraftState
    sweep_time: float
    sweep_speeds: list
    sweep_measured: float
    extrapolate_time: float
    tarmac_window: tuple


def cold_inputs(directory: Path, rng: random.Random) -> ColdInputs:
    copy_bundled(directory, BUNDLED)
    config = directory / "mh370_analysis.json"
    out = directory / "out"
    out.mkdir(exist_ok=True)
    day = datetime(2014, 3, 7, tzinfo=timezone.utc).timestamp()

    t_pred = day + 16 * 3600 + rng.randrange(0, 8 * 3600)
    speed_kts = float(rng.randrange(300, 520))
    # Built the way the CLI builds it from the same arguments.
    state = AircraftState(
        GeodeticPosition(round(rng.uniform(-40, 5), 3), round(rng.uniform(80, 105), 3),
                         float(rng.randrange(0, 12000))),
        GroundKinematics(speed_kts * KNOTS_TO_MPS, float(rng.randrange(0, 360))),
        t_pred,
    )
    t_sweep = day + 17 * 3600 + rng.randrange(0, 7 * 3600)
    speeds = sorted(rng.sample(range(380, 521, 10), 2))
    measured = float(rng.randrange(100, 300))
    t_extra = day + 24 * 3600 + rng.randrange(11 * 60, 2 * 3600)
    window = (day + 15 * 3600 + rng.randrange(55 * 60, 60 * 60),
              day + 16 * 3600 + rng.randrange(10 * 60 + 1, 15 * 60))
    base = ["--config", str(config), "--format", "json"]
    requests = [
        ("predict_bfo", ["predict-bfo", *base, "--time", fmt_time(t_pred),
                         "--lat", repr(state.position.latitude_deg),
                         "--lon", repr(state.position.longitude_deg),
                         "--alt", repr(state.position.altitude_m),
                         "--speed-kts", repr(speed_kts),
                         "--track-deg", repr(state.kinematics.track_angle_deg)]),
        ("track_sweep", ["track-sweep", *base, "--time", fmt_time(t_sweep), "--step-deg", "1",
                         "--speed-kts", ",".join(map(str, speeds)),
                         "--measured-bfo", repr(measured), "--out-dir", str(out / "sweep")]),
        ("trend", ["trend", *base, "--extrapolate", fmt_time(t_extra)]),
        ("logon_drift", ["logon-drift", *base]),
        ("descent_bounds", ["descent-bounds", *base, "--hypothesis", "both",
                            "--out-dir", str(out / "descent")]),
        ("calibrate_bias", ["calibrate-bias", *base, "--tarmac-window",
                            f"{fmt_time(window[0])}..{fmt_time(window[1])}"]),
    ]
    rng.shuffle(requests)
    return ColdInputs(config, out, requests, state, t_sweep, speeds, measured, t_extra, window)


# ---------------------------------------------------------------------------
# dense_sweep: 0.01 deg sweeps at seeded crossings and times

@dataclass
class DenseInputs:
    tables: Tables
    bias_hz: float
    out_dir: Path
    requests: list  # [(config path, crossing, time, measured bfo, speeds kts)]
    step_deg: float


def dense_inputs(directory: Path, rng: random.Random, crossings: int, speeds: int,
                 step_deg: float) -> DenseInputs:
    tables = write_tables(directory, rng, EPOCH, 1.0)
    copy_bundled(directory, BUNDLED[3:5])
    bias = round(rng.uniform(150.0, 250.0), 6)
    times = sorted(rng.sample(range(int(tables.start) + 3600, int(tables.end) - 3600, 60), crossings))
    rows, requests = [], []
    for k, t in enumerate(times):
        measured = float(rng.randrange(100, 300))
        rows.append(_log_row(t, "R", "interrogation", measured, 0, CN0_BASE_DBHZ))
        crossing = {"lat": round(rng.uniform(-45, -20), 3), "lon": round(rng.uniform(75, 100), 3), "alt": 0.0}
        config = directory / f"dense_{k}.json"
        write_config(config, "log.csv", "2014-03-07", [fmt_time(times[0]), fmt_time(times[-1] + 60)],
                     crossing, bias)
        speed_set = sorted(rng.sample(range(380, 521, 10), speeds))
        requests.append((config, GeodeticPosition(crossing["lat"], crossing["lon"], 0.0), float(t),
                         measured, speed_set))
    # One filler burst after the last crossing keeps the fit window non-degenerate.
    rows.append(_log_row(times[-1] + 60, "R", "interrogation", 200, 0, CN0_BASE_DBHZ))
    _write_csv(directory / "log.csv", "source: seeded crossing-time bursts", LOG_HEADER, rows)
    out = directory / "out"
    out.mkdir(exist_ok=True)
    return DenseInputs(tables, bias, out, requests, step_deg)


# ---------------------------------------------------------------------------
# reference_flights: a multi-day, multi-flight burst log with known errors

@dataclass
class ReferenceInputs:
    tables: Tables
    config: Path
    log: Path
    out_dir: Path
    states: dict  # burst time -> AircraftState
    noise: dict  # burst time -> injected BFO error (predicted minus measured), Hz
    outliers: set  # burst times carrying non-zero BER and a C/N0 drop
    windows: list  # per-flight (first, last) burst time


def reference_inputs(directory: Path, rng: random.Random, days: float, flights: int,
                     bursts_per_flight: int) -> ReferenceInputs:
    tables = write_tables(directory, rng, EPOCH, days)
    copy_bundled(directory, BUNDLED[3:5])
    bias = round(rng.uniform(150.0, 250.0), 6)
    cfg, slot = channel_config(), NominalSlot(SLOT_LON_DEG)
    slot_s = (tables.end - tables.start - 7200) / flights
    states, noise, outliers, windows, rows = {}, {}, set(), [], []
    for f in range(flights):
        t0 = int(tables.start + 3600 + f * slot_s + rng.uniform(0, 0.1 * slot_s))
        gap = int(0.8 * slot_s / bursts_per_flight)
        lat, lon = rng.uniform(-25, 5), rng.uniform(80, 100)
        speed, track = rng.randrange(380, 520) * KNOTS_TO_MPS, float(rng.randrange(0, 360))
        alt = float(rng.randrange(9000, 12500))
        channel = rng.choice("RT")
        # Outliers sit at least 3 bursts apart, so no flag window holds two.
        kinds = ["ok"] * bursts_per_flight
        slots = list(range(2, bursts_per_flight - 2, 3))
        picked = rng.sample(slots, max(1, round(OUTLIER_FRAC * bursts_per_flight)))
        for i in picked:
            kinds[i] = "outlier"
        free = [i for i in range(bursts_per_flight) if kinds[i] == "ok"]
        for i in rng.sample(free, round(DECOY_FRAC * bursts_per_flight)):
            kinds[i] = "decoy"
        t = t0
        for i in range(bursts_per_flight):
            t += rng.randrange(gap // 2, gap + gap // 2)
            state = AircraftState(GeodeticPosition(lat, lon, alt), GroundKinematics(speed, track), float(t))
            sat = satellite_state_at(float(t), tables.ephemeris)
            predicted, _ = predict_bfo(state, sat, tables.corrections, bias, cfg, slot)
            cn0 = round(CN0_BASE_DBHZ + rng.uniform(-0.3, 0.3), 1)
            ber = 0.0
            if kinds[i] == "outlier":
                err = rng.uniform(20.0, 60.0) * rng.choice((-1, 1))
                cn0 = round(cn0 - rng.uniform(6.0, 10.0), 1)
                ber = rng.randrange(1, 50) / 1000.0
                outliers.add(float(t))
            else:
                err = min(18.0, max(-28.0, rng.gauss(0.18, 4.3)))
                if kinds[i] == "decoy":
                    ber = rng.randrange(1, 50) / 1000.0
            measured = predicted - err
            states[float(t)] = state
            noise[float(t)] = err
            rows.append(_log_row(t, channel, "data", measured, ber, cn0, bto=rng.randrange(11000, 19000)))
            # Advance along the track on a local flat-earth step.
            dt = gap
            lat += speed * math.cos(math.radians(track)) * dt / 111195.0
            lon += speed * math.sin(math.radians(track)) * dt / (111195.0 * math.cos(math.radians(lat)))
        windows.append((float(t0), float(t)))
    log = directory / "log.csv"
    _write_csv(log, f"source: seeded {flights}-flight reference burst log", LOG_HEADER, rows)
    config = directory / "reference.json"
    write_config(config, "log.csv", "2014-03-07", [fmt_time(windows[0][0]), fmt_time(windows[0][1])],
                 {"lat": -38.67, "lon": 85.11, "alt": 0.0}, bias)
    out = directory / "out"
    out.mkdir(exist_ok=True)
    return ReferenceInputs(tables, config, log, out, states, noise, outliers, windows)
