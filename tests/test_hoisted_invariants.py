"""The forward model with its per-config invariants held once, against the
code that recomputed them for every burst.

``ChannelConfig.ges_ecef`` and ``NominalSlot.ecef`` are computed once per
instance. The oracle below is the kernel as it was before: the ground
station's and the nominal slot's ECEF positions recomputed on every call.
Scalar and batch predictions must equal it exactly, term by term.
"""

import math

import numpy as np
import pytest

from bfokit.bfo_model import (
    AircraftState,
    BfoTerms,
    ChannelConfig,
    _los_rate,
    predict_bfo,
    predict_bfo_batch,
)
from bfokit.geodesy import (
    GeodeticPosition,
    GroundKinematics,
    _east_north,
    _ecef_position,
    _enu_axes,
    _frame,
)
from bfokit.satellite import (
    NominalSlot,
    deterministic_correction_at,
    nominal_satellite_position,
    satellite_state_at,
)
from bfokit.units import SPEED_OF_LIGHT_MPS

TERMS = ("uplink_doppler_hz", "downlink_doppler_hz", "aes_compensation_hz", "sat_plus_afc_hz", "bias_hz")


# --- oracle: both fixed positions recomputed on every call ----------------------

def oracle_ecef_velocity(frame, east, north, up):
    """ECEF (x, y, z) of the local vector with components (east, north, up)."""
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = _enu_axes(frame)
    return (
        east * ex + north * nx + up * ux,
        east * ey + north * ny + up * uy,
        east * ez + north * nz + up * uz,
    )


def oracle_uplink(xp, frame, altitude_m, ve, vn, vertical_rate_mps, sat, cfg):
    vx, vy, vz = oracle_ecef_velocity(frame, ve, vn, vertical_rate_mps)
    position, (sx, sy, sz) = sat
    return cfg.uplink_hz / SPEED_OF_LIGHT_MPS * _los_rate(
        xp, (sx - vx, sy - vy, sz - vz), position, _ecef_position(frame, altitude_m)
    )


def oracle_compensation(xp, frame, ve, vn, slot, cfg):
    return cfg.uplink_hz / SPEED_OF_LIGHT_MPS * _los_rate(
        xp,
        oracle_ecef_velocity(frame, ve, vn, 0.0),
        tuple(nominal_satellite_position(slot)),
        _ecef_position(frame, 0.0),
    )


def oracle_downlink(sat, cfg):
    g = cfg.ges_position
    p_ges = _ecef_position(_frame(math, g.latitude_deg, g.longitude_deg), g.altitude_m)
    return cfg.downlink_hz / SPEED_OF_LIGHT_MPS * _los_rate(
        math, tuple(sat.velocity), tuple(sat.position), p_ges
    )


def oracle_terms(xp, lat, lon, alt, gs, track, vz, t, sat, corrections, bias_hz, cfg, slot):
    frame = _frame(xp, lat, lon)
    ve, vn = _east_north(xp, gs, track)
    return BfoTerms(
        uplink_doppler_hz=oracle_uplink(xp, frame, alt, ve, vn, vz, sat, cfg),
        downlink_doppler_hz=oracle_downlink(sat, cfg),
        aes_compensation_hz=oracle_compensation(xp, frame, ve, vn, slot, cfg),
        sat_plus_afc_hz=deterministic_correction_at(t, corrections),
        bias_hz=bias_hz,
    )


# --- seeded states ------------------------------------------------------------

MOVED_GES = GeodeticPosition(51.5, -0.1, 50.0)
OTHER_SLOTS = [NominalSlot(longitude_deg=-15.5), NominalSlot(longitude_deg=143.5, latitude_deg=1.2)]


def channels_and_slots(analysis_config):
    cfg, slot = analysis_config.channel, analysis_config.slot
    moved = cfg._replace(ges_position=MOVED_GES)
    return [(cfg, slot), (moved, slot), *((cfg, other) for other in OTHER_SLOTS)]


def random_states(rng, n):
    return [
        rng.uniform(-80.0, 80.0, n),
        rng.uniform(-179.9, 180.0, n),
        rng.uniform(0.0, 13000.0, n),
        rng.uniform(0.0, 300.0, n),
        rng.uniform(0.0, 360.0, n),
        rng.uniform(-100.0, 100.0, n),
    ]


TIMES, PER_TIME = 25, 40  # 10^3 states per (config, slot) pair


def test_scalar_and_batch_equal_the_unhoisted_kernel(analysis_config, ephemeris, corrections):
    bias = analysis_config.bias_hz
    rng = np.random.default_rng(1702)
    lo, hi = ephemeris.span
    checked = 0
    for cfg, slot in channels_and_slots(analysis_config):
        for t in rng.uniform(lo, hi, TIMES).tolist():
            sat = satellite_state_at(t, ephemeris)
            state = random_states(rng, PER_TIME)
            with np.errstate(invalid="ignore", over="ignore"):
                want_batch = oracle_terms(np, *state, t, sat, corrections, bias, cfg, slot)._asdict()
            got_batch = predict_bfo_batch(*state, t, sat, corrections, bias, cfg, slot)._asdict()
            for name in TERMS:
                assert np.array_equal(got_batch[name], want_batch[name]), name
            for lat, lon, alt, gs, track, vz in zip(*(column.tolist() for column in state)):
                aircraft = AircraftState(GeodeticPosition(lat, lon, alt), GroundKinematics(gs, track, vz), t)
                total, terms = predict_bfo(aircraft, sat, corrections, bias, cfg, slot)
                want = oracle_terms(math, lat, lon, alt, gs, track, vz, t, sat, corrections, bias, cfg, slot)
                assert terms == want
                assert total == want.total_hz
                checked += 1
    assert checked == 4 * TIMES * PER_TIME


def test_each_instance_holds_its_own_positions(analysis_config):
    cfg, slot = analysis_config.channel, analysis_config.slot
    cached = cfg.ges_ecef, slot.ecef  # computed before the copies below exist
    moved = cfg._replace(ges_position=MOVED_GES)
    assert moved.ges_ecef == _ecef_position(_frame(math, 51.5, -0.1), 50.0)
    assert moved.ges_ecef != cached[0]
    assert cfg._replace(uplink_hz=1.6e9).ges_ecef == cached[0]
    for other in [*OTHER_SLOTS, slot._replace(radius_m=slot.radius_m + 1e3)]:
        assert other.ecef == tuple(nominal_satellite_position(other))
        assert other.ecef != cached[1]
    assert (cfg.ges_ecef, slot.ecef) == cached


@pytest.mark.parametrize("make, held", [(ChannelConfig, "ges_ecef"), (NominalSlot, "ecef")])
def test_held_positions_leave_equality_hash_and_repr_alone(make, held):
    fresh, used = make(), make()
    getattr(used, held)
    assert held in vars(used) and held not in vars(fresh)
    assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
