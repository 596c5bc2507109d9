"""The forward-model kernel against the code it replaced, bit for bit.

The oracle below is that code: a kernel that built the aircraft's and the
terminal's ECEF velocities separately, each from its own east/north/up
axes, checked the ground speed and the total's finiteness itself, and
reduced every mask with an ``isinstance`` test against numpy's types; and
the two entry points around it. ``predict_bfo`` and ``predict_bfo_batch``
must return the same floats as the oracle, compared by ``repr`` so that
the sign of a zero counts, or raise the same exception with the same text.
Several faults may be drawn at once, so which check fires first is pinned
too.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from bfokit.bfo_model import AircraftState, BfoTerms, predict_bfo, predict_bfo_batch
from bfokit.errors import DomainError
from bfokit.geodesy import EcefVector, _east_north, _ecef_position, _enu_axes, _frame
from bfokit.satellite import SatelliteState, deterministic_correction_at, satellite_state_at
from bfokit.units import SPEED_OF_LIGHT_MPS


# --- oracle: the kernel as it was ------------------------------------------------

def oracle_any(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, (np.ndarray, np.generic)) else mask


def oracle_all(mask) -> bool:
    return bool(mask.all()) if isinstance(mask, (np.ndarray, np.generic)) else mask


def oracle_los_rate(xp, velocity, from_pos, to_pos):
    lx, ly, lz = to_pos[0] - from_pos[0], to_pos[1] - from_pos[1], to_pos[2] - from_pos[2]
    r = xp.sqrt(lx * lx + ly * ly + lz * lz)
    if oracle_any(r < 1e-6):
        raise DomainError("line-of-sight endpoints coincide")
    return (velocity[0] * lx + velocity[1] * ly + velocity[2] * lz) / r


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
    return cfg.uplink_hz / SPEED_OF_LIGHT_MPS * oracle_los_rate(
        xp, (sx - vx, sy - vy, sz - vz), position, _ecef_position(frame, altitude_m)
    )


def oracle_compensation(xp, frame, ve, vn, slot, cfg):
    return cfg.uplink_hz / SPEED_OF_LIGHT_MPS * oracle_los_rate(
        xp,
        oracle_ecef_velocity(frame, ve, vn, 0.0),
        slot.ecef,
        _ecef_position(frame, 0.0),
    )


def oracle_downlink(sat, cfg):
    return cfg.downlink_hz / SPEED_OF_LIGHT_MPS * oracle_los_rate(math, sat.velocity, sat.position, cfg.ges_ecef)


def oracle_bfo_terms(xp, lat, lon, alt, gs, track, vz, t, sat, corrections, bias_hz, cfg, slot):
    if oracle_any(gs < 0):
        raise DomainError("ground speed must be >= 0")
    frame = _frame(xp, lat, lon)
    ve, vn = _east_north(xp, gs, track)
    terms = BfoTerms(
        uplink_doppler_hz=oracle_uplink(xp, frame, alt, ve, vn, vz, sat, cfg),
        downlink_doppler_hz=oracle_downlink(sat, cfg),
        aes_compensation_hz=oracle_compensation(xp, frame, ve, vn, slot, cfg),
        sat_plus_afc_hz=deterministic_correction_at(t, corrections),
        bias_hz=bias_hz,
    )
    if not oracle_all(xp.isfinite(terms.total_hz)):
        raise DomainError("predicted BFO is not finite")
    return terms


def oracle_predict_bfo(aircraft, sat, corrections, bias_hz, cfg, slot):
    (lat, lon, alt), (gs, track, vz), t = aircraft
    terms = oracle_bfo_terms(math, lat, lon, alt, gs, track, vz, t, sat, corrections, bias_hz, cfg, slot)
    return terms.total_hz, terms


def oracle_predict_bfo_batch(lat, lon, alt, gs, track, vz, t, sat, corrections, bias_hz, cfg, slot):
    state = [np.asarray(x, dtype=float) for x in (lat, lon, alt, gs, track, vz)]
    if oracle_any(np.abs(state[0]) > 90.0):
        raise DomainError("latitude outside [-90, 90]")
    with np.errstate(invalid="ignore", over="ignore"):
        return oracle_bfo_terms(np, *state, t, sat, corrections, bias_hz, cfg, slot)


# --- comparison -------------------------------------------------------------------

def exact(x):
    """A value's type, shape and every float's ``repr``: equal only if bit-identical."""
    return type(x).__name__, np.shape(x), repr(np.asarray(x).tolist())


def outcome(call):
    try:
        result = call()
    except Exception as e:  # the type and text are what is compared
        return "raises", type(e), str(e)
    if isinstance(result, BfoTerms):  # a batch
        return "returns", [exact(x) for x in result], exact(result.total_hz)
    total, terms = result
    return "returns", [repr(x) for x in terms], repr(total)


# --- draws ------------------------------------------------------------------------

STATE = ("latitude", "longitude", "altitude", "ground_speed", "track", "vertical_rate")
COINCIDENT = ("uplink_coincides", "downlink_coincides", "compensation_coincides")

# A fault is (kind, argument): how far below zero the ground speed goes, or
# which input turns NaN or infinite.
FAULTS = st.lists(
    st.tuples(st.just("negative_speed"), st.floats(1e-3, 300.0))
    | st.tuples(st.sampled_from(["nan", "inf", "-inf"]), st.sampled_from(STATE))
    | st.tuples(st.sampled_from([*COINCIDENT, "latitude_91"]), st.none()),
    max_size=3,
    unique_by=lambda fault: fault[0],
)


def values(name):
    """Each aircraft input over its range: its edges, hypothesis's floats, and
    floats spread evenly, whose sums round as flight data's do."""
    lo, hi, edges = {
        "latitude": (-90.0, 90.0, [90.0, -90.0, 0.0]),
        "longitude": (-180.0, 180.0, [180.0, -180.0, 0.0]),
        "altitude": (0.0, 13000.0, [0.0]),
        "ground_speed": (0.0, 300.0, [0.0]),
        "track": (0.0, 360.0, [0.0, 90.0, 180.0, 270.0]),
        "vertical_rate": (-100.0, 100.0, [0.0, -0.0]),
    }[name]
    spread = st.integers(0, 2**53).map(lambda i: lo + (hi - lo) * (i / 2**53))
    return st.sampled_from(edges) | st.floats(lo, hi) | spread


def set_last(x, value):
    """``x`` with its last element set to ``value``: a float is replaced."""
    if isinstance(x, float):
        return value
    x = x.copy()
    x.flat[-1] = value
    return x


def inject(state, faults):
    """The state, a dict of floats or arrays, with the faults that are in its
    inputs applied: the ground speed set below zero everywhere, or the last
    element of one input made NaN, infinite or latitude 91."""
    for kind, arg in faults:
        if kind == "negative_speed":
            speed = state["ground_speed"]
            state["ground_speed"] = np.full(speed.shape, -arg) if isinstance(speed, np.ndarray) else -arg
        elif kind in ("nan", "inf", "-inf"):
            state[arg] = set_last(state[arg], float(kind))
        elif kind == "latitude_91":
            state["latitude"] = set_last(state["latitude"], 91.0)


def coincide(faults, sat, cfg, slot, lat, lon, alt):
    """The satellite and slot moved onto the drawn line-of-sight faults, at the
    aircraft ``lat``, ``lon``, ``alt`` (floats) for the uplink and the
    compensation, at the ground station for the downlink."""
    kinds = {kind for kind, _ in faults}
    if "uplink_coincides" in kinds:
        sat = SatelliteState(EcefVector(*_ecef_position(_frame(math, lat, lon), alt)), sat.velocity)
    if "downlink_coincides" in kinds:
        sat = SatelliteState(EcefVector(*cfg.ges_ecef), sat.velocity)
    if "compensation_coincides" in kinds:
        slot = SimpleNamespace(ecef=_ecef_position(_frame(math, lat, lon), 0.0))
    return sat, slot


def duck_aircraft(state, t):
    """An ``AircraftState`` whose position and kinematics skip their own checks,
    so that what the kernel's entry point checks is reached."""
    return AircraftState(
        (state["latitude"], state["longitude"], state["altitude"]),
        (state["ground_speed"], state["track"], state["vertical_rate"]),
        t,
    )


def drawn_time(data, ephemeris):
    lo, hi = ephemeris.span
    return data.draw(st.sampled_from([lo, hi]) | st.floats(lo, hi), label="t")


SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(data=st.data())
def test_scalar_kernel_equals_the_oracle(data, analysis_config, ephemeris, corrections):
    cfg, slot, bias = analysis_config.channel, analysis_config.slot, analysis_config.bias_hz
    t = drawn_time(data, ephemeris)
    state = {name: data.draw(values(name), label=name) for name in STATE}
    faults = data.draw(FAULTS, label="faults")
    sat, slot = coincide(faults, satellite_state_at(t, ephemeris), cfg, slot,
                         state["latitude"], state["longitude"], state["altitude"])
    inject(state, faults)
    aircraft = duck_aircraft(state, t)
    args = (sat, corrections, bias, cfg, slot)
    assert outcome(lambda: predict_bfo(aircraft, *args)) == outcome(lambda: oracle_predict_bfo(aircraft, *args))


@SETTINGS
@given(data=st.data(), shapes=mutually_broadcastable_shapes(num_shapes=len(STATE), max_dims=2, max_side=4))
def test_batch_kernel_equals_the_oracle(data, shapes, analysis_config, ephemeris, corrections):
    cfg, slot, bias = analysis_config.channel, analysis_config.slot, analysis_config.bias_hz
    t = drawn_time(data, ephemeris)
    state = {}
    for name, shape in zip(STATE, shapes.input_shapes):
        if shape == () and data.draw(st.booleans(), label=f"{name} is a float"):
            state[name] = data.draw(values(name), label=name)
        else:
            state[name] = data.draw(arrays(float, shape, elements=values(name)), label=name)
    faults = data.draw(FAULTS, label="faults")
    first = [float(np.broadcast_to(state[name], shapes.result_shape).flat[0]) for name in STATE[:3]]
    sat, slot = coincide(faults, satellite_state_at(t, ephemeris), cfg, slot, *first)
    inject(state, faults)
    args = (*state.values(), t, sat, corrections, bias, cfg, slot)
    assert outcome(lambda: predict_bfo_batch(*args)) == outcome(lambda: oracle_predict_bfo_batch(*args))
    # each element through the scalar entry point, too
    columns = [np.broadcast_to(x, shapes.result_shape).ravel().tolist() for x in state.values()]
    for row in zip(*columns):
        aircraft = duck_aircraft(dict(zip(STATE, row)), t)
        assert outcome(lambda: predict_bfo(aircraft, *args[-5:])) == outcome(
            lambda: oracle_predict_bfo(aircraft, *args[-5:])
        )


def seeded_and_still_states():
    """2,000 seeded flight states, whose sums round as real ones do, and a
    grid of still aircraft, which gives each sign a zero term can take."""
    rng = np.random.default_rng(1414)
    n = 2000
    seeded = [rng.uniform(-90.0, 90.0, n), rng.uniform(-180.0, 180.0, n), rng.uniform(0.0, 13000.0, n),
              rng.uniform(0.0, 300.0, n), rng.uniform(0.0, 360.0, n), rng.uniform(-100.0, 100.0, n)]
    still = itertools.product(
        [-90.0, -30.0, -0.0, 0.0, 30.0, 90.0], [-180.0, -90.0, -45.0, 0.0, 45.0, 90.0, 180.0], [0.0], [0.0],
        [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0], [-0.0, 0.0, 5.0],
    )
    return seeded, [np.array(column) for column in zip(*still)]


def test_seeded_and_still_states_equal_the_oracle(analysis_config, ephemeris, corrections):
    cfg, slot, bias = analysis_config.channel, analysis_config.slot, analysis_config.bias_hz
    lo, hi = ephemeris.span
    for t, state in zip((lo + 0.37 * (hi - lo), hi), seeded_and_still_states()):
        args = (t, satellite_state_at(t, ephemeris), corrections, bias, cfg, slot)
        want = outcome(lambda: oracle_predict_bfo_batch(*state, *args))
        assert want[0] == "returns"
        assert outcome(lambda: predict_bfo_batch(*state, *args)) == want
        for row in zip(*(column.tolist() for column in state)):
            aircraft = duck_aircraft(dict(zip(STATE, row)), t)
            assert outcome(lambda: predict_bfo(aircraft, *args[1:])) == outcome(
                lambda: oracle_predict_bfo(aircraft, *args[1:])
            ), row


SINGLE_FAULTS = [
    ("negative_speed", 1.0),
    *((kind, name) for kind in ("nan", "inf", "-inf") for name in STATE),
    *((kind, None) for kind in (*COINCIDENT, "latitude_91")),
]


def test_each_fault_alone_raises_as_the_oracle_does(analysis_config, ephemeris, corrections):
    """Each fault the properties draw, alone, in both entry points: so those
    properties compare raised errors, not only returned values."""
    cfg, slot, bias = analysis_config.channel, analysis_config.slot, analysis_config.bias_hz
    t = ephemeris.span[0]
    texts = set()
    for fault in SINGLE_FAULTS:
        floats = dict(zip(STATE, (-38.0, 85.0, 10000.0, 230.0, 185.0, -0.0)))
        sat, moved_slot = coincide([fault], satellite_state_at(t, ephemeris), cfg, slot, -38.0, 85.0, 10000.0)
        args = (sat, corrections, bias, cfg, moved_slot)
        batch = {name: np.full(2, x) for name, x in floats.items()}
        inject(floats, [fault])
        inject(batch, [fault])
        aircraft = duck_aircraft(floats, t)
        got = outcome(lambda: predict_bfo(aircraft, *args))
        assert got == outcome(lambda: oracle_predict_bfo(aircraft, *args)), fault
        got_batch = outcome(lambda: predict_bfo_batch(*batch.values(), t, *args))
        assert got_batch == outcome(lambda: oracle_predict_bfo_batch(*batch.values(), t, *args)), fault
        assert got_batch[0] == "raises", fault
        texts.update(o[1:] if o[0] == "raises" else ("returns",) for o in (got, got_batch))
    assert texts == {
        (ValueError, "math domain error"),  # math.sin of an infinite angle
        (DomainError, "ground speed must be >= 0"),
        (DomainError, "predicted BFO is not finite"),
        (DomainError, "line-of-sight endpoints coincide"),
        (DomainError, "latitude outside [-90, 90]"),
        ("returns",),  # latitude 91 through predict_bfo, which leaves it to GeodeticPosition
    }
