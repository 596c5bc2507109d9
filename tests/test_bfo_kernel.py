"""The forward-model kernel against an independent scalar oracle.

The oracle is the vector-object formulation of the five-term BFO model
(uplink Doppler, downlink Doppler, terminal compensation, correction,
bias) written with ``EcefVector`` arithmetic. ``predict_bfo`` (floats)
and ``predict_bfo_batch`` (arrays) must agree with it term by term.
"""


import numpy as np
import pytest

from bfokit.bfo_model import (
    AircraftState,
    ChannelConfig,
    predict_bfo,
    predict_bfo_batch,
)
from bfokit.errors import DomainError
from bfokit.geodesy import (
    EcefVector,
    GeodeticPosition,
    GroundKinematics,
    geodetic_to_ecef,
    kinematics_to_ecef_velocity,
)
from bfokit.satellite import (
    CorrectionTable,
    NominalSlot,
    SatelliteState,
    deterministic_correction_at,
    nominal_satellite_position,
    satellite_state_at,
)
from bfokit.track_sweep import bfo_error_vs_track
from bfokit.units import SPEED_OF_LIGHT_MPS

TOL_HZ = 1e-9
TERMS = ("uplink_doppler_hz", "downlink_doppler_hz", "aes_compensation_hz", "sat_plus_afc_hz", "bias_hz")


# --- oracle -----------------------------------------------------------------

def _los_projection(velocity, from_pos, to_pos):
    los = to_pos - from_pos
    r = los.norm()
    if r < 1e-6:
        raise DomainError("line-of-sight endpoints coincide")
    return velocity.dot(los) / r


def oracle_terms(aircraft, sat, corrections, bias_hz, cfg, slot) -> dict[str, float]:
    f_up = cfg.uplink_hz / SPEED_OF_LIGHT_MPS
    p_x = geodetic_to_ecef(aircraft.position)
    v_x = kinematics_to_ecef_velocity(aircraft.position, aircraft.kinematics)
    uplink = f_up * _los_projection(sat.velocity - v_x, sat.position, p_x)

    v_hat = kinematics_to_ecef_velocity(
        aircraft.position, aircraft.kinematics._replace(vertical_rate_mps=0.0)
    )
    p_hat = geodetic_to_ecef(aircraft.position._replace(altitude_m=0.0))
    compensation = f_up * _los_projection(v_hat, nominal_satellite_position(slot), p_hat)

    p_ges = geodetic_to_ecef(cfg.ges_position)
    downlink = cfg.downlink_hz / SPEED_OF_LIGHT_MPS * _los_projection(
        sat.velocity, sat.position, p_ges
    )
    return {
        "uplink_doppler_hz": uplink,
        "downlink_doppler_hz": downlink,
        "aes_compensation_hz": compensation,
        "sat_plus_afc_hz": deterministic_correction_at(aircraft.timestamp, corrections),
        "bias_hz": bias_hz,
    }


# --- property: 10^4 random states --------------------------------------------

TIMES, PER_TIME = 100, 100  # 10^4 states, 100 per shared time


def random_states(rng, n):
    return {
        "lat": rng.uniform(-80.0, 80.0, n),
        "lon": rng.uniform(-179.9, 180.0, n),
        "alt": rng.uniform(0.0, 13000.0, n),
        "gs": rng.uniform(0.0, 300.0, n),
        "track": rng.uniform(0.0, 360.0, n),
        "vz": rng.uniform(-100.0, 100.0, n),
    }


def test_scalar_and_batch_agree_with_oracle(analysis_config, ephemeris, corrections):
    cfg, slot, bias = analysis_config.channel, analysis_config.slot, analysis_config.bias_hz
    rng = np.random.default_rng(2017)
    lo, hi = ephemeris.span
    worst_scalar = worst_batch = 0.0
    checked = 0
    for t in rng.uniform(lo, hi, TIMES).tolist():
        sat = satellite_state_at(t, ephemeris)
        s = random_states(rng, PER_TIME)
        batch_terms = predict_bfo_batch(
            s["lat"], s["lon"], s["alt"], s["gs"], s["track"], s["vz"], t, sat, corrections, bias, cfg, slot
        ).as_dict()
        for i in range(PER_TIME):
            state = AircraftState(
                GeodeticPosition(float(s["lat"][i]), float(s["lon"][i]), float(s["alt"][i])),
                GroundKinematics(float(s["gs"][i]), float(s["track"][i]), float(s["vz"][i])),
                t,
            )
            want = oracle_terms(state, sat, corrections, bias, cfg, slot)
            total, terms = predict_bfo(state, sat, corrections, bias, cfg, slot)
            got = terms.as_dict()
            assert total == terms.total_hz
            for name in TERMS:
                worst_scalar = max(worst_scalar, abs(got[name] - want[name]))
                worst_batch = max(worst_batch, abs(np.broadcast_to(batch_terms[name], PER_TIME)[i] - want[name]))
            checked += 1
    assert checked == 10_000
    assert worst_scalar <= TOL_HZ
    assert worst_batch <= TOL_HZ


def test_term_functions_match_oracle(analysis_config, ephemeris, corrections):
    cfg, slot = analysis_config.channel, analysis_config.slot
    rng = np.random.default_rng(1702)
    lo, hi = ephemeris.span
    for _ in range(200):
        t = float(rng.uniform(lo, hi))
        sat = satellite_state_at(t, ephemeris)
        state = AircraftState(
            GeodeticPosition(rng.uniform(-80, 80), rng.uniform(-179, 180), rng.uniform(0, 13000)),
            GroundKinematics(rng.uniform(0, 300), rng.uniform(0, 360), rng.uniform(-100, 100)),
            t,
        )
        want = oracle_terms(state, sat, corrections, 0.0, cfg, slot)
        terms = predict_bfo(state, sat, corrections, 0.0, cfg, slot)[1]
        assert abs(terms.uplink_doppler_hz - want["uplink_doppler_hz"]) <= TOL_HZ
        assert abs(terms.aes_compensation_hz - want["aes_compensation_hz"]) <= TOL_HZ
        assert abs(terms.downlink_doppler_hz - want["downlink_doppler_hz"]) <= TOL_HZ


def test_track_sweep_is_the_scalar_model_per_angle(analysis_config, ephemeris, corrections):
    cfg = analysis_config
    t = cfg.parse_time("00:11Z")
    curve = bfo_error_vs_track(
        cfg.arc_crossing, t, 240.0, 252.0, ephemeris, corrections, cfg.bias_hz, cfg.channel, cfg.slot, 0.5
    )
    sat = satellite_state_at(t, ephemeris)
    tracks, errors = curve
    assert len(tracks) == len(errors) == 721
    for track, error in zip(tracks.tolist(), errors.tolist()):
        state = AircraftState(cfg.arc_crossing, GroundKinematics(240.0, track % 360.0, 0.0), t)
        want = sum(oracle_terms(state, sat, corrections, cfg.bias_hz, cfg.channel, cfg.slot).values())
        assert abs(error - (want - 252.0)) <= TOL_HZ


# --- the batch fails where the scalar path fails ------------------------------

CFG = ChannelConfig()


def flat_corrections(value=0.0):
    return CorrectionTable([-86400.0, 86400.0], [value, value])


def batch(sat, lat=10.0, lon=80.0, alt=0.0, gs=200.0, track=45.0, vz=0.0, bias=0.0):
    return predict_bfo_batch(lat, lon, alt, gs, track, vz, 0.0, sat, flat_corrections(), bias, CFG)


def scalar(sat, lat=10.0, lon=80.0, alt=0.0, gs=200.0, track=45.0, vz=0.0, bias=0.0):
    state = AircraftState(GeodeticPosition(lat, lon, alt), GroundKinematics(gs, track, vz), 0.0)
    return predict_bfo(state, sat, flat_corrections(), bias, CFG)


GEO_SAT = SatelliteState(nominal_satellite_position(NominalSlot()), EcefVector(1.0, -2.0, 3.0))


def test_coincident_line_of_sight_rejected():
    on_aircraft = SatelliteState(geodetic_to_ecef(GeodeticPosition(10.0, 80.0, 0.0)), EcefVector(0, 0, 0))
    with pytest.raises(DomainError):
        scalar(on_aircraft)
    with pytest.raises(DomainError):
        batch(on_aircraft)
    with pytest.raises(DomainError):  # one coincident element is enough
        batch(on_aircraft, lat=np.array([-20.0, 10.0]))


def test_negative_ground_speed_rejected():
    with pytest.raises(DomainError):
        scalar(GEO_SAT, gs=-1.0)
    with pytest.raises(DomainError):
        batch(GEO_SAT, gs=np.array([200.0, -1.0, 150.0]))


@pytest.mark.parametrize("field", ["alt", "gs", "track", "vz", "bias"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(field, bad):
    with pytest.raises(DomainError):
        scalar(GEO_SAT, **{field: bad})
    values = np.array([1.0, bad, 2.0]) if field != "bias" else bad
    with pytest.raises(DomainError):
        batch(GEO_SAT, **{field: values})


def test_latitude_outside_range_rejected():
    with pytest.raises(DomainError):
        batch(GEO_SAT, lat=np.array([0.0, 91.0]))


def test_batch_terms_broadcast():
    terms = batch(GEO_SAT, track=np.arange(0.0, 360.0, 90.0), gs=np.array([[0.0], [250.0]]))
    assert np.shape(terms.total_hz) == (2, 4)
    assert np.shape(terms.uplink_doppler_hz) == (2, 4)
    assert np.ndim(terms.downlink_doppler_hz) == 0
