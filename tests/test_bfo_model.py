import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfokit.bfo_model import (
    AircraftState,
    BfoTerms,
    ChannelConfig,
    calibrate_bias,
    descent_sensitivity,
    predict_bfo,
    vertical_doppler,
)
from bfokit.errors import DomainError
from bfokit.geodesy import (
    EcefVector,
    GeodeticPosition,
    GroundKinematics,
    elevation_angle,
    geodetic_to_ecef,
    kinematics_to_ecef_velocity,
)
from bfokit.satellite import (
    CorrectionTable,
    EphemerisTable,
    NominalSlot,
    SatelliteState,
    nominal_satellite_position,
    satellite_state_at,
)
from bfokit.stats import BfoMeasurement, Channel, MessageType
from bfokit.units import SPEED_OF_LIGHT_MPS

CFG = ChannelConfig()
SLOT = NominalSlot()
F_OVER_C = CFG.uplink_hz / SPEED_OF_LIGHT_MPS  # ~5.4926 Hz per m/s

STATIC = GroundKinematics(0.0, 0.0, 0.0)


def aircraft(lat=0.0, lon=0.0, alt=0.0, gs=0.0, track=0.0, vz=0.0, t=0.0):
    return AircraftState(
        GeodeticPosition(lat, lon, alt), GroundKinematics(gs, track, vz), t
    )


def unit(start, end) -> EcefVector:
    """The unit vector from ``start`` to ``end``."""
    return EcefVector(*(np.subtract(end, start) * (1.0 / math.dist(start, end))))


def terms(state, sat, cfg=CFG) -> BfoTerms:
    """The terms of ``state``'s predicted BFO, with zero correction and bias."""
    return predict_bfo(state, sat, flat_corrections(), 0.0, cfg, SLOT)[1]


class TestUplinkDoppler:
    def test_zero_relative_velocity(self):
        state = aircraft(lat=10.0, lon=30.0, alt=10000.0, gs=200.0, track=45.0)
        v_x = kinematics_to_ecef_velocity(state.position, state.kinematics)
        sat = SatelliteState(nominal_satellite_position(SLOT), v_x)
        assert terms(state, sat).uplink_doppler_hz == pytest.approx(0.0, abs=1e-12)

    def test_receding_satellite_one_mps(self):
        # satellite moving directly away from a static aircraft: range
        # opening, negative shift of F_up/c per m/s
        state = aircraft()
        p_x = geodetic_to_ecef(state.position)
        p_s = nominal_satellite_position(SLOT)
        sat = SatelliteState(p_s, unit(p_x, p_s))
        assert terms(state, sat).uplink_doppler_hz == pytest.approx(-F_OVER_C, rel=1e-12)

    def test_approaching_satellite_one_mps(self):
        state = aircraft()
        p_x = geodetic_to_ecef(state.position)
        p_s = nominal_satellite_position(SLOT)
        sat = SatelliteState(p_s, unit(p_s, p_x))
        assert terms(state, sat).uplink_doppler_hz == pytest.approx(F_OVER_C, rel=1e-12)

    def test_climb_directly_beneath_satellite(self):
        # 100 fpm climb under a static satellite raises the BFO ~2.8 Hz
        state = aircraft(vz=0.508)
        sat = SatelliteState(EcefVector(42164169.0, 0.0, 0.0), EcefVector(0.0, 0.0, 0.0))
        shift = terms(state, sat).uplink_doppler_hz
        assert 2.75 <= shift <= 2.85

    def test_sign_flips_with_negated_relative_velocity(self):
        rng = np.random.default_rng(2)
        p_s = nominal_satellite_position(SLOT)
        for _ in range(50):
            state = aircraft(
                lat=rng.uniform(-60, 60),
                lon=rng.uniform(-170, 170),
                alt=rng.uniform(0, 12000),
                gs=rng.uniform(0, 280),
                track=rng.uniform(0, 360),
                vz=rng.uniform(-50, 50),
            )
            v_x = kinematics_to_ecef_velocity(state.position, state.kinematics)
            v_s = rng.uniform(-80, 80, 3)
            plus = terms(state, SatelliteState(p_s, EcefVector(*v_s))).uplink_doppler_hz
            # same aircraft with v_s' = 2 v_x - v_s gives v_s' - v_x = -(v_s - v_x)
            v_s_mirror = EcefVector(*(2.0 * np.array(v_x) - v_s))
            minus = terms(state, SatelliteState(p_s, v_s_mirror)).uplink_doppler_hz
            assert minus == pytest.approx(-plus, abs=1e-9)

    def test_coincident_positions_rejected(self):
        state = aircraft()
        sat = SatelliteState(geodetic_to_ecef(state.position), EcefVector(0, 0, 0))
        with pytest.raises(DomainError):
            terms(state, sat)


STATIC_SAT = SatelliteState(nominal_satellite_position(SLOT), EcefVector(0.0, 0.0, 0.0))


class TestAesCompensation:
    def test_zero_ground_speed(self):
        assert terms(aircraft(lat=-30.0, lon=100.0, alt=9000.0), STATIC_SAT).aes_compensation_hz == 0.0

    def test_vertical_rate_ignored(self):
        a = aircraft(lat=-20.0, lon=90.0, alt=10000.0, gs=230.0, track=200.0, vz=0.0)
        b = aircraft(lat=-20.0, lon=90.0, alt=10000.0, gs=230.0, track=200.0, vz=-50.0)
        assert terms(a, STATIC_SAT).aes_compensation_hz == terms(b, STATIC_SAT).aes_compensation_hz

    def test_perfect_knowledge_cancellation(self):
        # satellite exactly at the nominal slot with zero velocity,
        # aircraft at sea level in level flight: compensation cancels the
        # uplink Doppler for any position, track and speed
        rng = np.random.default_rng(17)
        for _ in range(2000):
            state = aircraft(
                lat=rng.uniform(-75, 75),
                lon=rng.uniform(-179, 180),
                alt=0.0,
                gs=rng.uniform(0, 300),
                track=rng.uniform(0, 360),
                vz=0.0,
            )
            parts = terms(state, STATIC_SAT)
            total = parts.uplink_doppler_hz + parts.aes_compensation_hz
            assert abs(total) < 1e-9


class TestDownlinkDoppler:
    def test_static_satellite(self):
        assert terms(aircraft(), STATIC_SAT).downlink_doppler_hz == 0.0

    def test_receding_from_ges_at_1p5_ghz(self):
        cfg = ChannelConfig(downlink_hz=1.5e9)
        p_ges = geodetic_to_ecef(cfg.ges_position)
        p_s = nominal_satellite_position(SLOT)
        sat = SatelliteState(p_s, unit(p_ges, p_s))
        downlink = terms(aircraft(), sat, cfg).downlink_doppler_hz
        assert downlink == pytest.approx(-5.0029, abs=0.01)
        assert downlink == pytest.approx(-1.5e9 / SPEED_OF_LIGHT_MPS, rel=1e-12)

    def test_odd_in_satellite_velocity(self):
        rng = np.random.default_rng(4)
        p_s = nominal_satellite_position(SLOT)
        for _ in range(50):
            v = rng.uniform(-90, 90, 3)
            plus = terms(aircraft(), SatelliteState(p_s, EcefVector(*v))).downlink_doppler_hz
            minus = terms(aircraft(), SatelliteState(p_s, EcefVector(*(-1.0 * v)))).downlink_doppler_hz
            assert minus == pytest.approx(-plus, abs=1e-12)


def flat_corrections(value=0.0, t0=-86400.0, t1=86400.0):
    return CorrectionTable([t0, t1], [value, value])


class TestPredictBfo:
    def test_static_world_zero(self):
        sat = SatelliteState(nominal_satellite_position(SLOT), EcefVector(0, 0, 0))
        total, terms = predict_bfo(aircraft(), sat, flat_corrections(0.0), 0.0, CFG, SLOT)
        assert total == 0.0
        assert terms._asdict() == {k: 0.0 for k in terms._fields}

    def test_terms_sum(self):
        terms = BfoTerms(10.0, 5.0, -3.0, 2.0, 150.0)
        assert terms.total_hz == 164.0

    def test_total_equals_term_sum_exactly(self):
        sat = SatelliteState(
            EcefVector(*np.add(nominal_satellite_position(SLOT), (5e5, -3e5, 8e5))),
            EcefVector(12.0, -7.0, 55.0),
        )
        state = aircraft(lat=-35.0, lon=92.0, alt=10700.0, gs=240.0, track=190.0, vz=-20.0, t=100.0)
        total, terms = predict_bfo(state, sat, flat_corrections(14.2), 150.5, CFG, SLOT)
        assert total == terms.total_hz

    def test_linear_in_bias_with_unit_slope(self):
        sat = SatelliteState(
            EcefVector(*np.add(nominal_satellite_position(SLOT), (2e5, 1e5, 9e5))),
            EcefVector(3.0, 1.0, -40.0),
        )
        state = aircraft(lat=10.0, lon=80.0, alt=11000.0, gs=200.0, track=70.0, t=0.0)
        base, _ = predict_bfo(state, sat, flat_corrections(5.0), 0.0, CFG, SLOT)
        for bias in (-120.0, 0.0, 57.25, 233.6):
            total, _ = predict_bfo(state, sat, flat_corrections(5.0), bias, CFG, SLOT)
            assert total == pytest.approx(base + bias, abs=1e-9)

    def test_against_independently_scripted_evaluation(self):
        """Second, self-contained numpy evaluation of the model equations."""

        def oracle(state, sat_pos, sat_vel, corr, bias, cfg, slot):
            a, f = 6378137.0, 1.0 / 298.257223563
            e2 = f * (2.0 - f)

            def lla2ecef(lat, lon, h):
                lat, lon = np.radians(lat), np.radians(lon)
                n = a / np.sqrt(1.0 - e2 * np.sin(lat) ** 2)
                return np.array(
                    [
                        (n + h) * np.cos(lat) * np.cos(lon),
                        (n + h) * np.cos(lat) * np.sin(lon),
                        (n * (1.0 - e2) + h) * np.sin(lat),
                    ]
                )

            def enu(lat, lon):
                lat, lon = np.radians(lat), np.radians(lon)
                e = np.array([-np.sin(lon), np.cos(lon), 0.0])
                n = np.array(
                    [-np.sin(lat) * np.cos(lon), -np.sin(lat) * np.sin(lon), np.cos(lat)]
                )
                u = np.array(
                    [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)]
                )
                return e, n, u

            lat, lon = state.position.latitude_deg, state.position.longitude_deg
            p_x = lla2ecef(lat, lon, state.position.altitude_m)
            e, n, u = enu(lat, lon)
            k = state.kinematics
            tr = np.radians(k.track_angle_deg)
            v_x = k.ground_speed_mps * (np.sin(tr) * e + np.cos(tr) * n) + k.vertical_rate_mps * u

            los = p_x - sat_pos
            up = cfg.uplink_hz / SPEED_OF_LIGHT_MPS * np.dot(sat_vel - v_x, los) / np.linalg.norm(los)

            p_hat = lla2ecef(lat, lon, 0.0)
            v_hat = k.ground_speed_mps * (np.sin(tr) * e + np.cos(tr) * n)
            s_hat = np.array(
                [
                    slot.radius_m * np.cos(np.radians(slot.longitude_deg)),
                    slot.radius_m * np.sin(np.radians(slot.longitude_deg)),
                    0.0,
                ]
            )
            los_hat = p_hat - s_hat
            comp = cfg.uplink_hz / SPEED_OF_LIGHT_MPS * np.dot(v_hat, los_hat) / np.linalg.norm(los_hat)

            p_ges = lla2ecef(
                cfg.ges_position.latitude_deg,
                cfg.ges_position.longitude_deg,
                cfg.ges_position.altitude_m,
            )
            los_d = p_ges - sat_pos
            down = cfg.downlink_hz / SPEED_OF_LIGHT_MPS * np.dot(sat_vel, los_d) / np.linalg.norm(los_d)
            return up + down + comp + corr + bias

        rng = np.random.default_rng(29)
        for _ in range(100):
            state = aircraft(
                lat=rng.uniform(-60, 60),
                lon=rng.uniform(-179, 180),
                alt=rng.uniform(0, 12000),
                gs=rng.uniform(0, 280),
                track=rng.uniform(0, 360),
                vz=rng.uniform(-60, 60),
                t=0.0,
            )
            sat_pos = np.array(nominal_satellite_position(SLOT)) + rng.uniform(
                -8e5, 8e5, 3
            )
            sat_vel = rng.uniform(-90, 90, 3)
            corr, bias = rng.uniform(-30, 30), rng.uniform(-200, 200)
            sat = SatelliteState(EcefVector(*sat_pos), EcefVector(*sat_vel))
            total, _ = predict_bfo(state, sat, flat_corrections(corr), bias, CFG, SLOT)
            want = oracle(state, sat_pos, sat_vel, corr, bias, CFG, SLOT)
            assert total == pytest.approx(want, abs=1e-6)


def wrap_longitude(lon: float) -> float:
    """``lon`` in (-180, 180]."""
    lon = math.remainder(lon, 360.0)
    return 180.0 if lon == -180.0 else lon


class TestRotationLaw:
    """Every term depends only on relative geometry (Ashton et al. 2015), so
    turning the whole scene about the Earth's axis leaves the BFO alone."""

    @settings(max_examples=150, deadline=None)
    @given(
        angle=st.floats(-360.0, 360.0),
        lat=st.floats(-90.0, 90.0),
        lon=st.floats(-180.0, 180.0, exclude_min=True),
        alt=st.floats(0.0, 13000.0),
        gs=st.floats(0.0, 300.0),
        track=st.floats(0.0, 360.0, exclude_max=True),
        vz=st.floats(-100.0, 100.0),
        ges=st.tuples(st.floats(-80.0, 80.0), st.floats(-180.0, 180.0, exclude_min=True), st.floats(0.0, 500.0)),
        slot_lon=st.floats(-180.0, 180.0),
        when=st.floats(0.0, 1.0),
    )
    def test_turning_the_scene_about_the_z_axis_keeps_the_bfo(
        self, analysis_config, ephemeris, corrections, angle, lat, lon, alt, gs, track, vz, ges, slot_lon, when
    ):
        lo, hi = ephemeris.span
        t = lo + when * (hi - lo)
        sat = satellite_state_at(t, ephemeris)
        cfg = analysis_config.channel._replace(ges_position=GeodeticPosition(*ges))
        slot = NominalSlot(longitude_deg=slot_lon)
        kinematics = GroundKinematics(gs, track, vz)
        c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))

        def turned(v):
            return EcefVector(v.x * c - v.y * s, v.x * s + v.y * c, v.z)

        before = predict_bfo(
            AircraftState(GeodeticPosition(lat, lon, alt), kinematics, t),
            sat, corrections, analysis_config.bias_hz, cfg, slot,
        )
        after = predict_bfo(
            AircraftState(GeodeticPosition(lat, wrap_longitude(lon + angle), alt), kinematics, t),
            SatelliteState(turned(sat.position), turned(sat.velocity)),
            corrections,
            analysis_config.bias_hz,
            cfg._replace(ges_position=GeodeticPosition(ges[0], wrap_longitude(ges[1] + angle), ges[2])),
            slot._replace(longitude_deg=slot_lon + angle),
        )
        assert after[0] == pytest.approx(before[0], abs=1e-9)
        assert list(after[1]) == pytest.approx(list(before[1]), abs=1e-9)


class TestOneGeometry:
    """The forward-model kernel and the scalar geodesy API describe one
    geometry: what a vertical rate adds to the uplink Doppler is the
    vertical Doppler at the satellite's elevation, the sensitivity that
    Holland 2017 turns into a descent rate."""

    @settings(max_examples=100, deadline=None)
    @given(
        lat=st.floats(-90.0, 90.0),
        lon=st.floats(-180.0, 180.0, exclude_min=True),
        alt=st.floats(0.0, 13000.0),
        gs=st.floats(0.0, 300.0),
        track=st.floats(0.0, 360.0, exclude_max=True),
        w=st.floats(-100.0, 100.0),
        when=st.floats(0.0, 1.0),
    )
    def test_vertical_part_of_the_uplink_is_the_vertical_doppler_at_the_elevation(
        self, analysis_config, ephemeris, corrections, lat, lon, alt, gs, track, w, when
    ):
        lo, hi = ephemeris.span
        t = lo + when * (hi - lo)
        sat = satellite_state_at(t, ephemeris)
        position, cfg = GeodeticPosition(lat, lon, alt), analysis_config.channel

        def uplink(vz):
            state = AircraftState(position, GroundKinematics(gs, track, vz), t)
            return predict_bfo(state, sat, corrections, 0.0, cfg, analysis_config.slot)[1].uplink_doppler_hz

        want = vertical_doppler(w, elevation_angle(position, sat.position), cfg)
        assert uplink(w) - uplink(0.0) == pytest.approx(want, abs=1e-9)


class TestVerticalDoppler:
    def test_100fpm_climb_at_zenith(self):
        assert vertical_doppler(0.508, 90.0, CFG) == pytest.approx(2.8, abs=0.05)

    def test_100fpm_descent_at_38_8_deg(self):
        assert vertical_doppler(-0.508, 38.8, CFG) == pytest.approx(-1.7, abs=0.05)

    def test_zero_rate(self):
        assert vertical_doppler(0.0, 45.0, CFG) == 0.0

    def test_odd_in_vz(self):
        for vz in (0.1, 1.0, 7.5):
            assert vertical_doppler(-vz, 38.8, CFG) == -vertical_doppler(vz, 38.8, CFG)

    def test_monotonic_in_elevation(self):
        values = [vertical_doppler(1.0, e, CFG) for e in np.linspace(0.0, 90.0, 91)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDescentSensitivity:
    def test_zenith(self):
        assert 2.75 <= descent_sensitivity(90.0, CFG) <= 2.85

    def test_38_8_degrees(self):
        assert 1.70 <= descent_sensitivity(38.8, CFG) <= 1.80

    def test_horizon(self):
        assert descent_sensitivity(0.0, CFG) == pytest.approx(0.0, abs=1e-12)


def static_geo_table(t0=-3600.0, t1=86400.0):
    p = nominal_satellite_position(SLOT)
    return EphemerisTable([t0, t1], [p, p], [[0, 0, 0], [0, 0, 0]])


def measurement(t, bfo):
    return BfoMeasurement(t, Channel.R, MessageType.DATA, bfo, cn0_dbhz=41.7)


class TestCalibrateBias:
    def test_single_measurement(self):
        table = static_geo_table()
        corr = flat_corrections(0.0)
        state = aircraft(lat=2.7, lon=101.7, t=0.0)
        predicted, _ = predict_bfo(
            state, SatelliteState(nominal_satellite_position(SLOT), EcefVector(0, 0, 0)),
            corr, 0.0, CFG, SLOT,
        )
        bias = calibrate_bias([(measurement(0.0, predicted + 150.0), state)], table, corr, CFG, SLOT)
        assert bias == pytest.approx(150.0, abs=1e-9)

    def test_duplicates_match_single(self):
        table = static_geo_table()
        corr = flat_corrections(3.0)
        state = aircraft(lat=2.7, lon=101.7, t=10.0)
        m = measurement(10.0, 250.0)
        single = calibrate_bias([(m, state)], table, corr, CFG, SLOT)
        triple = calibrate_bias([(m, state)] * 3, table, corr, CFG, SLOT)
        assert triple == pytest.approx(single, abs=1e-12)

    def test_recovers_injected_bias(self):
        injected = 77.7125
        model_table = static_geo_table()
        corr = flat_corrections(-12.5)
        pairs = []
        for i, t in enumerate((0.0, 300.0, 900.0, 1800.0)):
            state = aircraft(lat=2.7456, lon=101.7099, alt=21.0, t=t)
            sat = SatelliteState(nominal_satellite_position(SLOT), EcefVector(0, 0, 0))
            predicted, _ = predict_bfo(state, sat, corr, injected, CFG, SLOT)
            pairs.append((measurement(t, predicted), state))
        recovered = calibrate_bias(pairs, model_table, corr, CFG, SLOT)
        assert abs(recovered - injected) < 0.01

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            calibrate_bias([], static_geo_table(), flat_corrections(), CFG, SLOT)
