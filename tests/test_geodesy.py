import math

import numpy as np
import pytest

from bfokit.errors import DomainError
from bfokit.geodesy import (
    WGS84_A,
    WGS84_B,
    WGS84_E2,
    WGS84_F,
    EcefVector,
    GeodeticPosition,
    GroundKinematics,
    _enu_axes,
    _frame,
    elevation_angle,
    geodetic_to_ecef,
    kinematics_to_ecef_velocity,
)
from bfokit.ingest import parse_time_utc
from bfokit.satellite import satellite_state_at


def oracle_geodetic_to_ecef(lat_deg, lon_deg, h):
    """Second, independently coded transform via the reduced latitude."""
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    beta = math.atan((1.0 - WGS84_F) * math.tan(lat)) if abs(lat_deg) < 90 else math.copysign(math.pi / 2, lat)
    x = WGS84_A * math.cos(beta) * math.cos(lon) + h * math.cos(lat) * math.cos(lon)
    y = WGS84_A * math.cos(beta) * math.sin(lon) + h * math.cos(lat) * math.sin(lon)
    z = WGS84_B * math.sin(beta) + h * math.sin(lat)
    return x, y, z


def ecef_to_geodetic(v: EcefVector) -> GeodeticPosition:
    """Invert :func:`geodetic_to_ecef`: the inverse that the round-trip
    tests here and acceptance criterion 7 check it against.

    Bowring's closed form seeded with a few fixed-point refinements;
    round-trips to better than 1e-9 degrees / 1e-6 m over the whole
    aircraft-to-geostationary altitude range.
    """
    x, y, z = v.x, v.y, v.z
    p = math.hypot(x, y)
    if p == 0.0 and z == 0.0:
        raise DomainError("ECEF vector at Earth center has no geodetic image")
    lon = math.degrees(math.atan2(y, x))
    if lon <= -180.0:
        lon = 180.0
    if p < 1e-9:
        # On the polar axis the longitude is arbitrary; fix it at 0.
        lat = math.copysign(90.0, z)
        return GeodeticPosition(lat, 0.0, abs(z) - WGS84_B)

    # Bowring seed
    ep2 = (WGS84_A * WGS84_A - WGS84_B * WGS84_B) / (WGS84_B * WGS84_B)
    theta = math.atan2(z * WGS84_A, p * WGS84_B)
    st, ct = math.sin(theta), math.cos(theta)
    lat = math.atan2(z + ep2 * WGS84_B * st**3, p - WGS84_E2 * WGS84_A * ct**3)

    h = 0.0
    for _ in range(4):
        sinp = math.sin(lat)
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sinp * sinp)
        h = p / math.cos(lat) - n
        lat = math.atan2(z, p * (1.0 - WGS84_E2 * n / (n + h)))

    return GeodeticPosition(math.degrees(lat), lon, h)


class TestGeodeticToEcef:
    def test_equator_prime_meridian(self):
        v = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
        assert v.x == pytest.approx(6378137.0, abs=1e-9)
        assert v.y == 0.0
        assert v.z == 0.0

    def test_north_pole(self):
        v = geodetic_to_ecef(GeodeticPosition(90.0, 12.0, 0.0))
        assert abs(v.x) < 1e-6 and abs(v.y) < 1e-6
        assert v.z == pytest.approx(6356752.3142, abs=1e-3)

    def test_against_independent_oracle(self):
        p = GeodeticPosition(-38.67, 85.11, 0.0)
        got = geodetic_to_ecef(p)
        want = oracle_geodetic_to_ecef(-38.67, 85.11, 0.0)
        assert got.as_tuple() == pytest.approx(want, abs=1e-6)

    def test_oracle_with_altitude(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lat = rng.uniform(-89.9, 89.9)
            lon = rng.uniform(-179.9, 180.0)
            h = rng.uniform(-5000.0, 100000.0)
            got = geodetic_to_ecef(GeodeticPosition(lat, lon, h))
            assert got.as_tuple() == pytest.approx(oracle_geodetic_to_ecef(lat, lon, h), abs=1e-6)

    def test_surface_radius_between_polar_and_equatorial(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            p = GeodeticPosition(rng.uniform(-90, 90), rng.uniform(-179.9, 180.0), 0.0)
            r = geodetic_to_ecef(p).norm()
            assert WGS84_B - 1e-6 <= r <= WGS84_A + 1e-6


class TestEcefToGeodetic:
    def test_equator_inverse(self):
        p = ecef_to_geodetic(EcefVector(6378137.0, 0.0, 0.0))
        assert p.latitude_deg == pytest.approx(0.0, abs=1e-12)
        assert p.longitude_deg == pytest.approx(0.0, abs=1e-12)
        assert p.altitude_m == pytest.approx(0.0, abs=1e-9)

    def test_pole_inverse(self):
        p = ecef_to_geodetic(EcefVector(0.0, 0.0, 6356752.3142))
        assert p.latitude_deg == pytest.approx(90.0, abs=1e-9)
        assert p.altitude_m == pytest.approx(0.0, abs=1e-3)

    def test_round_trip_property(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            lat = rng.uniform(-90.0, 90.0)
            lon = rng.uniform(-179.999, 180.0)
            h = rng.uniform(-5000.0, 100000.0)
            p = GeodeticPosition(lat, lon, h)
            q = ecef_to_geodetic(geodetic_to_ecef(p))
            assert abs(q.latitude_deg - lat) < 1e-9
            if abs(lat) < 90.0 - 1e-9:
                assert abs(q.longitude_deg - lon) < 1e-9
            assert abs(q.altitude_m - h) < 1e-6

    def test_earth_center_rejected(self):
        with pytest.raises(DomainError):
            ecef_to_geodetic(EcefVector(0.0, 0.0, 0.0))


class TestKinematics:
    def test_zero_velocity(self):
        v = kinematics_to_ecef_velocity(
            GeodeticPosition(10.0, 20.0, 0.0), GroundKinematics(0.0, 45.0, 0.0)
        )
        assert v.as_tuple() == (0.0, 0.0, 0.0)

    def test_east_at_origin_is_plus_y(self):
        v = kinematics_to_ecef_velocity(
            GeodeticPosition(0.0, 0.0, 0.0), GroundKinematics(100.0, 90.0, 0.0)
        )
        assert v.as_tuple() == pytest.approx((0.0, 100.0, 0.0), abs=1e-9)

    def test_up_at_origin_is_plus_x(self):
        v = kinematics_to_ecef_velocity(
            GeodeticPosition(0.0, 0.0, 0.0), GroundKinematics(0.0, 0.0, 1.0)
        )
        assert v.as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_linear_in_speed_and_vertical_rate(self):
        p = GeodeticPosition(-35.2, 140.9, 9000.0)
        rng = np.random.default_rng(11)
        for _ in range(100):
            track = rng.uniform(0, 360)
            gs, vz = rng.uniform(0, 300), rng.uniform(-60, 60)
            a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            v1 = kinematics_to_ecef_velocity(p, GroundKinematics(gs, track, 0.0))
            v2 = kinematics_to_ecef_velocity(p, GroundKinematics(0.0, track, vz))
            v = kinematics_to_ecef_velocity(p, GroundKinematics(a * gs, track, b * vz))
            want = a * v1 + b * v2
            assert v.as_tuple() == pytest.approx(want.as_tuple(), abs=1e-9)


class TestElevation:
    def test_zenith(self):
        p = GeodeticPosition(12.0, 34.0, 0.0)
        # a point straight up the ellipsoidal normal
        up = geodetic_to_ecef(GeodeticPosition(12.0, 34.0, 1000000.0))
        assert elevation_angle(p, up) == pytest.approx(90.0, abs=1e-6)

    def test_horizon(self):
        p = GeodeticPosition(-20.0, 60.0, 0.0)
        site = geodetic_to_ecef(p)
        east, north, _ = map(EcefVector._make, _enu_axes(_frame(math, p.latitude_deg, p.longitude_deg)))
        assert elevation_angle(p, site + 500000.0 * east) == pytest.approx(0.0, abs=1e-9)
        assert elevation_angle(p, site + 500000.0 * north) == pytest.approx(0.0, abs=1e-9)

    def test_arc_crossing_elevation(self, analysis_config, ephemeris):
        t = parse_time_utc("2014-03-08T00:19:29Z")
        sat = satellite_state_at(t, ephemeris)
        elev = elevation_angle(analysis_config.arc_crossing, sat.position)
        assert elev == pytest.approx(38.8, abs=0.3)

    def test_rotation_about_earth_axis_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lat = rng.uniform(-80, 80)
            lon = rng.uniform(-179, 179)
            h = rng.uniform(0, 12000)
            sat = EcefVector(*(rng.uniform(-1, 1, 3) * 2e7 + np.array([3e7, 0, 0])))
            d = rng.uniform(-170, 170)
            e1 = elevation_angle(GeodeticPosition(lat, lon, h), sat)
            c, s = math.cos(math.radians(d)), math.sin(math.radians(d))
            sat2 = EcefVector(c * sat.x - s * sat.y, s * sat.x + c * sat.y, sat.z)
            lon2 = lon + d
            if lon2 > 180.0:
                lon2 -= 360.0
            elif lon2 <= -180.0:
                lon2 += 360.0
            e2 = elevation_angle(GeodeticPosition(lat, lon2, h), sat2)
            assert e2 == pytest.approx(e1, abs=1e-9)

    def test_coincident_points_rejected(self):
        p = GeodeticPosition(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            elevation_angle(p, geodetic_to_ecef(p))


class TestValidation:
    def test_latitude_range(self):
        with pytest.raises(DomainError):
            GeodeticPosition(91.0, 0.0, 0.0)

    def test_longitude_range(self):
        with pytest.raises(DomainError):
            GeodeticPosition(0.0, -180.0, 0.0)

    def test_track_range(self):
        with pytest.raises(DomainError):
            GroundKinematics(10.0, 360.0, 0.0)

    def test_negative_speed(self):
        with pytest.raises(DomainError):
            GroundKinematics(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_speed_or_vertical_rate_is_named(self, bad):
        with pytest.raises(DomainError, match=f"ground_speed_mps {bad} is not finite"):
            GroundKinematics(bad, 0.0, 0.0)
        with pytest.raises(DomainError, match=f"vertical_rate_mps {bad} is not finite"):
            GroundKinematics(10.0, 0.0, bad)
