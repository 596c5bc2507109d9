"""WGS84 geodesy and satellite line-of-sight geometry.

Conventions: angles in degrees at the API surface, distances in meters,
velocities in m/s. Latitude is geodetic. ECEF is the standard
Earth-centered Earth-fixed right-handed frame (+x through 0N 0E,
+z through the north pole). Track angle is degrees clockwise from true
north; vertical rate is positive up.

The private ``_frame`` helpers are the one implementation of this geometry:
the scalar functions at the end of this module and the forward-model
kernel, over floats or numpy arrays, build one frame per call on them.
"""

import math
from typing import NamedTuple

from .errors import CheckedTuple, DomainError, require_finite

# WGS84 defining constants
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)  # first eccentricity squared


class GeodeticPosition(CheckedTuple, NamedTuple("_GeodeticFields", [
    ("latitude_deg", float), ("longitude_deg", float), ("altitude_m", float)
])):
    """Geodetic latitude/longitude (degrees) and height above the WGS84
    ellipsoid (meters)."""

    __slots__ = ()

    def __new__(cls, latitude_deg, longitude_deg, altitude_m=0.0):
        if not -90.0 <= latitude_deg <= 90.0:
            raise DomainError(f"latitude {latitude_deg} outside [-90, 90]")
        if not -180.0 < longitude_deg <= 180.0:
            raise DomainError(f"longitude {longitude_deg} outside (-180, 180]")
        if not math.isfinite(altitude_m):
            raise DomainError("altitude must be finite")
        return tuple.__new__(cls, (latitude_deg, longitude_deg, altitude_m))


class EcefVector(CheckedTuple, NamedTuple("_EcefFields", [("x", float), ("y", float), ("z", float)])):
    """An ECEF position (m) or velocity (m/s): an immutable, finite ``(x, y, z)`` tuple."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise DomainError("ECEF components must be finite")
        return tuple.__new__(cls, (x, y, z))


class GroundKinematics(CheckedTuple, NamedTuple("_KinematicsFields", [
    ("ground_speed_mps", float), ("track_angle_deg", float), ("vertical_rate_mps", float)
])):
    """Horizontal speed over ground, track angle and vertical rate."""

    __slots__ = ()

    def __new__(cls, ground_speed_mps, track_angle_deg, vertical_rate_mps=0.0):
        require_finite(ground_speed_mps=ground_speed_mps, vertical_rate_mps=vertical_rate_mps)
        if ground_speed_mps < 0:
            raise DomainError("ground speed must be >= 0")
        if not 0.0 <= track_angle_deg < 360.0:
            raise DomainError(f"track angle {track_angle_deg} outside [0, 360)")
        return tuple.__new__(cls, (ground_speed_mps, track_angle_deg, vertical_rate_mps))


def _frame(xp, latitude_deg, longitude_deg):
    """Sines and cosines of geodetic latitude and longitude, and the
    prime-vertical radius of curvature, at one point or elementwise.

    ``xp`` is the math backend: ``math`` for floats, ``numpy`` for arrays.
    """
    lat = xp.radians(latitude_deg)
    lon = xp.radians(longitude_deg)
    sinp = xp.sin(lat)
    n = WGS84_A / xp.sqrt(1.0 - WGS84_E2 * sinp * sinp)
    return sinp, xp.cos(lat), xp.sin(lon), xp.cos(lon), n


def _ecef_position(frame, altitude_m):
    """ECEF (x, y, z) of the point ``altitude_m`` above the ellipsoid."""
    sinp, cosp, sinl, cosl, n = frame
    return (
        (n + altitude_m) * cosp * cosl,
        (n + altitude_m) * cosp * sinl,
        (n * (1.0 - WGS84_E2) + altitude_m) * sinp,
    )


def _enu_axes(frame):
    """ECEF (x, y, z) of the local east, north and up unit vectors."""
    sinp, cosp, sinl, cosl, _ = frame
    return (
        (-sinl, cosl, 0.0),
        (-sinp * cosl, -sinp * sinl, cosp),
        (cosp * cosl, cosp * sinl, sinp),
    )


def _east_north(xp, ground_speed_mps, track_angle_deg):
    """Local east and north components of a ground velocity."""
    track = xp.radians(track_angle_deg)
    return ground_speed_mps * xp.sin(track), ground_speed_mps * xp.cos(track)


def geodetic_to_ecef(p: GeodeticPosition) -> EcefVector:
    """Convert a geodetic position to an ECEF position vector."""
    return EcefVector(*_ecef_position(_frame(math, p.latitude_deg, p.longitude_deg), p.altitude_m))


def kinematics_to_ecef_velocity(p: GeodeticPosition, k: GroundKinematics) -> EcefVector:
    """ECEF velocity of an aircraft at ``p`` with ground kinematics ``k``.

    Local east/north components are ground_speed * sin/cos(track); the
    local up component is the vertical rate.
    """
    ve, vn = _east_north(math, k.ground_speed_mps, k.track_angle_deg)
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = _enu_axes(_frame(math, p.latitude_deg, p.longitude_deg))
    w = k.vertical_rate_mps
    return EcefVector(ve * ex + vn * nx + w * ux, ve * ey + vn * ny + w * uy, ve * ez + vn * nz + w * uz)


def elevation_angle(aircraft: GeodeticPosition, satellite_pos: EcefVector) -> float:
    """Signed elevation (degrees) of the satellite above the aircraft's
    local horizontal plane, which is tangent to the ellipsoid (not normal to
    the geocentric radial). Negative values mean below the horizon."""
    frame = _frame(math, aircraft.latitude_deg, aircraft.longitude_deg)
    (sx, sy, sz), (px, py, pz) = satellite_pos, _ecef_position(frame, aircraft.altitude_m)
    lx, ly, lz = EcefVector(sx - px, sy - py, sz - pz)
    if math.sqrt(lx * lx + ly * ly + lz * lz) < 1e-6:
        raise DomainError("aircraft and satellite positions coincide")
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = _enu_axes(frame)
    e, n = lx * ex + ly * ey + lz * ez, lx * nx + ly * ny + lz * nz
    return math.degrees(math.atan2(lx * ux + ly * uy + lz * uz, math.hypot(e, n)))
