"""Relay-satellite state and ground-segment frequency corrections.

Satellite states come from an ephemeris table (cubic Hermite on position,
using the tabulated velocities as segment derivatives). The net
translation + ground-station AFC correction is a tabulated quantity,
linearly interpolated. A small analytic inclined-geosynchronous model is
included to generate synthetic tables for tests and fixtures.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .errors import CheckedTuple, DomainError, require_finite
from .geodesy import EcefVector

GEO_RADIUS_M = 42164169.0
SIDEREAL_DAY_S = 86164.0905
# Plausibility shell for geosynchronous ephemerides, meters
GEO_SHELL_HALF_WIDTH_M = 500e3


class SatelliteState(NamedTuple):
    position: EcefVector
    velocity: EcefVector


class NominalSlot(CheckedTuple, NamedTuple("_SlotFields", [
    ("longitude_deg", float), ("latitude_deg", float), ("radius_m", float)
])):
    """The orbital slot the aircraft terminal assumes for its own Doppler
    pre-compensation: on the equator at a fixed longitude.

    Its ECEF position, :attr:`ecef`, is computed once per instance and held
    in its ``__dict__`` (no ``__slots__``), outside equality.
    """

    def __new__(cls, longitude_deg=64.5, latitude_deg=0.0, radius_m=GEO_RADIUS_M):
        require_finite(longitude_deg=longitude_deg, latitude_deg=latitude_deg, radius_m=radius_m)
        return tuple.__new__(cls, (longitude_deg, latitude_deg, radius_m))

    @cached_property
    def ecef(self) -> tuple[float, float, float]:
        """ECEF (x, y, z) of the slot, from :func:`nominal_satellite_position`."""
        return nominal_satellite_position(self).as_tuple()


def _flat_floats(values):
    """``values`` as one flat array of doubles, with the shape ``numpy.asarray(values,
    dtype=float)`` gives it; ragged rows or a non-number raise ValueError or TypeError."""
    if isinstance(values, (list, tuple)):
        try:  # numbers, or rows of numbers of one length: no numpy and no object per row
            if all(isinstance(row, (list, tuple)) for row in values) and len(set(map(len, values))) == 1:
                return array("d", chain.from_iterable(values)), (len(values), len(values[0]))
            return array("d", values), (len(values),)
        except TypeError:  # deeper rows, or rows and numbers mixed
            pass
    import numpy as np  # any other input takes numpy's own rule
    flat = np.asarray(values, dtype=float)
    return array("d", flat.ravel().tolist()), flat.shape


def _floats(values, what: str):
    try:
        return _flat_floats(values)
    except (TypeError, ValueError) as e:  # ragged rows or non-numbers
        raise DomainError(f"{what} must be numbers in rows of equal length") from e


def _array(rows):
    import numpy as np  # the array views are numpy's
    return np.array(rows)


class _Table:
    """Samples held as float lists."""

    def __len__(self):
        return len(self.time_list)

    @property
    def span(self) -> tuple[float, float]:
        return self.time_list[0], self.time_list[-1]


class EphemerisTable(_Table):
    """Time-ordered (position, velocity) samples of the relay satellite:
    ``time_list`` and ``row_list``, one ``[x, y, z, vx, vy, vz]`` per row.
    Their numpy array views are built on first read."""

    times = cached_property(lambda self: _array(self.time_list))
    positions = cached_property(lambda self: _array([row[:3] for row in self.row_list]))
    velocities = cached_property(lambda self: _array([row[3:] for row in self.row_list]))

    def __init__(self, times, positions, velocities, provenance=()):
        times, t_shape = _floats(times, "ephemeris times")
        positions, p_shape = _floats(positions, "ephemeris positions")
        velocities, v_shape = _floats(velocities, "ephemeris velocities")
        self.provenance = tuple(provenance)
        if len(t_shape) != 1:
            raise DomainError(f"ephemeris times must be one-dimensional, got shape {t_shape}")
        n = len(times)
        if n < 2:
            raise DomainError("ephemeris table needs at least 2 rows")
        for what, shape in (("positions", p_shape), ("velocities", v_shape)):
            if shape != (n, 3):
                raise DomainError(f"ephemeris {what} must have shape ({n}, 3), got {shape}")
        if not all(a < b for a, b in zip(times, times[1:])):
            raise DomainError("ephemeris timestamps must be strictly increasing")
        if not all(map(math.isfinite, times + positions + velocities)):
            raise DomainError("ephemeris rows must be finite")
        radii = map(math.hypot, positions[0::3], positions[1::3], positions[2::3])
        if any(abs(r - GEO_RADIUS_M) > GEO_SHELL_HALF_WIDTH_M for r in radii):
            raise DomainError("ephemeris positions outside the geosynchronous shell")
        # new floats, the six of a row side by side, for the lookups
        self.time_list = times.tolist()
        self.row_list = [(positions[k:k + 3] + velocities[k:k + 3]).tolist() for k in range(0, 3 * n, 3)]


class CorrectionTable(_Table):
    """Tabulated net deterministic frequency correction (Hz) vs time: ``time_list``, ``value_list``."""

    def __init__(self, times, values, provenance=()):
        times, t_shape = _floats(times, "correction times")
        values, v_shape = _floats(values, "correction values")
        self.provenance = tuple(provenance)
        if len(t_shape) != 1 or len(v_shape) != 1:
            raise DomainError(
                "correction times and values must be one-dimensional, "
                f"got shapes {t_shape} and {v_shape}"
            )
        if len(times) != len(values) or len(times) < 1:
            raise DomainError("correction table needs matching, non-empty columns")
        if not all(a < b for a, b in zip(times, times[1:])):
            raise DomainError("correction timestamps must be strictly increasing")
        if not all(map(math.isfinite, times + values)):
            raise DomainError("correction rows must be finite")
        self.time_list, self.value_list = times.tolist(), values.tolist()


def _segment_index(times, t) -> int:
    """Index of the segment ``[times[i], times[i + 1]]`` holding ``t``; a
    knot starts its segment, and the last knot ends the last segment."""
    if not times[0] <= t <= times[-1]:  # also rejects NaN
        raise DomainError(
            f"time {t} outside table span [{times[0]}, {times[-1]}] (no extrapolation)"
        )
    return min(bisect_right(times, t) - 1, len(times) - 2)


def satellite_state_at(t: float, e: EphemerisTable) -> SatelliteState:
    """Interpolated satellite state at UTC second ``t``.

    Cubic Hermite per segment; the returned velocity is the exact time
    derivative of the interpolated position.
    """
    times = e.time_list
    i = _segment_index(times, t)
    t0 = times[i]
    dt = times[i + 1] - t0
    s = (t - t0) / dt
    x0, y0, z0, vx0, vy0, vz0 = e.row_list[i]
    x1, y1, z1, vx1, vy1, vz1 = e.row_list[i + 1]

    s2, s3 = s**2, s**3  # not s * s * s, which can differ in the last bit
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    h10dt, h11dt = h10 * dt, h11 * dt
    pos = (
        h00 * x0 + h10dt * vx0 + h01 * x1 + h11dt * vx1,
        h00 * y0 + h10dt * vy0 + h01 * y1 + h11dt * vy1,
        h00 * z0 + h10dt * vz0 + h01 * z1 + h11dt * vz1,
    )

    d00 = 6 * s2 - 6 * s
    d10 = 3 * s2 - 4 * s + 1
    d01 = -6 * s2 + 6 * s
    d11 = 3 * s2 - 2 * s
    vel = (
        (d00 * x0 + d01 * x1) / dt + d10 * vx0 + d11 * vx1,
        (d00 * y0 + d01 * y1) / dt + d10 * vy0 + d11 * vy1,
        (d00 * z0 + d01 * z1) / dt + d10 * vz0 + d11 * vz1,
    )
    # the check of EcefVector.__new__, made once for both vectors
    if not all(map(math.isfinite, pos + vel)):
        raise DomainError(f"ECEF components must be finite at t={t!r} (ephemeris knots {t0!r} and {times[i + 1]!r})")
    return SatelliteState(tuple.__new__(EcefVector, pos), tuple.__new__(EcefVector, vel))


def nominal_satellite_position(slot: NominalSlot) -> EcefVector:
    """ECEF point at the slot's longitude/latitude on the geostationary radius."""
    lat = math.radians(slot.latitude_deg)
    lon = math.radians(slot.longitude_deg)
    return EcefVector(
        slot.radius_m * math.cos(lat) * math.cos(lon),
        slot.radius_m * math.cos(lat) * math.sin(lon),
        slot.radius_m * math.sin(lat),
    )


def deterministic_correction_at(t: float, c: CorrectionTable) -> float:
    """Linearly interpolated correction (Hz) at UTC second ``t``."""
    times, values = c.time_list, c.value_list
    if len(times) == 1:
        if t != times[0]:
            raise DomainError(f"time {t} outside single-row correction table")
        return values[0]
    i = _segment_index(times, t)
    t0 = times[i]
    w = (t - t0) / (times[i + 1] - t0)
    return (1.0 - w) * values[i] + w * values[i + 1]


class SyntheticGeoModel(NamedTuple):
    """Closed-form inclined, slightly eccentric geosynchronous orbit in the
    Earth-fixed frame.

    The ground track is the usual small-inclination figure eight:
    latitude ~ i*sin(M), longitude oscillating at twice the orbital rate,
    radius breathing with eccentricity. Velocities are the exact analytic
    derivatives, so tables sampled from this model are self-consistent.
    """

    longitude_deg: float = 64.5
    inclination_deg: float = 1.65
    node_time: float = 0.0  # UTC seconds of ascending node crossing
    eccentricity: float = 0.0
    perigee_time: float = 0.0
    radius_m: float = GEO_RADIUS_M

    def state_at(self, t: float) -> SatelliteState:
        n = 2.0 * math.pi / SIDEREAL_DAY_S
        inc = math.radians(self.inclination_deg)
        m = n * (t - self.node_time)
        mp = n * (t - self.perigee_time)

        lat = inc * math.sin(m)
        dlat = inc * n * math.cos(m)
        lon = (
            math.radians(self.longitude_deg)
            + (inc * inc / 4.0) * math.sin(2.0 * m)
            + 2.0 * self.eccentricity * math.sin(mp)
        )
        dlon = (inc * inc / 2.0) * n * math.cos(2.0 * m) + 2.0 * self.eccentricity * n * math.cos(mp)
        r = self.radius_m * (1.0 - self.eccentricity * math.cos(mp))
        dr = self.radius_m * self.eccentricity * n * math.sin(mp)

        sp, cp = math.sin(lat), math.cos(lat)
        sl, cl = math.sin(lon), math.cos(lon)
        pos = EcefVector(r * cp * cl, r * cp * sl, r * sp)
        vel = EcefVector(
            dr * cp * cl - r * sp * cl * dlat - r * cp * sl * dlon,
            dr * cp * sl - r * sp * sl * dlat + r * cp * cl * dlon,
            dr * sp + r * cp * dlat,
        )
        return SatelliteState(pos, vel)

    def table(self, start: float, end: float, step_s: float, provenance=()) -> EphemerisTable:
        if end <= start or step_s <= 0:
            raise DomainError("need end > start and a positive step")
        times = [start + k * step_s for k in range(int(round((end - start) / step_s)) + 1)]
        states = [self.state_at(t) for t in times]
        positions, velocities = [s.position for s in states], [s.velocity for s in states]
        return EphemerisTable(times, positions, velocities, provenance)
