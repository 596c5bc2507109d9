"""Forward model of the burst frequency offset (BFO).

The BFO seen at the ground station for one burst decomposes into: uplink
Doppler (aircraft -> satellite), downlink Doppler (satellite -> ground
station), the Doppler pre-compensation applied by the aircraft terminal,
the tabulated satellite-translation + ground-AFC correction, and a
per-flight oscillator bias. The terminal's pre-compensation is computed
the way the terminal itself computes it: from track angle and ground
speed only (vertical speed assumed zero), with the aircraft at sea level
and the satellite at its nominal slot.

The model is written once, as a component-wise kernel over a math
backend: ``math`` for one state (:func:`predict_bfo`), ``numpy`` for
arrays of states that share one time (:func:`predict_bfo_batch`). Both
return every term as :class:`BfoTerms`. Per call, the kernel builds the
local frame, its east/north/up axes and the horizontal velocity once, for
both the uplink and the compensation. The entry points hold the checks on
the state (latitude for a batch, ground speed) and on the total's
finiteness; the kernel checks only that no line of sight is degenerate.
"""

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CheckedTuple, DomainError, require_finite
from .geodesy import (
    GeodeticPosition,
    GroundKinematics,
    _east_north,
    _ecef_position,
    _enu_axes,
    _frame,
)
from .satellite import (
    CorrectionTable,
    EphemerisTable,
    NominalSlot,
    SatelliteState,
    deterministic_correction_at,
    satellite_state_at,
)
from .stats import ordered_sum
from .units import FPM_TO_MPS, SPEED_OF_LIGHT_MPS

class ChannelConfig(CheckedTuple, NamedTuple("_ChannelFields", [
    ("uplink_hz", float), ("downlink_hz", float), ("ges_position", GeodeticPosition)
])):
    """Carrier frequencies and ground-station location for one channel.

    The ground station's ECEF position, :attr:`ges_ecef`, is computed once per
    instance and held in its ``__dict__`` (no ``__slots__``), outside equality.
    """

    # Feeder-link and ground-station defaults are placeholders for synthetic
    # scenarios; real analyses must set them in the config.
    def __new__(cls, uplink_hz=1646.6525e6, downlink_hz=3615.0e6,
                ges_position=GeodeticPosition(-31.8044, 115.8872, 22.0)):
        require_finite(uplink_hz=uplink_hz, downlink_hz=downlink_hz)
        if uplink_hz <= 0 or downlink_hz <= 0:
            raise DomainError("carrier frequencies must be positive")
        return tuple.__new__(cls, (uplink_hz, downlink_hz, ges_position))

    @cached_property
    def ges_ecef(self) -> tuple[float, float, float]:
        """ECEF (x, y, z) of the ground station."""
        g = self.ges_position
        return _ecef_position(_frame(math, g.latitude_deg, g.longitude_deg), g.altitude_m)


class AircraftState(NamedTuple):
    """Aircraft position and kinematics at a UTC timestamp (seconds)."""

    position: GeodeticPosition
    kinematics: GroundKinematics
    timestamp: float


class BfoTerms(NamedTuple):
    """Additive decomposition of a predicted BFO, Hz, as an immutable tuple.

    From :func:`predict_bfo_batch` the fields are numpy arrays, or floats
    for the terms shared by the whole batch, and ``total_hz`` broadcasts.
    """

    uplink_doppler_hz: float
    downlink_doppler_hz: float
    aes_compensation_hz: float
    sat_plus_afc_hz: float
    bias_hz: float

    @property
    def total_hz(self) -> float:
        return (
            self.uplink_doppler_hz
            + self.downlink_doppler_hz
            + self.aes_compensation_hz
            + self.sat_plus_afc_hz
            + self.bias_hz
        )


def _any(mask) -> bool:
    """Reduce an elementwise test from either math backend to one bool."""
    return mask if mask.__class__ is bool else bool(mask.any())


def _los_rate(xp, velocity, from_pos, to_pos):
    """Component of ``velocity`` along the from->to line of sight. Each
    argument is an (x, y, z) of floats or arrays."""
    lx, ly, lz = to_pos[0] - from_pos[0], to_pos[1] - from_pos[1], to_pos[2] - from_pos[2]
    r = xp.sqrt(lx * lx + ly * ly + lz * lz)
    if _any(r < 1e-6):
        raise DomainError("line-of-sight endpoints coincide")
    return (velocity[0] * lx + velocity[1] * ly + velocity[2] * lz) / r


def _bfo_terms(
    xp,
    latitude_deg,
    longitude_deg,
    altitude_m,
    ground_speed_mps,
    track_angle_deg,
    vertical_rate_mps,
    t: float,
    sat: SatelliteState,
    corrections: CorrectionTable,
    bias_hz: float,
    cfg: ChannelConfig,
    slot: NominalSlot,
) -> BfoTerms:
    """The forward model, component-wise over the math backend ``xp``
    (``math`` for floats, ``numpy`` for arrays).

    The aircraft arguments broadcast against each other. Everything else
    is shared, so the terms that do not depend on the aircraft (downlink
    Doppler, correction, bias) are computed once, as floats. The local
    frame, its east/north/up axes and the horizontal velocity ``h`` are
    computed once per call and shared by the uplink and the compensation:
    the aircraft's ECEF velocity is ``h + w*up``, with ``w`` its vertical
    rate, and the terminal's is ``h + 0.0*up``, the same sums, bit for bit
    and zero signs included, as building each velocity on its own. The only
    check here is that no line of sight is degenerate; the callers check
    the state before and the total after.

    Uplink: (F_up/c) * (v_s - v_x) . (p_x - p_s) / |p_x - p_s|.
    Compensation: the terminal's own estimate, for level flight at sea
    level with the satellite fixed at the nominal slot.
    """
    frame = _frame(xp, latitude_deg, longitude_deg)
    ve, vn = _east_north(xp, ground_speed_mps, track_angle_deg)
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = _enu_axes(frame)
    hx, hy, hz = ve * ex + vn * nx, ve * ey + vn * ny, ve * ez + vn * nz
    # A batch holds fewer arrays at once, and so touches fewer fresh pages,
    # with ve and vn dropped here and the compensation built first; all three
    # line-of-sight checks raise the same error, so their order is not seen.
    del ve, vn
    position, (sx, sy, sz) = sat
    f_up, w = cfg.uplink_hz / SPEED_OF_LIGHT_MPS, vertical_rate_mps
    compensation = f_up * _los_rate(
        xp, (hx + 0.0 * ux, hy + 0.0 * uy, hz + 0.0 * uz), slot.ecef, _ecef_position(frame, 0.0)
    )
    uplink = f_up * _los_rate(
        xp, (sx - (hx + w * ux), sy - (hy + w * uy), sz - (hz + w * uz)), position, _ecef_position(frame, altitude_m)
    )
    downlink = cfg.downlink_hz / SPEED_OF_LIGHT_MPS * _los_rate(math, sat.velocity, position, cfg.ges_ecef)
    return BfoTerms(uplink, downlink, compensation, deterministic_correction_at(t, corrections), bias_hz)


def predict_bfo(
    aircraft: AircraftState,
    sat: SatelliteState,
    corrections: CorrectionTable,
    bias_hz: float,
    cfg: ChannelConfig,
    slot: NominalSlot = NominalSlot(),
) -> tuple[float, BfoTerms]:
    """Predicted BFO (Hz) and its exact additive decomposition."""
    (lat, lon, alt), (speed, track, vrate), t = aircraft
    if speed < 0:
        raise DomainError("ground speed must be >= 0")
    terms = _bfo_terms(math, lat, lon, alt, speed, track, vrate, t, sat, corrections, bias_hz, cfg, slot)
    total = terms.total_hz
    if not math.isfinite(total):
        raise DomainError("predicted BFO is not finite")
    return total, terms


def predict_bfo_batch(
    latitude_deg,
    longitude_deg,
    altitude_m,
    ground_speed_mps,
    track_angle_deg,
    vertical_rate_mps,
    t: float,
    sat: SatelliteState,
    corrections: CorrectionTable,
    bias_hz: float,
    cfg: ChannelConfig,
    slot: NominalSlot = NominalSlot(),
) -> BfoTerms:
    """Predicted BFO terms for many aircraft states at one UTC second ``t``.

    The six aircraft arguments are floats or numpy arrays that broadcast
    against each other; track angles may lie outside [0, 360). ``sat`` is
    the satellite state at ``t``. Work that depends only on the position
    or only on ``t`` is done once per call: with a scalar position, the
    ECEF position and local frame are computed once, and the downlink
    Doppler, correction and bias terms are floats. The result's
    ``total_hz`` is the predicted BFO, elementwise.
    """
    state = [
        np.asarray(x, dtype=float)
        for x in (latitude_deg, longitude_deg, altitude_m, ground_speed_mps, track_angle_deg,
                  vertical_rate_mps)
    ]
    if _any(np.abs(state[0]) > 90.0):
        raise DomainError("latitude outside [-90, 90]")
    if _any(state[3] < 0):
        raise DomainError("ground speed must be >= 0")
    # Non-finite inputs raise DomainError below, without numpy's warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        terms = _bfo_terms(np, *state, t, sat, corrections, bias_hz, cfg, slot)
        if not np.isfinite(terms.total_hz).all():
            raise DomainError("predicted BFO is not finite")
    return terms


def vertical_doppler(vz_mps: float, elevation_deg: float, cfg: ChannelConfig) -> float:
    """Uncompensated BFO contribution of vertical speed ``vz_mps`` (Hz):
    vz * F_up * sin(elevation) / c. Positive up."""
    return vz_mps * cfg.uplink_hz * math.sin(math.radians(elevation_deg)) / SPEED_OF_LIGHT_MPS


def descent_sensitivity(elevation_deg: float, cfg: ChannelConfig) -> float:
    """BFO change per 100 ft/min of climb rate at the given elevation,
    Hz per 100 fpm."""
    return vertical_doppler(100.0 * FPM_TO_MPS, elevation_deg, cfg)


def calibrate_bias(
    tarmac_measurements,
    ephemeris: EphemerisTable,
    corrections: CorrectionTable,
    cfg: ChannelConfig,
    slot: NominalSlot = NominalSlot(),
) -> float:
    """Oscillator bias (Hz) from measurements taken with a known static
    aircraft state, as the mean of measured minus zero-bias prediction.

    ``tarmac_measurements`` is an iterable of (BfoMeasurement, AircraftState)
    pairs.
    """
    residuals = []
    for measurement, state in tarmac_measurements:
        sat = satellite_state_at(state.timestamp, ephemeris)
        predicted, _ = predict_bfo(state, sat, corrections, 0.0, cfg, slot)
        residuals.append(measurement.bfo_hz - predicted)
    if not residuals:
        raise DomainError("bias calibration needs at least one measurement")
    return ordered_sum(residuals) / len(residuals)
