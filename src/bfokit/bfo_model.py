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
return every term as :class:`BfoTerms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, require_finite
from .geodesy import (
    GeodeticPosition,
    GroundKinematics,
    _east_north,
    _ecef_position,
    _ecef_velocity,
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
from .units import FPM_TO_MPS, SPEED_OF_LIGHT_MPS

@dataclass(frozen=True)
class ChannelConfig:
    """Carrier frequencies and ground-station location for one channel.

    The ground station's ECEF position, :attr:`ges_ecef`, is computed once
    per instance.
    """

    uplink_hz: float = 1646.6525e6
    # Feeder-link and ground-station defaults are placeholders for synthetic
    # scenarios; real analyses must set them in the config.
    downlink_hz: float = 3615.0e6
    ges_position: GeodeticPosition = GeodeticPosition(-31.8044, 115.8872, 22.0)

    def __post_init__(self):
        require_finite(self, "uplink_hz", "downlink_hz")
        if self.uplink_hz <= 0 or self.downlink_hz <= 0:
            raise DomainError("carrier frequencies must be positive")

    @cached_property
    def ges_ecef(self) -> tuple[float, float, float]:
        """ECEF (x, y, z) of the ground station."""
        g = self.ges_position
        return _ecef_position(_frame(math, g.latitude_deg, g.longitude_deg), g.altitude_m)


@dataclass(frozen=True)
class AircraftState:
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

    def as_dict(self) -> dict[str, float]:
        return self._asdict()


def _any(mask) -> bool:
    """Reduce an elementwise test from either math backend to one bool."""
    return bool(mask.any()) if isinstance(mask, (np.ndarray, np.generic)) else mask


def _all(mask) -> bool:
    return bool(mask.all()) if isinstance(mask, (np.ndarray, np.generic)) else mask


def _los_rate(xp, velocity, from_pos, to_pos):
    """Component of ``velocity`` along the from->to line of sight. Each
    argument is an (x, y, z) of floats or arrays."""
    lx, ly, lz = to_pos[0] - from_pos[0], to_pos[1] - from_pos[1], to_pos[2] - from_pos[2]
    r = xp.sqrt(lx * lx + ly * ly + lz * lz)
    if _any(r < 1e-6):
        raise DomainError("line-of-sight endpoints coincide")
    return (velocity[0] * lx + velocity[1] * ly + velocity[2] * lz) / r


def _uplink(xp, frame, altitude_m, ve, vn, vertical_rate_mps, sat, cfg):
    """(F_up/c) * (v_s - v_x) . (p_x - p_s) / |p_x - p_s|."""
    vx, vy, vz = _ecef_velocity(frame, ve, vn, vertical_rate_mps)
    position, (sx, sy, sz) = sat
    return cfg.uplink_hz / SPEED_OF_LIGHT_MPS * _los_rate(
        xp, (sx - vx, sy - vy, sz - vz), position, _ecef_position(frame, altitude_m)
    )


def _compensation(xp, frame, ve, vn, slot, cfg):
    """The terminal's own estimate: level flight at sea level, satellite
    fixed at the nominal slot."""
    return cfg.uplink_hz / SPEED_OF_LIGHT_MPS * _los_rate(
        xp,
        _ecef_velocity(frame, ve, vn, 0.0),
        slot.ecef,
        _ecef_position(frame, 0.0),
    )


def _downlink(sat, cfg):
    """Satellite motion along the satellite -> ground-station line of sight."""
    return cfg.downlink_hz / SPEED_OF_LIGHT_MPS * _los_rate(math, sat.velocity, sat.position, cfg.ges_ecef)


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
    Doppler, correction, bias) are computed once, as floats.
    """
    if _any(ground_speed_mps < 0):
        raise DomainError("ground speed must be >= 0")
    frame = _frame(xp, latitude_deg, longitude_deg)
    ve, vn = _east_north(xp, ground_speed_mps, track_angle_deg)
    terms = BfoTerms(
        uplink_doppler_hz=_uplink(xp, frame, altitude_m, ve, vn, vertical_rate_mps, sat, cfg),
        downlink_doppler_hz=_downlink(sat, cfg),
        aes_compensation_hz=_compensation(xp, frame, ve, vn, slot, cfg),
        sat_plus_afc_hz=deterministic_correction_at(t, corrections),
        bias_hz=bias_hz,
    )
    if not _all(xp.isfinite(terms.total_hz)):
        raise DomainError("predicted BFO is not finite")
    return terms


def predict_bfo(
    aircraft: AircraftState,
    sat: SatelliteState,
    corrections: CorrectionTable,
    bias_hz: float,
    cfg: ChannelConfig,
    slot: NominalSlot = NominalSlot(),
) -> tuple[float, BfoTerms]:
    """Predicted BFO (Hz) and its exact additive decomposition."""
    p, k = aircraft.position, aircraft.kinematics
    terms = _bfo_terms(
        math, p.latitude_deg, p.longitude_deg, p.altitude_m,
        k.ground_speed_mps, k.track_angle_deg, k.vertical_rate_mps,
        aircraft.timestamp, sat, corrections, bias_hz, cfg, slot,
    )
    return terms.total_hz, terms


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
    # Non-finite inputs raise DomainError in the kernel, without numpy's warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        return _bfo_terms(np, *state, t, sat, corrections, bias_hz, cfg, slot)


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
    return sum(residuals) / len(residuals)
