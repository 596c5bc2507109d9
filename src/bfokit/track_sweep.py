"""BFO error as a function of assumed track angle at an arc crossing.

For a fixed crossing point, time and ground speed, the predicted BFO is
evaluated for level flight on every track angle and compared against the
measured BFO. The curve's sector extrema give the track-dependent
offsets used to build expected BFOs for south and north tracks.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .bfo_model import ChannelConfig, predict_bfo_batch
from .errors import DomainError, require_finite
from .geodesy import GeodeticPosition
from .satellite import CorrectionTable, EphemerisTable, NominalSlot, satellite_state_at
from .units import KNOTS_TO_MPS  # noqa: F401  (re-exported)


class TrackSector(Enum):
    SOUTH = "south"
    NORTH = "north"


def bfo_error_vs_track(
    crossing: GeodeticPosition,
    t: float,
    ground_speed_mps: float,
    measured_bfo_hz: float,
    ephemeris: EphemerisTable,
    corrections: CorrectionTable,
    bias_hz: float,
    cfg: ChannelConfig,
    slot: NominalSlot = NominalSlot(),
    step_deg: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """BFO error (predicted minus measured, Hz) for level flight at the crossing
    point, as columns ``(track_deg, error_hz)`` over track angles 0..360 inclusive.

    ``step_deg`` must divide 360 and be no finer than 0.001 deg. Both
    endpoints are emitted so the curve's periodicity is visible in the output.
    """
    require_finite(step_deg=step_deg, ground_speed_mps=ground_speed_mps, measured_bfo_hz=measured_bfo_hz)
    if step_deg <= 0:
        raise DomainError("step must be positive")
    steps = 360.0 / step_deg
    if steps > 360_000.5:  # checked before any array is built; also catches inf
        raise DomainError(f"step_deg {step_deg} gives more than 360,001 points (finer than 0.001 deg)")
    if abs(steps - round(steps)) > 1e-9:
        raise DomainError(f"step {step_deg} does not divide 360")

    tracks = np.arange(int(round(steps)) + 1) * step_deg
    terms = predict_bfo_batch(
        crossing.latitude_deg,
        crossing.longitude_deg,
        crossing.altitude_m,
        ground_speed_mps,
        tracks % 360.0,
        0.0,
        t,
        satellite_state_at(t, ephemeris),
        corrections,
        bias_hz,
        cfg,
        slot,
    )
    return tracks, terms.total_hz - measured_bfo_hz


def peak_to_peak(curve) -> float:
    errors = np.asarray(curve[1], dtype=float)
    if not errors.size:
        raise DomainError("empty curve")
    return float(errors[errors.argmax()]) - float(errors[errors.argmin()])  # the first of ties, as max() and min()


def track_offset(curve, sector: TrackSector) -> float:
    """Offset (Hz) at the extremum of the curve ``(tracks, errors)`` within a track sector.

    South tracks (90..270 deg) take the minimum-BFO point, north tracks
    (270..360 and 0..90) the maximum.
    """
    tracks, errors = (np.asarray(c, dtype=float) for c in curve)
    if not tracks.size:
        raise DomainError("empty curve")
    a, south = tracks % 360.0, sector is TrackSector.SOUTH
    sel = errors[(90.0 <= a) & (a <= 270.0) if south else (a <= 90.0) | (a >= 270.0)]
    if not sel.size:
        raise DomainError(f"curve has no {sector.value}-sector points")
    return float(sel[sel.argmin() if south else sel.argmax()])
