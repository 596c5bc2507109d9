"""Linear trend of measured BFOs over the cruise and extrapolation.

An ordinary least-squares line is fitted to the measured BFOs inside a
time window and extended forward (or backward) to estimate the BFO that
level flight would have produced at other times. Track-dependent offsets
from the track sweep turn the extrapolated value into an expected BFO
for a given track sector.
"""

import math
import warnings
from typing import NamedTuple

from .errors import DomainError
from .stats import ordered_sum

EXTRAPOLATION_WARN_HOURS = 2.0


class TrendModel(NamedTuple):
    """Least-squares BFO line. The intercept is the line value at the
    window start (the reference epoch); slope is Hz per hour."""

    slope_hz_per_hour: float
    intercept_hz: float
    fit_window: tuple[float, float]
    residual_rms_hz: float

    def value_at(self, t: float) -> float:
        hours = (t - self.fit_window[0]) / 3600.0
        return self.slope_hz_per_hour * hours + self.intercept_hz


def fit_linear_trend(measurements, window: tuple[float, float]) -> TrendModel:
    """Fit the OLS BFO line over measurements inside ``window`` (inclusive),
    in closed form on hours centred on their mean."""
    t0, t1 = window
    if not t0 < t1:
        raise DomainError("fit window must have t_start < t_end")
    in_window = [m for m in measurements if t0 <= m.timestamp <= t1]
    hours = [(m.timestamp - t0) / 3600.0 for m in in_window]
    bfos = [m.bfo_hz for m in in_window]
    if len(set(hours)) < 2:
        raise DomainError("trend fit needs at least 2 in-window measurements with distinct times")
    mean_h, mean_y = ordered_sum(hours) / len(hours), ordered_sum(bfos) / len(bfos)
    dh = [h - mean_h for h in hours]
    slope = ordered_sum(d * (y - mean_y) for d, y in zip(dh, bfos)) / ordered_sum(d * d for d in dh)
    try:
        rms = math.sqrt(ordered_sum((y - mean_y - slope * d) ** 2 for d, y in zip(dh, bfos)) / len(dh))
    except OverflowError:
        raise DomainError("trend residuals overflow") from None
    return TrendModel(slope, mean_y - slope * mean_h, (float(t0), float(t1)), rms)


def extrapolate(model: TrendModel, t: float) -> float:
    """Evaluate the trend line at UTC second ``t``.

    Extrapolation beyond the fit window is the intended use; a warning is
    emitted when ``t`` lies more than 2 hours outside it.
    """
    t0, t1 = model.fit_window
    overshoot_h = max(t0 - t, t - t1) / 3600.0
    if overshoot_h > EXTRAPOLATION_WARN_HOURS:
        warnings.warn(
            f"extrapolating {overshoot_h:.1f} h beyond the fit window", stacklevel=2
        )
    return model.value_at(t)
