"""End-of-flight descent-rate bounding from the last two logged BFOs.

Two hypotheses are carried through in parallel: the SATCOM outage that
preceded the final log-on was a power interruption (so warm-up drift
bounds must be removed from the recorded BFOs) or it was something else
(no drift adjustment). Either way the BFO noise bounds widen the result.
The gap between the expected level-flight BFO and the adjusted range,
divided by the vertical-Doppler sensitivity, bounds the descent rate per
track assumption; hypothesis envelopes give outer bounds, and midpoint
differencing across the two final messages estimates the downward
acceleration.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import CheckedTuple, DomainError
from .stats import MessageType, NoiseBounds
from .timestamps import format_time_utc
from .units import FPM_TO_MPS, G_MPS2
from .warmup import DriftBounds

# Longest plausible gap between a log-on request and its acknowledgment;
# the historical log-on sequences show 6-8 s.
MAX_LOGON_ACK_GAP_S = 60.0
MESSAGES = ("logon", "ack")


class Hypothesis(Enum):
    POWER_OUTAGE = "power_outage"
    OTHER_CAUSE = "other_cause"


class BfoRange(CheckedTuple, NamedTuple("_RangeFields", [("lower_hz", float), ("upper_hz", float)])):
    __slots__ = ()

    def __new__(cls, lower_hz, upper_hz):
        if lower_hz > upper_hz:
            raise DomainError("BFO range out of order")
        return tuple.__new__(cls, (lower_hz, upper_hz))


def round_to_fpm(rate: float, quantum: float = 100.0) -> float:
    """Round half away from zero to the nearest ``quantum`` fpm."""
    return math.copysign(math.floor(abs(rate) / quantum + 0.5) * quantum, rate)


def drift_removed_range(recorded_hz: float, message: str, drift: DriftBounds) -> BfoRange:
    """Recorded BFO with the warm-up drift range subtracted (no noise)."""
    if message == "logon":
        dmin, dmax = drift.logon_minus_settled
    elif message == "ack":
        dmin, dmax = drift.ack_minus_settled
    else:
        raise DomainError(f"message must be 'logon' or 'ack', got {message!r}")
    return BfoRange(recorded_hz - dmax, recorded_hz - dmin)


def adjusted_bfo_range(
    recorded_hz: float,
    message: str,
    hypothesis: Hypothesis,
    drift: DriftBounds | None,
    noise: NoiseBounds,
) -> BfoRange:
    """Steady-state-equivalent BFO range for one recorded value.

    Under the power-outage hypothesis the warm-up drift range is removed
    first; under the other-cause hypothesis the recorded value stands.
    The error convention (error = predicted - measured within the noise
    bounds) then widens the range by [-noise.upper, -noise.lower].
    """
    if hypothesis is Hypothesis.POWER_OUTAGE:
        if drift is None:
            raise DomainError("power-outage hypothesis requires drift bounds")
        base = drift_removed_range(recorded_hz, message, drift)
    else:
        if message not in MESSAGES:
            raise DomainError(f"message must be 'logon' or 'ack', got {message!r}")
        base = BfoRange(recorded_hz, recorded_hz)
    return BfoRange(base.lower_hz - noise.upper_hz, base.upper_hz - noise.lower_hz)


def _envelope(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """The smallest ``(low, high)`` range holding both ranges."""
    return min(a[0], b[0]), max(a[1], b[1])


class DescentRates(CheckedTuple, NamedTuple("_RatesFields", [("south_fpm", tuple), ("north_fpm", tuple)])):
    """Descent-rate bounds (fpm, positive down) per track assumption, each ``(low, high)``."""

    __slots__ = ()

    def __new__(cls, south_fpm, north_fpm):
        if south_fpm[0] > south_fpm[1] or north_fpm[0] > north_fpm[1]:
            raise DomainError("descent-rate bounds out of order")
        return tuple.__new__(cls, (south_fpm, north_fpm))

    outer_fpm = property(lambda self: _envelope(self.south_fpm, self.north_fpm))


def descent_rate_bounds(
    expected_south_hz: float,
    expected_north_hz: float,
    adjusted: BfoRange,
    sensitivity_hz_per_100fpm: float,
    rounding_fpm: float | None = 100.0,
) -> DescentRates:
    """Descent-rate bounds implied by an adjusted BFO range.

    Each Hz below the expected level-flight BFO corresponds to
    100/sensitivity fpm of descent. ``rounding_fpm=None`` disables the
    nearest-100-fpm rounding used for table reproduction.
    """
    if sensitivity_hz_per_100fpm <= 0:
        raise DomainError("sensitivity must be positive")

    def rate(expected, bfo):
        r = (expected - bfo) / sensitivity_hz_per_100fpm * 100.0
        if rounding_fpm and math.isfinite(r):
            r = round_to_fpm(r, rounding_fpm)
        if not math.isfinite(r):
            raise DomainError("descent rate is not finite")
        return r

    return DescentRates(
        south_fpm=(rate(expected_south_hz, adjusted.upper_hz), rate(expected_south_hz, adjusted.lower_hz)),
        north_fpm=(rate(expected_north_hz, adjusted.upper_hz), rate(expected_north_hz, adjusted.lower_hz)),
    )


class DescentBoundsTable(CheckedTuple, NamedTuple("_TableFields", [("times", tuple), ("rates", tuple)])):
    """Descent-rate bounds per timestamp: ``rates[i]``, a :class:`DescentRates`, holds at ``times[i]``."""

    __slots__ = ()

    def __new__(cls, times, rates):
        if len(times) != len(rates):
            raise DomainError("times and rates must match")
        return tuple.__new__(cls, (times, rates))

    def row(self, t: float) -> DescentRates:
        """The first row whose time equals ``t`` exactly (NaN equals none)."""
        for ti, r in zip(self.times, self.rates):
            if ti == t:
                return r
        raise DomainError(f"no row at time {t}")


def combine_hypotheses(h1: DescentBoundsTable, h2: DescentBoundsTable) -> DescentBoundsTable:
    """Per-timestamp envelope of two bounds tables (outer bounds)."""
    if h1.times != h2.times:
        raise DomainError("bounds tables cover different timestamps")
    return DescentBoundsTable(h1.times, tuple(
        DescentRates(_envelope(a.south_fpm, b.south_fpm), _envelope(a.north_fpm, b.north_fpm))
        for a, b in zip(h1.rates, h2.rates)
    ))


class AccelerationEstimate(NamedTuple):
    fpm_per_s: float
    mps2: float
    g: float


def estimate_downward_acceleration(bounds: DescentBoundsTable, t1: float, t2: float) -> AccelerationEstimate:
    """Average downward acceleration between two bounded timestamps, from
    the midpoints of their outer bounds."""
    if not t2 > t1:
        raise DomainError(f"need t2 after t1, got t1={t1}, t2={t2}")

    def midpoint(t):
        low, high = bounds.row(t).outer_fpm
        return low / 2.0 + high / 2.0  # halved first, so bounds near the float limit do not overflow

    fpm_per_s = (midpoint(t2) - midpoint(t1)) / (t2 - t1)
    if not math.isfinite(fpm_per_s):
        raise DomainError("acceleration is not finite")
    mps2 = fpm_per_s * FPM_TO_MPS
    return AccelerationEstimate(fpm_per_s, mps2, mps2 / G_MPS2)


def final_logon_pair(measurements):
    """The last log-on acknowledgment and the last request before it,
    as ``(request, ack)``."""
    acks = [m for m in measurements if m.message_type is MessageType.LOGON_ACK]
    if not acks:
        raise DomainError("log holds no log-on acknowledgment")
    ack = acks[-1]
    requests = [
        m for m in measurements if m.message_type is MessageType.LOGON_REQUEST and m.timestamp < ack.timestamp
    ]
    if not requests:
        raise DomainError("log holds no log-on request before its last acknowledgment")
    request = requests[-1]
    if ack.timestamp - request.timestamp > MAX_LOGON_ACK_GAP_S:
        raise DomainError(
            f"final log-on acknowledgment at {format_time_utc(ack.timestamp)} comes more than"
            f" {MAX_LOGON_ACK_GAP_S:g} s after the last request, at {format_time_utc(request.timestamp)}"
        )
    return request, ack


class HypothesisBounds(NamedTuple):
    """One hypothesis's BFO ranges and rate table, one entry per message in :data:`MESSAGES`."""

    drift_removed: tuple[BfoRange, BfoRange] | None  # None under the other-cause hypothesis
    noise_extended: tuple[BfoRange, BfoRange]
    table: DescentBoundsTable


class DescentAnalysis(NamedTuple):
    """The descent result for the final log-on pair; ``combined`` and
    ``acceleration`` are None unless both hypotheses ran."""

    times: tuple[float, float]
    recorded: tuple[float, float]
    hypotheses: dict[Hypothesis, HypothesisBounds]
    combined: DescentBoundsTable | None
    acceleration: AccelerationEstimate | None


def analyze(
    pair, drift: DriftBounds | None, noise: NoiseBounds,
    expected_south_hz: float, expected_north_hz: float, sensitivity_hz_per_100fpm: float, hypotheses,
) -> DescentAnalysis:
    """Descent-rate bounds and acceleration from the final log-on pair.

    ``pair`` is the ``(request, ack)`` from :func:`final_logon_pair`;
    ``hypotheses`` are run in the order given. The power-outage
    hypothesis needs ``drift``.
    """
    times = (pair[0].timestamp, pair[1].timestamp)
    recorded = (pair[0].bfo_hz, pair[1].bfo_hz)
    results = {}
    for hyp in hypotheses:
        extended = tuple(adjusted_bfo_range(rec, msg, hyp, drift, noise) for msg, rec in zip(MESSAGES, recorded))
        removed = None
        if hyp is Hypothesis.POWER_OUTAGE:
            removed = tuple(drift_removed_range(rec, msg, drift) for msg, rec in zip(MESSAGES, recorded))
        rates = tuple(
            descent_rate_bounds(expected_south_hz, expected_north_hz, adj, sensitivity_hz_per_100fpm)
            for adj in extended
        )
        results[hyp] = HypothesisBounds(removed, extended, DescentBoundsTable(times, rates))
    combined = acceleration = None
    if len(results) == len(Hypothesis):
        combined = combine_hypotheses(*(bounds.table for bounds in results.values()))
        acceleration = estimate_downward_acceleration(combined, *times)
    return DescentAnalysis(times, recorded, results, combined, acceleration)
