"""BFO error statistics and quality-based outlier flagging.

The BFO error convention is predicted minus measured. Error statistics
over reference flights are summarized by sample moments and strict
min/max bounds; individual bursts are flagged untrustworthy when they
show both a non-zero bit error rate and a clear carrier-to-noise drop
relative to neighboring bursts.
"""

import math
from enum import Enum
from typing import NamedTuple

from .errors import CheckedTuple, DomainError, require_finite

DEFAULT_CN0_DROP_DB = 3.0
DEFAULT_CN0_WINDOW = 5


class Channel(str, Enum):
    R = "R"
    T = "T"
    C = "C"
    P = "P"


class MessageType(str, Enum):
    LOGON_REQUEST = "logon_request"
    LOGON_ACK = "logon_ack"
    DATA = "data"
    PHONE = "phone"
    INTERROGATION = "interrogation"
    OTHER = "other"


class _BurstFields(NamedTuple):
    timestamp: float
    channel: Channel
    message_type: MessageType
    bfo_hz: float
    bto_us: float | None
    ber: float
    cn0_dbhz: float
    signal_db: float | None


class BfoMeasurement(CheckedTuple, _BurstFields):
    """One logged burst, as an immutable tuple of its fields."""

    __slots__ = ()

    def __new__(cls, timestamp, channel, message_type, bfo_hz, bto_us=None, ber=0.0, cn0_dbhz=0.0,
                signal_db=None):
        if not math.isfinite(bfo_hz):
            raise DomainError("BFO must be finite")
        if not (math.isfinite(ber) and ber >= 0):
            raise DomainError("BER must be finite and >= 0")
        if not math.isfinite(cn0_dbhz):
            raise DomainError("C/N0 must be finite")
        return tuple.__new__(cls, (timestamp, channel, message_type, bfo_hz, bto_us, ber, cn0_dbhz, signal_db))


class ErrorStats(NamedTuple):
    mean_hz: float
    std_hz: float
    min_hz: float
    max_hz: float
    count: int


class NoiseBounds(CheckedTuple, NamedTuple("_NoiseFields", [("lower_hz", float), ("upper_hz", float)])):
    """Strict bounds on the BFO error (predicted minus measured), Hz."""

    __slots__ = ()

    def __new__(cls, lower_hz, upper_hz):
        require_finite(lower_hz=lower_hz, upper_hz=upper_hz)
        if lower_hz > upper_hz:
            raise DomainError("noise bounds out of order")
        return tuple.__new__(cls, (lower_hz, upper_hz))


def bfo_error(predicted_hz: float, measured_hz: float) -> float:
    """BFO error: predicted minus measured, Hz."""
    return predicted_hz - measured_hz


def ordered_sum(values) -> float:
    """The sum of ``values`` added left to right from 0.0, in the order that Python 3.10 and 3.11's ``sum``
    adds floats; 3.12 made ``sum`` compensated, which moves the last digit of some sums."""
    total = 0.0
    for value in values:
        total += value
    return total


def compute_error_stats(errors) -> ErrorStats:
    """Sample mean/std (n-1 denominator), min and max of BFO errors."""
    import statistics  # no subcommand calls this, so its imports stay off the cold path

    values = [float(e) for e in errors]
    if len(values) < 2:
        raise DomainError("error statistics need at least 2 samples")
    return ErrorStats(
        mean_hz=statistics.fmean(values),
        std_hz=statistics.stdev(values),
        min_hz=min(values),
        max_hz=max(values),
        count=len(values),
    )


def flag_outliers(
    measurements,
    cn0_drop_threshold_db: float = DEFAULT_CN0_DROP_DB,
    window: int = DEFAULT_CN0_WINDOW,
) -> list[bool]:
    """Flag bursts whose BFO should not be trusted.

    A burst is flagged iff it has non-zero BER *and* its C/N0 sits at
    least ``cn0_drop_threshold_db`` below the median C/N0 of its
    neighboring bursts (up to ``window`` bursts centered on it, self
    excluded). Zero-BER bursts are never flagged.
    """
    ms = list(measurements)
    half = max(window // 2, 0)
    flags = []
    for i, m in enumerate(ms):
        if m.ber <= 0:
            flags.append(False)
            continue
        neighbors = [x.cn0_dbhz for x in ms[max(0, i - half) : i] + ms[i + 1 : i + 1 + half]]
        if not neighbors:
            flags.append(False)
            continue
        neighbors.sort()  # the median, by statistics.median's arithmetic
        mid = len(neighbors) // 2
        drop = (neighbors[mid] if len(neighbors) % 2 else (neighbors[mid - 1] + neighbors[mid]) / 2) - m.cn0_dbhz
        flags.append(drop >= cn0_drop_threshold_db)
    return flags
