"""Oscillator warm-up drift extracted from terminal log-on BFO sequences.

After a power interruption the terminal's oven-controlled oscillator
restarts high and decays to a settled value over a few minutes, which
inflates the BFOs logged right after a log-on. Each sequence is
normalized so its log-on acknowledgment reads 0 Hz, halved when the
terminal was using closed-loop Doppler compensation (which doubles the
apparent oscillator offset), and reduced to three drift statistics:
log-on minus settled, acknowledgment minus settled, and acknowledgment
below log-on. Ranges of those statistics over a set of historical
sequences bound the warm-up contribution to a later log-on's BFO.
"""

from enum import Enum
from typing import NamedTuple

from .errors import CheckedTuple, DomainError
from .stats import BfoMeasurement, MessageType, flag_outliers

SETTLE_TOLERANCE_HZ = 3.0
SETTLE_MIN_ELAPSED_S = 120.0


class CompensationMode(str, Enum):
    OPEN_LOOP = "open_loop"
    CLOSED_LOOP = "closed_loop"


class _LogonFields(NamedTuple):
    id: str
    measurements: tuple[BfoMeasurement, ...]
    compensation_mode: CompensationMode
    outage_bounds_min: tuple[float, float] | None  # minutes (min, max)
    notes: str
    settled_proxy: bool  # final sample stands in for the settled value


class LogonSequence(CheckedTuple, _LogonFields):
    """Ordered BFO measurements following one terminal log-on."""

    __slots__ = ()

    def __new__(cls, id, measurements, compensation_mode, outage_bounds_min=None, notes="", settled_proxy=False):
        if not measurements:
            raise DomainError(f"log-on {id}: empty sequence")
        times = [m.timestamp for m in measurements]
        if any(b < a for a, b in zip(times, times[1:])):
            raise DomainError(f"log-on {id}: measurements not time-ordered")
        if measurements[0].message_type is not MessageType.LOGON_REQUEST:
            raise DomainError(f"log-on {id}: first message must be a log-on request")
        if outage_bounds_min is not None:
            lo, hi = outage_bounds_min
            if lo > hi:
                raise DomainError(f"log-on {id}: outage bounds out of order")
        return tuple.__new__(cls, (id, measurements, compensation_mode, outage_bounds_min, notes, settled_proxy))

    @property
    def logon_time(self) -> float:
        """UTC seconds of the log-on request, the first measurement."""
        return self.measurements[0].timestamp


class DriftBounds(CheckedTuple, NamedTuple("_DriftFields", [
    ("logon_minus_settled", tuple), ("ack_minus_settled", tuple), ("ack_below_logon", tuple)
])):
    """Warm-up drift ranges (Hz) over a set of log-on sequences, each ``(low, high)``."""

    __slots__ = ()

    def __new__(cls, logon_minus_settled, ack_minus_settled, ack_below_logon):
        for lo, hi in (logon_minus_settled, ack_minus_settled, ack_below_logon):
            if lo > hi:
                raise DomainError("drift bounds out of order")
        return tuple.__new__(cls, (logon_minus_settled, ack_minus_settled, ack_below_logon))

    def as_dict(self) -> dict:
        return {f"{name}_hz": list(bounds) for name, bounds in zip(self._fields, self)}


def normalize_to_ack(seq: LogonSequence) -> list[tuple[float, float]]:
    """Relative BFO curve for one sequence: (seconds since log-on,
    BFO minus acknowledgment BFO).

    Bursts flagged untrustworthy are dropped first; the acknowledgment
    itself therefore maps to exactly 0 Hz.
    """
    flags = flag_outliers(seq.measurements)
    kept = [m for m, bad in zip(seq.measurements, flags) if not bad]
    acks = [m for m in kept if m.message_type is MessageType.LOGON_ACK]
    if not acks:
        raise DomainError(f"log-on {seq.id}: no trusted log-on acknowledgment")
    ack_bfo = acks[0].bfo_hz
    return [(m.timestamp - seq.logon_time, m.bfo_hz - ack_bfo) for m in kept]


def apply_compensation_scaling(curve, mode: CompensationMode) -> list[tuple[float, float]]:
    """Halve a relative curve recorded under closed-loop compensation
    (which doubles the apparent oscillator offset); identity otherwise."""
    factor = 0.5 if mode is CompensationMode.CLOSED_LOOP else 1.0
    return [(t, v * factor) for t, v in curve]


def settled_value(seq: LogonSequence, curve) -> float:
    """Settled relative BFO for one scaled curve.

    A sequence settles when its last two samples agree within 3 Hz and
    the last sample is at least 120 s after the log-on. Sequences that
    end too early must carry the ``settled_proxy`` annotation, in which
    case the final sample stands in (conservative for short sequences).
    """
    if len(curve) >= 2:
        (t_prev, v_prev), (t_last, v_last) = curve[-2], curve[-1]
        if t_last >= SETTLE_MIN_ELAPSED_S and abs(v_last - v_prev) <= SETTLE_TOLERANCE_HZ:
            return v_last
    if seq.settled_proxy:
        return curve[-1][1]
    raise DomainError(
        f"log-on {seq.id}: sequence does not settle and carries no settled-proxy annotation"
    )


def extract_drift_bounds(sequences) -> DriftBounds:
    """Drift-statistic ranges over a set of log-on sequences.

    Per sequence (after normalization and compensation scaling): the
    log-on value is the first retained sample, the acknowledgment is 0 by
    construction, and the settled value comes from ``settled_value``.
    """
    seqs = list(sequences)
    if not seqs:
        raise DomainError("no log-on sequences")
    logon_minus_settled, ack_minus_settled, ack_below_logon = [], [], []
    for seq in seqs:
        curve = apply_compensation_scaling(normalize_to_ack(seq), seq.compensation_mode)
        logon_rel = curve[0][1]
        settled = settled_value(seq, curve)
        logon_minus_settled.append(logon_rel - settled)
        ack_minus_settled.append(0.0 - settled)
        ack_below_logon.append(logon_rel)
    return DriftBounds(
        (min(logon_minus_settled), max(logon_minus_settled)),
        (min(ack_minus_settled), max(ack_minus_settled)),
        (min(ack_below_logon), max(ack_below_logon)),
    )
