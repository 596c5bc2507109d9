"""ISO-8601 Zulu timestamps as float UTC seconds: the canonical form read and written a
column at a time (:func:`parse_time_column`, :func:`format_time_column`), every other form
and every error through ``strptime``."""

import math
from datetime import date, datetime, timezone
from functools import lru_cache
from itertools import repeat
from operator import itemgetter

from .errors import DomainError

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


@lru_cache(maxsize=4096)
def _hour_start(prefix: str) -> int | None:
    """UTC seconds at the start of the hour ``YYYY-MM-DDTHH``, its digits
    already checked to be ASCII, or None if that hour does not exist."""
    try:
        hour = datetime(int(prefix[:4]), int(prefix[5:7]), int(prefix[8:10]), int(prefix[11:]))
    except ValueError:
        return None
    return (hour.toordinal() - _EPOCH_ORDINAL) * 86400 + hour.hour * 3600


_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")


def _full_form_column(cells: list[str]) -> list[float] | None:
    """UTC seconds of stripped ``cells`` of the form ``YYYY-MM-DDTHH:MM[:SS[.f{1,6}]]Z``, or None.

    The cells of each length take one pass: one translation of their comma-joined bytes checks every
    separator, ASCII digit and length, and :func:`_hour_start` converts each hour of text once.
    The integer formula is ``datetime.timestamp()``'s, so each value is the ``strptime`` path's."""
    lengths = list(map(len, cells))
    if len(set(lengths)) > 1:
        values = [None] * len(cells)
        for n in set(lengths):
            at = [i for i, length in enumerate(lengths) if length == n]
            part = _full_form_column([cells[i] for i in at])
            if part is None:
                return None
            for i, value in zip(at, part):
                values[i] = value
        return values
    n, k = lengths[0], len(cells)
    s = ",".join(cells)
    if not (n == 17 or n == 20 or 22 <= n <= 27) or not s.isascii():
        return None
    b, m = s.encode(), n + 1  # the bytes of cell i start at i * m
    shape = (b"0000-00-00T00:00:00.000000"[:n - 1] + b"Z,") * k
    if b.translate(_DIGITS_TO_ZERO) != shape[:-1] or max(b[14::m]) > 53 or n > 17 and max(b[17::m]) > 53:
        return None  # 53 is "5": a minute or second of 60 or more
    starts = list(map(_hour_start, map(itemgetter(slice(13)), cells)))
    if None in starts:
        return None
    seconds = (b[17::m], b[18::m]) if n > 17 else (b"0" * k,) * 2
    fractions = map(int, map(itemgetter(slice(20, -1)), cells)) if n > 20 else repeat(0)
    return list(map(_time_value, starts, b[14::m], b[15::m], *seconds, fractions, repeat(10 ** (27 - n))))


def _time_value(start, m1, m2, s1, s2, fraction, scale):
    """UTC seconds from an hour's start, the minute and second digits' ASCII codes ("0" is 48) and a fraction."""
    return ((start + 600 * m1 + 60 * m2 + 10 * s1 + s2 - 32208) * 10**6 + fraction * scale) / 10**6


def parse_time_utc(text: str, reference_date: date | None = None) -> float:
    """Parse an ISO-8601 Zulu timestamp to UTC seconds.

    Accepts full timestamps (``2014-03-07T16:42:00Z``) and, when
    ``reference_date`` is given, time-of-day shorthand (``00:19:29Z``).
    Shorthand resolves on a noon-to-noon UTC window: hours >= 12 fall on
    the reference date, hours < 12 on the day after.

    The canonical full form is read as a one-cell column; everything else
    (unpadded fields, shorthand, every error) goes through ``strptime``.
    A time in year 10000, such as the last ~15 µs of year 9999 (rounded)
    or a morning shorthand after 9999-12-31, raises :class:`DomainError`:
    :func:`format_time_utc` cannot write it.
    """
    s = text.strip()
    values = _full_form_column([s])
    value = values[0] if values else _parse_with_strptime(text, s, reference_date)
    if value >= _END_SECOND:
        raise DomainError(f"timestamp {text!r} is past the last writable microsecond of year 9999")
    return value


def parse_time_column(cells: list[str]) -> list[float]:
    """:func:`parse_time_utc` of each of the stripped ``cells``, in one pass when all are canonical and
    before year 10000; any other column is read a cell at a time, and its first bad cell raises."""
    values = _full_form_column(cells) if cells else []
    if values is None or values and max(values) >= _END_SECOND:
        return list(map(parse_time_utc, cells))
    return values


def _parse_with_strptime(text: str, s: str, reference_date: date | None) -> float:
    """:func:`parse_time_utc` of ``s``, the stripped ``text``, for every other form and every error."""
    if not s.endswith("Z"):
        raise DomainError(f"timestamp {text!r} must be UTC ('Z' suffix)")
    body = s[:-1]
    if "T" in body:
        for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%dT%H:%M:%S.%f", "%Y-%m-%dT%H:%M"):
            try:
                dt = datetime.strptime(body, fmt).replace(tzinfo=timezone.utc)
                return dt.timestamp()
            except ValueError:
                continue
        raise DomainError(f"unparsable timestamp {text!r}")
    if reference_date is None:
        raise DomainError(f"shorthand time {text!r} needs a reference date")
    for fmt in ("%H:%M:%S", "%H:%M"):
        try:
            t = datetime.strptime(body, fmt).time()
        except ValueError:
            continue
        days = reference_date.toordinal() - _EPOCH_ORDINAL + (t.hour < 12)  # by ordinal: no year-10000 date
        return float(days * 86400 + t.hour * 3600 + t.minute * 60 + t.second)
    raise DomainError(f"unparsable timestamp {text!r}")


_FIRST_SECOND = -62135596800  # 0001-01-01T00:00:00Z
_END_SECOND = 253402300800  # 10000-01-01T00:00:00Z
_MINUTES = [f"{i:02d}:" for i in range(60)]
_SECONDS = [f"{i:02d}Z" for i in range(60)]


@lru_cache(maxsize=1024)
def _hour_text(hours: int) -> str:
    """``YYYY-MM-DDTHH:`` of the hour ``hours`` after 1970-01-01T00Z."""
    days, hour = divmod(hours, 24)
    return f"{date.fromordinal(days + _EPOCH_ORDINAL).isoformat()}T{hour:02d}:"


def _whole_second_text(t: int) -> str:
    """The canonical text of ``t``, whole UTC seconds in years 1-9999."""
    return _hour_text(t // 3600) + _MINUTES[t // 60 % 60] + _SECONDS[t % 60]


def format_time_column(values) -> list[str]:
    """:func:`format_time_utc` of each of ``values``; whole seconds in years 1-9999 from per-hour prefixes."""
    if _FIRST_SECOND <= min(values, default=0) and max(values, default=0) < _END_SECOND and all(
            map(float.is_integer, map(float, values))):  # is_integer() is False for nan and inf
        return list(map(_whole_second_text, map(int, values)))
    return list(map(format_time_utc, values))


def format_time_utc(t: float) -> str:
    """ISO-8601 Zulu text of ``t``, rounded to the microsecond.

    ``t`` is split the way ``datetime.fromtimestamp`` splits it (whole
    seconds, then microseconds rounded half to even), so the text is that
    of ``fromtimestamp(t, timezone.utc).isoformat()``. Times outside years
    1-9999, infinities and NaN go to ``datetime``, which raises for them.
    """
    if not _FIRST_SECOND <= t < _END_SECOND:
        return datetime.fromtimestamp(t, tz=timezone.utc).isoformat()  # raises
    frac, whole = math.modf(t)
    seconds, micros = divmod(int(whole) * 1000000 + round(frac * 1e6), 1000000)
    text = _whole_second_text(seconds)
    return text[:-1] + f".{micros:06d}".rstrip("0") + "Z" if micros else text
