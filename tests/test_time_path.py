"""The per-burst time path against the implementations it replaced.

The oracles below are the code these functions replaced: the
``strptime``-only timestamp parser, the ``strftime`` and
``fromtimestamp().isoformat()`` formatters and the numpy Hermite and
correction lookups. The float-native code must agree
with them exactly: the same accepted strings, the same values to the bit,
the same text and the same errors.
"""

import math
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfokit.errors import DomainError, ParseError
from bfokit.geodesy import EcefVector
from bfokit.ingest import LOG_SCHEMA, _format_column, _parse_column, load_log_csv
from bfokit.satellite import (
    CorrectionTable,
    SatelliteState,
    SyntheticGeoModel,
    deterministic_correction_at,
    satellite_state_at,
)
from bfokit.timestamps import _full_form_column, _hour_start, format_time_utc, parse_time_utc

REF = date(2014, 3, 7)


# --- oracles -------------------------------------------------------------------

def oracle_parse_time_utc(text, reference_date=None):
    s = text.strip()
    if not s.endswith("Z"):
        raise DomainError(f"timestamp {text!r} must be UTC ('Z' suffix)")
    body = s[:-1]
    if "T" in body:
        for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%dT%H:%M:%S.%f", "%Y-%m-%dT%H:%M"):
            try:
                return datetime.strptime(body, fmt).replace(tzinfo=timezone.utc).timestamp()
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
        day = reference_date if t.hour >= 12 else reference_date + timedelta(days=1)
        return datetime.combine(day, t, tzinfo=timezone.utc).timestamp()
    raise DomainError(f"unparsable timestamp {text!r}")


def oracle_format_time_utc(t):
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    if not dt.microsecond:
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    return dt.strftime("%Y-%m-%dT%H:%M:%S.%f").rstrip("0") + "Z"


def oracle_isoformat_time_utc(t):
    text = datetime.fromtimestamp(t, tz=timezone.utc).isoformat()[:-6]  # drop "+00:00"
    if len(text) > 19:  # a non-zero microsecond
        text = text.rstrip("0")
    return text + "Z"


def oracle_segment_index(times, t):
    if not times[0] <= t <= times[-1]:
        raise DomainError(f"time {t} outside table span [{times[0]}, {times[-1]}] (no extrapolation)")
    return min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)


def oracle_satellite_state_at(t, e):
    i = oracle_segment_index(e.times, t)
    t0, t1 = e.times[i], e.times[i + 1]
    dt = t1 - t0
    s = (t - t0) / dt
    p0, p1 = e.positions[i], e.positions[i + 1]
    v0, v1 = e.velocities[i], e.velocities[i + 1]
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    pos = h00 * p0 + h10 * dt * v0 + h01 * p1 + h11 * dt * v1
    d00 = 6 * s**2 - 6 * s
    d10 = 3 * s**2 - 4 * s + 1
    d01 = -6 * s**2 + 6 * s
    d11 = 3 * s**2 - 2 * s
    vel = (d00 * p0 + d01 * p1) / dt + d10 * v0 + d11 * v1
    return SatelliteState(EcefVector(*pos.tolist()), EcefVector(*vel.tolist()))


def oracle_correction_at(t, c):
    times, values = np.array(c.time_list), np.array(c.value_list)
    if len(c) == 1:
        if t != times[0]:
            raise DomainError(f"time {t} outside single-row correction table")
        return float(values[0])
    i = oracle_segment_index(times, t)
    t0, t1 = times[i], times[i + 1]
    w = (t - t0) / (t1 - t0)
    return float((1.0 - w) * values[i] + w * values[i + 1])


def full_form(text):
    """``text`` read as a one-cell column of the canonical form: its value, or None."""
    values = _full_form_column([text])
    return values[0] if values else None


def outcome(f, *args):
    """The value, or the DomainError's text."""
    try:
        return f(*args)
    except DomainError as e:
        return ("DomainError", str(e))


# --- parse_time_utc ------------------------------------------------------------

SPOILS = ["none", "none", "none", "value", "unpadded", "digit", "sign", "fraction", "separator", "suffix"]
EDGES = {
    "Y": ["0000", "0001", "0999", "9999", "999", "20145"],
    "m": ["00", "12", "13"],
    "d": ["00", "29", "30", "31", "32"],
    "H": ["00", "23", "24"],
    "M": ["00", "59", "60"],
    "S": ["00", "59", "60", "61"],
}
OTHER_DIGITS = [
    lambda d: chr(0x660 + d),  # Arabic-Indic
    lambda d: chr(0xFF10 + d),  # fullwidth
    lambda d: "⁰¹²³⁴⁵⁶⁷⁸⁹"[d],  # superscript: isdigit() but not int()
]


@st.composite
def timestamps(draw):
    """A valid full or shorthand timestamp, with at most one thing spoiled:
    a value out of range, an unpadded field, a non-ASCII digit, a sign or
    space in a field, a fraction of 0 or 7 digits, the date/time separator
    or the Zulu suffix."""
    two = "{:02d}".format
    f = {
        "Y": "{:04d}".format(draw(st.integers(1, 9999))),
        "m": two(draw(st.integers(1, 12))),
        "d": two(draw(st.integers(1, 28))),
        "H": two(draw(st.integers(0, 23))),
        "M": two(draw(st.integers(0, 59))),
        "S": two(draw(st.integers(0, 59))),
        "f": draw(st.text("0123456789", min_size=1, max_size=6)),
    }
    seconds, fraction, full = draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 4)) > 0
    sep, suffix = "T", "Z"
    spoil = draw(st.sampled_from(SPOILS))
    key = draw(st.sampled_from("YmdHMSf"))
    if spoil == "value" and key in EDGES:
        f[key] = draw(st.sampled_from(EDGES[key]) | st.integers(0, 99).map(two))
    elif spoil == "unpadded" and key != "f":
        f[key] = str(int(f[key]))
    elif spoil == "digit":
        i = draw(st.integers(0, len(f[key]) - 1))
        f[key] = f[key][:i] + draw(st.sampled_from(OTHER_DIGITS))(int(f[key][i])) + f[key][i + 1:]
    elif spoil == "sign":
        f[key] = draw(st.sampled_from(["+", "-", " "])) + f[key][1:]
    elif spoil == "fraction":
        f["f"] = draw(st.sampled_from(["", "1234567", "0000000"]))
        seconds = fraction = True
    elif spoil == "separator":
        sep = draw(st.sampled_from(["t", " ", "TT"]))
    elif spoil == "suffix":
        suffix = draw(st.sampled_from(["", "z", "+00:00", "ZZ"]))
    text = f"{f['H']}:{f['M']}"
    if seconds:
        text += f":{f['S']}" + (f".{f['f']}" if fraction else "")
    if full:
        text = f"{f['Y']}-{f['m']}-{f['d']}{sep}{text}"
    return draw(st.sampled_from(["", " "])) + text + suffix + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=600, deadline=None)
@given(text=timestamps(), reference=st.sampled_from([None, REF]))
def test_parse_agrees_with_strptime_oracle(text, reference):
    got = outcome(parse_time_utc, text, reference)
    want = outcome(oracle_parse_time_utc, text, reference)
    assert got == want
    assert type(got) is type(want)


@settings(max_examples=300, deadline=None)
@given(us=st.integers(-62135596800 * 10**6, 253402300799 * 10**6 + 999999), digits=st.integers(0, 6))
def test_canonical_text_takes_the_fixed_position_path(us, digits):
    dt = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=us)
    text = dt.isoformat()[:19]
    if digits:
        text += "." + f"{dt.microsecond:06d}"[:digits]
    text += "Z"
    value = full_form(text)
    assert value is not None
    assert value == oracle_parse_time_utc(text)


@pytest.mark.parametrize("text", [
    "2014-3-07T16:42:00Z",  # unpadded month
    "2014-03-07T16:42:00.Z",  # empty fraction
    "2014-03-07T16:42:00.1234567Z",  # seven fraction digits
    "2014-03-07T24:00:00Z",
    "2014-03-07T16:60Z",
    "2014-03-07T16:42:60Z",
    "2014-02-30T00:00Z",
    "0000-01-01T00:00Z",
    "2014-03-07t16:42Z",
    "2014-03-07T16:42",
    "２014-03-07T16:42Z",
    "2014-03-07T1²:42Z",
    "2014-03-07T+1:42Z",
])
def test_other_text_goes_to_strptime(text):
    assert full_form(text) is None


# --- format_time_utc -----------------------------------------------------------

YEAR_1000 = datetime(1000, 1, 1, tzinfo=timezone.utc).timestamp()
YEAR_9999_END = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()


@settings(max_examples=400, deadline=None)
@given(t=st.one_of(
    st.floats(YEAR_1000, YEAR_9999_END),
    st.integers(int(YEAR_1000) * 10**6, int(YEAR_9999_END) * 10**6).map(lambda us: us / 1e6),
    st.floats(-1e6, 1e6),
))
def test_format_agrees_with_strftime_oracle(t):
    assert format_time_utc(t) == oracle_format_time_utc(t)


@pytest.mark.parametrize("t", [
    1394150400.9999993, 1394150400.9999997, 1394150400.5, 1394150400.000001,
    0.0, -0.0, -1.0, -0.5, -1e-7, -86400.25, YEAR_1000, YEAR_9999_END,
])
def test_format_edge_cases(t):
    assert format_time_utc(t) == oracle_format_time_utc(t)


@pytest.mark.parametrize("text", ["0001-01-01T00:00:00Z", "0999-12-31T23:59:59.5Z"])
def test_years_before_1000_keep_four_digits(text):
    # strftime("%Y") writes "999" here on glibc, text the parser rejects
    assert format_time_utc(parse_time_utc(text)) == text


# --- format_time_utc: the integer split against fromtimestamp().isoformat() -----

FIRST_SECOND = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
END_SECOND = FIRST_SECOND + (date(9999, 12, 31).toordinal() - date(1, 1, 1).toordinal() + 1) * 86400
TIE_BASES = [0, 1, -1, 59, -86400, 1394150400, 1394236799, FIRST_SECOND + 1, END_SECOND - 2]


@settings(max_examples=1000, deadline=None)
@given(t=st.one_of(
    st.floats(FIRST_SECOND, END_SECOND, exclude_max=True),
    st.integers(int(FIRST_SECOND) * 10**6, int(END_SECOND) * 10**6 - 1)
    .map(lambda us: us / 1e6).filter(lambda t: t < END_SECOND),
    st.integers(-10**6, 10**6).map(lambda k: 1394150400 + k / 2e6),
    st.floats(-1e6, 1e6),
))
def test_format_agrees_with_isoformat_oracle(t):
    assert format_time_utc(t) == oracle_isoformat_time_utc(t)


@pytest.mark.parametrize("base", TIE_BASES)
def test_format_half_microsecond_ties(base):
    for k in range(-9, 10):
        for t in (base + k / 2e6, -(base + k / 2e6)):
            if FIRST_SECOND <= t < END_SECOND:
                assert format_time_utc(t) == oracle_isoformat_time_utc(t), t


@pytest.mark.parametrize("t", [
    0.0, -0.0, -1e-7, -0.5e-6, 0.5e-6, 1.5e-6, -1.5e-6, -0.9999995, 0.9999995, -86400.0000005,
    FIRST_SECOND, math.nextafter(END_SECOND, 0.0), 1394150400.9999993, 1394150400.9999997,
])
def test_format_edges_agree_with_isoformat_oracle(t):
    assert format_time_utc(t) == oracle_isoformat_time_utc(t)


def raised(f, *args):
    """The value, or the type and text of any exception."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("text", ["0001-01-01T00:00:00Z", "0001-01-01T00:00:00.5Z", "9999-12-31T23:59:59Z"])
def test_format_both_ends_of_the_year_range(text):
    t = parse_time_utc(text)
    assert format_time_utc(t) == oracle_isoformat_time_utc(t) == text


def test_format_last_microsecond_of_year_9999_raises_as_datetime_does():
    # the nearest float is 10000-01-01T00:00:00Z, which datetime cannot hold;
    # parse_time_utc refuses the text, so the strptime oracle reads it
    t = oracle_parse_time_utc("9999-12-31T23:59:59.999999Z")
    assert t == END_SECOND
    assert raised(format_time_utc, t) == raised(oracle_isoformat_time_utc, t)
    assert raised(format_time_utc, t)[0] is ValueError


@pytest.mark.parametrize(("text", "fixed_offset"), [
    ("9999-12-31T23:59:59.999999Z", True),
    ("9999-12-31T23:59:59.999985Z", True),  # the earliest text that rounds up
    ("９999-12-31T23:59:59.999999Z", False),  # a fullwidth digit goes to strptime
])
def test_parse_refuses_text_that_rounds_to_year_10000(text, fixed_offset):
    assert (full_form(text) == END_SECOND) if fixed_offset else (full_form(text) is None)
    assert oracle_parse_time_utc(text) == END_SECOND
    with pytest.raises(DomainError, match="past the last writable microsecond of year 9999") as info:
        parse_time_utc(text)
    assert repr(text) in str(info.value)


def test_shorthand_before_noon_on_the_last_reference_date_is_refused():
    # the next day is 10000-01-01, which no date can hold
    last = date(9999, 12, 31)
    assert parse_time_utc("23:59:59Z", last) == oracle_parse_time_utc("23:59:59Z", last) == END_SECOND - 1
    with pytest.raises(DomainError, match="past the last writable microsecond of year 9999"):
        parse_time_utc("00:11Z", last)


def test_parse_keeps_the_last_text_that_rounds_below_year_10000():
    t = parse_time_utc("9999-12-31T23:59:59.999984Z")
    assert t == oracle_parse_time_utc("9999-12-31T23:59:59.999984Z") < END_SECOND
    assert format_time_utc(t) == oracle_isoformat_time_utc(t) == "9999-12-31T23:59:59.999969Z"


@pytest.mark.parametrize("t", [
    math.nan, math.inf, -math.inf, math.nextafter(FIRST_SECOND, -math.inf), END_SECOND, 1e20, -1e20,
])
def test_format_out_of_range_raises_as_datetime_does(t):
    got = raised(format_time_utc, t)
    assert got == raised(oracle_isoformat_time_utc, t)
    assert got[0] in (ValueError, OverflowError)


# --- the one-cell column: the hour-keyed cache --------------------------------------

def test_parse_within_one_hour_hits_the_cache():
    _hour_start.cache_clear()
    for minute in range(60):
        for second in range(60):
            for fraction in ("", ".5", f".{minute * 60 + second:06d}"):
                text = f"2014-03-07T18:{minute:02d}:{second:02d}{fraction}Z"
                assert full_form(text) == oracle_parse_time_utc(text)
    info = _hour_start.cache_info()
    assert info.misses == 1 and info.hits == 3 * 3600 - 1


@pytest.mark.parametrize("before, after", [
    ("2014-03-07T16:59:59.999999Z", "2014-03-07T17:00:00Z"),  # hour
    ("2014-03-07T23:59:59.999999Z", "2014-03-08T00:00:00Z"),  # day
    ("2014-02-28T23:59:59Z", "2014-03-01T00:00:00Z"),  # month
    ("2016-02-28T23:59:59Z", "2016-02-29T00:00:00Z"),  # leap day
    ("2013-12-31T23:59:59.5Z", "2014-01-01T00:00Z"),  # year
    ("1969-12-31T23:59:59.999999Z", "1970-01-01T00:00:00Z"),  # epoch
    ("0001-01-01T00:59:59Z", "0001-01-01T01:00:00Z"),
    ("9999-12-31T22:59:59Z", "9999-12-31T23:00:00.000001Z"),
])
def test_parse_across_hour_and_day_edges(before, after):
    for text in (before, after, before):
        assert full_form(text) == oracle_parse_time_utc(text)
    assert full_form(before) < full_form(after)


@pytest.mark.parametrize("bad", [
    "2014-03-07T24:10:00Z",  # hour 24
    "2014-03-07T2٣:10:00Z",  # Arabic-Indic hour digit
    "2014-03-07T1²:10:00Z",  # superscript hour digit
    "2014-03-07T23:1٣:00Z",  # Arabic-Indic minute digit
    "2014-03-07T23:10:6٠Z",  # Arabic-Indic second digit
    "2014-03-07T23:60:00Z",
    "2014-03-07T23:10:60Z",
])
def test_bad_hour_after_a_cached_hour_of_the_same_date(bad):
    good = "2014-03-07T23:10:00Z"
    assert full_form(good) == oracle_parse_time_utc(good)
    assert _hour_start(good[:13]) is not None
    assert full_form(bad) is None
    for reference in (None, REF):
        assert outcome(parse_time_utc, bad, reference) == outcome(oracle_parse_time_utc, bad, reference)


# --- the time column: one pass per block against the per-cell path ---------------

FIRST_US, END_US = int(FIRST_SECOND) * 10**6, int(END_SECOND) * 10**6
BLOCK_SIZES = [1, 255, 256, 257]  # the reader parses 256 rows at a time
# Cells the block pass must refuse. strptime reads the first two; the rest are errors.
BAD_CELLS = [
    "2014-03-07T16:4\u0663:00Z", "\uff12\uff10\uff11\uff14-03-07T16:42:00Z",  # Arabic-Indic and full-width digits
    "2014-03-07T16:+2:00Z", "2014-03-07T16:42:00.1_5Z", "2014-03-07T16:42: 0Z", "2014-03-07 16:42:00Z",
    "2014-03-07T16:60:00Z", "2014-03-07T16:60Z", "2014-03-07T16:42:60Z", "2014-03-07T24:00:00Z",
    "2014-02-29T00:00:00Z", "2014-03-07T16:42:00.1234567Z", "16:42:00Z", "16:42Z",
    "9999-12-31T23:59:59.999985Z", "9999-12-31T23:59:59.999999Z",  # both round to year 10000
]


def canonical(us, digits):
    """The canonical text of ``us`` microseconds, without seconds (``digits`` None) or with
    ``digits`` fraction digits, the rest cut off."""
    text = (datetime(1970, 1, 1) + timedelta(microseconds=us)).isoformat(timespec="microseconds")
    return text[:16 if digits is None else 20 + digits if digits else 19] + "Z"


@st.composite
def time_blocks(draw):
    """``(cells, bad)``: a block of canonical cells of one length or of several, padded or not,
    and the index of the one bad cell put among them (a spoiled timestamp or one of BAD_CELLS), or None."""
    k = draw(st.sampled_from(BLOCK_SIZES))
    step = draw(st.integers(1, 10**9))
    last = END_US - 1 - k * step
    start = draw(st.integers(FIRST_US, last) | st.sampled_from([FIRST_US, last, 1394150400 * 10**6]))
    lengths = draw(st.lists(st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6]), min_size=1, max_size=3))
    pad = draw(st.sampled_from(["", " ", "\t "]))
    cells = [pad + canonical(start + i * step, lengths[i % len(lengths)]) + pad for i in range(k)]
    bad = draw(st.none() | st.integers(0, k - 1))
    if bad is not None:
        cells[bad] = draw(st.sampled_from(BAD_CELLS) | timestamps()).replace("\n", "")
    return cells, bad


def oracle_cell(text):
    """The strptime oracle of a stripped cell, with parse_time_utc's refusal of year 10000."""
    value = oracle_parse_time_utc(text)
    if value >= END_SECOND:
        raise DomainError(f"timestamp {text!r} is past the last writable microsecond of year 9999")
    return value


def assert_column_agrees(cells):
    """The block pass gives the per-cell values, or refuses a block the per-cell path refuses; returns the
    stripped cells and whether the per-cell path refuses."""
    stripped = [c.strip() for c in cells]
    want = [outcome(oracle_cell, c) for c in stripped]
    assert [outcome(parse_time_utc, c) for c in stripped] == want
    refused = any(isinstance(w, tuple) for w in want)
    try:
        got = _parse_column(parse_time_utc, cells)
    except ValueError:
        assert refused
    else:
        assert not refused and got == want and all(type(v) is float for v in got)
    return stripped, refused


@settings(max_examples=40, deadline=None)
@given(block=time_blocks())
def test_time_column_agrees_with_the_per_cell_path(block):
    cells, bad = block
    stripped, refused = assert_column_agrees(cells)
    if bad is None and not refused:
        assert _full_form_column(stripped) == [oracle_cell(c) for c in stripped]  # a pass per length reads it


@pytest.mark.parametrize("bad", BAD_CELLS)
def test_a_bad_cell_among_canonical_cells_of_its_length(bad):
    digits = {17: None, 20: 0}.get(len(bad), min(max(len(bad) - 21, 0), 6))
    for k in BLOCK_SIZES:
        cells = [canonical(1394150400 * 10**6 + 1234567 * i, digits) for i in range(k)]
        cells[k // 2] = bad
        assert_column_agrees(cells)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=time_blocks())
def test_time_blocks_read_as_the_per_cell_path_reads_them(tmp_path, block):
    cells, _ = block
    path = tmp_path / "log.csv"
    path.write_text("# a block\n" + ",".join(LOG_SCHEMA) + "\n" + "".join(f"{c},R,data,1.5,,0,41.7,\n" for c in cells))
    want = [outcome(oracle_cell, c.strip()) for c in cells]
    problems = [(i + 3, f"time_utc: {w[1]}") for i, w in enumerate(want) if isinstance(w, tuple)]
    try:
        records = load_log_csv(path)
    except ParseError as e:
        assert e.problems == problems
    else:
        assert not problems and [m.timestamp for m in records.measurements] == sorted(want)


ODD_TIMES = [
    -1.0, -0.0, 0.5, -0.5, -86400.25, 1e-7, 1394150400.9999995, -0.9999995, END_SECOND - 1, FIRST_SECOND, 7, -86401,
    math.nan, math.inf, -math.inf, END_SECOND, FIRST_SECOND - 1, 10**12,
]


def assert_writer_agrees(column):
    got = raised(_format_column, format_time_utc, column)
    assert got == raised(lambda: [format_time_utc(t) for t in column])
    assert got == raised(lambda: [oracle_isoformat_time_utc(t) for t in column])


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from(BLOCK_SIZES),
    start=st.integers(int(FIRST_SECOND), int(END_SECOND) - 1 - 256 * 7200) | st.sampled_from([int(FIRST_SECOND)]),
    step=st.integers(1, 7200),
    odd=st.none() | st.sampled_from(ODD_TIMES),
    at=st.integers(0, 256),
)
def test_time_column_writer_agrees_with_format_time_utc(k, start, step, odd, at):
    column = [float(start + i * step) for i in range(k)]
    if odd is not None:
        column[at % k] = odd
    assert_writer_agrees(column)


@pytest.mark.parametrize("odd", ODD_TIMES)
def test_time_column_writer_with_one_odd_time(odd):
    for k in BLOCK_SIZES:
        column = [1394150400.0 + 61 * i for i in range(k)]
        column[k // 2] = odd
        assert_writer_agrees(column)


# --- the ephemeris and correction lookups ---------------------------------------

SEEDED_TIMES = 10_000


def probe_times(times, seed):
    """10^4 seeded times in the span, every knot, and both ends with their
    nearest interior neighbours."""
    lo, hi = times[0], times[-1]
    rng = np.random.default_rng(seed)
    return [
        *rng.uniform(lo, hi, SEEDED_TIMES).tolist(),
        *times,
        math.nextafter(lo, hi),
        math.nextafter(hi, lo),
    ]


def synthetic_ephemeris():
    model = SyntheticGeoModel(inclination_deg=1.65, node_time=-2.0e4, eccentricity=3e-4, perigee_time=5e3)
    return model.table(1394150400.0, 1394150400.0 + 2 * 86400.0, 3617.0)


@pytest.mark.parametrize("source", ["fixture", "synthetic"])
def test_satellite_state_matches_numpy_oracle(source, ephemeris):
    e = ephemeris if source == "fixture" else synthetic_ephemeris()
    checked = 0
    for t in probe_times(e.time_list, 2017):
        assert satellite_state_at(t, e) == oracle_satellite_state_at(t, e)
        checked += 1
    assert checked == SEEDED_TIMES + len(e) + 2
    lo, hi = e.span
    for t in (math.nextafter(lo, -math.inf), hi + 1.0, math.nan, -math.inf):
        assert outcome(satellite_state_at, t, e) == outcome(oracle_satellite_state_at, t, e)


def test_correction_matches_numpy_oracle(corrections):
    times = synthetic_ephemeris().time_list
    synthetic = CorrectionTable(times, np.random.default_rng(4).normal(0, 40, len(times)))
    for c in (corrections, synthetic):
        for t in probe_times(c.time_list, 1702):
            got, want = deterministic_correction_at(t, c), oracle_correction_at(t, c)
            assert got == want and type(got) is float
        lo, hi = c.span
        for t in (math.nextafter(lo, -math.inf), hi + 1.0, math.nan):
            assert outcome(deterministic_correction_at, t, c) == outcome(oracle_correction_at, t, c)


def test_single_row_correction_matches_numpy_oracle():
    c = CorrectionTable([10.0], [2.5])
    for t in (10.0, 9.0, math.nan):
        assert outcome(deterministic_correction_at, t, c) == outcome(oracle_correction_at, t, c)
