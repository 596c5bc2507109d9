"""The table reader and the CSV writers against the code they replaced.

The oracles below are that code: a reader that split every body line with
its own ``csv.reader`` and parsed the cells of a row in a loop, and writers
that passed per-cell lists to a writer that joined them. The reader must
return the same provenance, items and problems, or raise the same exception
with the same text; the writers must write the same bytes.
"""

import csv
import math
from itertools import chain, cycle, islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfokit.errors import DomainError, ParseError
from bfokit.fixtures import fixture_path
from bfokit.ingest import (
    CORRECTION_SCHEMA,
    CURVE_SCHEMA,
    EPHEMERIS_SCHEMA,
    ERROR_SCHEMA,
    LOG_SCHEMA,
    LOGON_SCHEMA,
    _FORMATS,
    _float,
    _fmt,
    _format_column,
    _load_table,
    _optional,
    format_time_utc,
    load_correction_csv,
    load_ephemeris_csv,
    load_log_csv,
    load_logon_csv,
    parse_time_utc,
    write_correction_csv,
    write_curve_csv,
    write_ephemeris_csv,
    write_log_csv,
    write_logon_csv,
)
from bfokit.satellite import GEO_RADIUS_M, CorrectionTable, EphemerisTable
from bfokit.stats import BfoMeasurement, Channel, MessageType
from bfokit.track_sweep import KNOTS_TO_MPS, bfo_error_vs_track
from bfokit.warmup import CompensationMode, LogonSequence

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


# --- oracles -------------------------------------------------------------------

def oracle_load_table(path, schema, make):
    data = Path(path).read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParseError(path, [(data.count(b"\n", 0, e.start) + 1, "not UTF-8 text")]) from e
    provenance, items, problems = [], [], []
    columns = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if columns is None and line.lstrip().startswith("#"):
            provenance.append(line)
            continue
        try:
            fields = next(csv.reader((line,)))
        except csv.Error as e:
            raise ParseError(path, [(lineno, str(e))]) from e
        if columns is None:
            names = [f.strip() for f in fields]
            bad = {
                "unknown": [c for c in names if c not in schema],
                "missing": [c for c in schema if c not in names],
                "repeated": list(dict.fromkeys(c for c in names if names.count(c) > 1)),
            }
            if any(bad.values()):
                raise ParseError(
                    path, [(lineno, f"{k} column(s): {', '.join(v)}") for k, v in bad.items() if v]
                )
            columns = [(names.index(c), c, parse) for c, parse in schema.items()]
            continue
        if len(fields) != len(columns):
            problems.append((lineno, f"expected {len(columns)} fields, got {len(fields)}"))
            continue
        cells = []
        for i, column, parse in columns:
            try:
                cells.append(parse(fields[i].strip()))
            except ValueError as e:
                problems.append((lineno, f"{column}: {e}"))
                break
        else:
            try:
                items.append(make(*cells))
            except DomainError as e:
                problems.append((lineno, str(e)))
    return provenance, items, problems


def oracle_write_csv(path, provenance, header, rows):
    lines = chain(provenance, [",".join(header)], (",".join(r) for r in rows))
    with open(path, "w", encoding="utf-8") as f:
        while block := list(islice(lines, 1024)):
            f.write("\n".join(block) + "\n")


def oracle_fmt(v):
    if v is None:
        return ""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def oracle_write_log_csv(path, measurements, provenance=()):
    rows = (
        [
            format_time_utc(m.timestamp),
            m.channel.value,
            m.message_type.value,
            oracle_fmt(m.bfo_hz),
            oracle_fmt(m.bto_us),
            oracle_fmt(m.ber),
            oracle_fmt(m.cn0_dbhz),
            oracle_fmt(m.signal_db),
        ]
        for m in measurements
    )
    oracle_write_csv(path, provenance, LOG_SCHEMA, rows)


def oracle_write_correction_csv(path, table):
    rows = ([format_time_utc(t), oracle_fmt(v)] for t, v in zip(table.time_list, table.value_list))
    oracle_write_csv(path, table.provenance, CORRECTION_SCHEMA, rows)


def oracle_write_ephemeris_csv(path, table):
    rows = ([format_time_utc(t)] + [oracle_fmt(x) for x in row] for t, row in zip(table.time_list, table.row_list))
    oracle_write_csv(path, table.provenance, EPHEMERIS_SCHEMA, rows)


def oracle_write_logon_csv(path, sequences, provenance=()):
    rows = (
        [
            seq.id,
            format_time_utc(m.timestamp),
            m.message_type.value,
            oracle_fmt(m.bfo_hz),
            oracle_fmt(m.ber),
            oracle_fmt(m.cn0_dbhz),
            seq.compensation_mode.value,
        ]
        for seq in sequences
        for m in seq.measurements
    )
    oracle_write_csv(path, provenance, LOGON_SCHEMA, rows)


def oracle_write_curve_csv(path, curve, provenance=()):
    rows = ((oracle_fmt(a), repr(float(e))) for a, e in curve)
    oracle_write_csv(path, provenance, ("track_deg", "bfo_error_hz"), rows)


def outcome(f, *args):
    """The value, or the type and text of any exception."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


# --- the reader ------------------------------------------------------------------

def picky(*cells):
    """A row maker that refuses a row holding 0 with a DomainError, and one
    holding -1 with a plain ValueError, which the reader must not swallow."""
    if 0 in cells:
        raise DomainError(f"picky: a zero among {len(cells)} cells")
    if -1 in cells:
        raise ValueError("picky: a minus one")
    return cells


KINDS = {
    "log": (LOG_SCHEMA, BfoMeasurement),  # negative BER: make raises DomainError
    "log picky": (LOG_SCHEMA, picky),
    "ephemeris": (EPHEMERIS_SCHEMA, picky),
    "corrections": (CORRECTION_SCHEMA, picky),
    "logons": (LOGON_SCHEMA, picky),
    "error samples": (ERROR_SCHEMA, picky),
}

GOOD = {
    # the last two take the strptime path and the year-end refusal
    "time_utc": ["2014-03-07T16:00:00Z", " 2014-03-07T16:00:00.25Z ", "2014-3-7T16:00Z", "9999-12-31T23:59:59.999999Z"],
    "channel": [c.value for c in Channel],
    "msg_type": [m.value for m in MessageType],
    "comp_mode": [m.value for m in CompensationMode],
    "seq_id": ["1", " 2 ", ""],
}
NUMBERS = ["0", "-1", "41.7", " 16413 ", "1e3", "-0.5", ""]
# quotes and NULs go to csv; the rest are bad cells, blanks or line breaks
ODD = ['"', '"1,5"', '"a""b"', ' "7"', "\0", "1\0", " ", "\t", "nan", "inf", "1e999", "x", "#", "R",
       "\x0b", "\x85", "\u2028", "\u00a0"]
one_line = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)


def cell(column):
    good = st.sampled_from(GOOD.get(column, NUMBERS))
    return st.one_of(good, good, good, st.sampled_from(ODD), one_line)


@st.composite
def table_bytes(draw, schema):
    """Any bytes or text at all, or a table of ``schema``: shuffled columns,
    a header that may be quoted, padded or wrong, rows that may be ragged,
    blank and ``#`` lines among them, and mixed line ends."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=120))
    if kind == 1:
        return draw(st.text(max_size=200)).encode("utf-8")
    columns = draw(st.permutations(list(schema)))
    header = list(columns)
    i = draw(st.integers(0, len(header) - 1))
    header[i] = draw(st.sampled_from([header[i], header[i], f'"{header[i]}"', f" {header[i]} ", "extra"]))
    lines = draw(st.lists(one_line.map(lambda s: "# " + s), max_size=2)) + [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        what = draw(st.sampled_from(["row", "row", "row", "row", "blank", "comment"]))
        if what == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        elif what == "comment":
            lines.append("# " + draw(one_line))
        else:
            width = len(columns) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
            lines.append(",".join(draw(cell(columns[j] if j < len(columns) else None)) for j in range(width)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_reader_agrees_with_the_per_line_csv_oracle(tmp_path, kind, data):
    schema, make = KINDS[kind]
    path = tmp_path / "table.csv"
    path.write_bytes(data.draw(table_bytes(schema)))
    assert outcome(_load_table, path, schema, make) == outcome(oracle_load_table, path, schema, make)


@pytest.mark.parametrize(("schema", "text", "parsed"), [
    (CORRECTION_SCHEMA, "time_utc,delta_f_hz\n2014-03-07T16:00:00Z,1.5\n", True),  # longer, fields within
    (ERROR_SCHEMA, "bfo_error_hz\n1.000000000000000000\n", True),  # a field at the limit
    (ERROR_SCHEMA, "bfo_error_hz\n1.0000000000000000000\n", False),  # a field one over it
    (CORRECTION_SCHEMA, "time_utc,delta_f_hz\n2014-03-07T16:00:00Z,1.2500000000000000001\n", False),
])
def test_line_longer_than_the_field_limit_goes_through_csv(tmp_path, schema, text, parsed):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    old = csv.field_size_limit(20)
    try:
        got = outcome(_load_table, path, schema, picky)
        want = outcome(oracle_load_table, path, schema, picky)
    finally:
        csv.field_size_limit(old)
    assert got == want
    assert (got[0] is not ParseError) == parsed


def test_make_rejections_after_good_cells(tmp_path):
    # DomainError is a ValueError, so a make rejection must not read as a cell
    # error, and a plain ValueError from make must not be swallowed
    path = tmp_path / "errors.csv"
    path.write_text("bfo_error_hz\n1\n0\nx\n-1.5\n", encoding="utf-8")
    assert _load_table(path, ERROR_SCHEMA, picky) == oracle_load_table(path, ERROR_SCHEMA, picky) == (
        [],
        [(1.0,), (-1.5,)],
        [(3, "picky: a zero among 1 cells"), (4, "bfo_error_hz: could not convert string to float: 'x'")],
    )
    path.write_text("bfo_error_hz\n1\n-1\n", encoding="utf-8")
    assert outcome(_load_table, path, ERROR_SCHEMA, picky) == (ValueError, "picky: a minus one")


# Tables of several reading blocks (the reader parses 256 rows at a time), with
# one fault at a row on either side of the first boundary or deep in a later block.
LONG = {  # kind: (schema, a good row, the index of its number cell)
    "log": (LOG_SCHEMA, ["2014-03-07T16:00:00Z", "R", "data", "1.5", "12000", "0.5", "41.7", ""], 3),
    "error samples": (ERROR_SCHEMA, ["1.5"], 0),
}
FAULTS = {  # a faulty row, from a good one and the index of its number cell
    "bad cell": lambda row, k: row[:k] + ["x"] + row[k + 1:],
    "ragged": lambda row, k: row[:-1] if len(row) > 1 else row + ["2"],
    "quoted": lambda row, k: row[:k] + ['"2.5"'] + row[k + 1:],
    "over the csv field limit": lambda row, k: row[:k] + ["2." + "0" * 70] + row[k + 1:],
    "make raises DomainError": lambda row, k: row[:k] + ["0"] + row[k + 1:],
    "make raises ValueError": lambda row, k: row[:k] + ["-1"] + row[k + 1:],
    # the log's own columns; in a table of error samples each is a bad cell or a ragged row
    "unpadded time": lambda row, k: ["2014-3-7T16:00Z"] + row[1:],
    "time in year 10000": lambda row, k: ["9999-12-31T23:59:59.999999Z"] + row[1:],
    "bad enum": lambda row, k: row[:1] + [" Q "] + row[2:],
    "blank optional": lambda row, k: row[:4] + [" "] + row[5:],
}


def long_table(path, kind, n, edits):
    """A table of ``n`` rows of ``kind`` after a provenance line, with blank
    lines in it and each row ``i`` in ``edits`` replaced by ``edits[i](row, k)``."""
    schema, row, k = LONG[kind]
    lines = ["# a long table", ",".join(schema)]
    for i in range(n):
        if i % 97 == 5:
            lines.append("")
        lines.append(",".join(edits[i](row, k) if i in edits else row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def both_readers(path, schema, make=picky):
    """The reader's and the oracle's outcome, under a csv field limit of 64."""
    old = csv.field_size_limit(64)
    try:
        return outcome(_load_table, path, schema, make), outcome(oracle_load_table, path, schema, make)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("row", [255, 256, 257, 520])
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", LONG)
def test_reader_agrees_with_the_oracle_past_one_block(tmp_path, kind, fault, row):
    path = tmp_path / "long.csv"
    long_table(path, kind, 600, {row: FAULTS[fault]})
    got, want = both_readers(path, LONG[kind][0])
    assert got == want
    if fault in ("bad cell", "ragged", "make raises DomainError"):
        assert [p[0] for p in got[2]] == [3 + row + sum(i % 97 == 5 for i in range(row + 1))]


@pytest.mark.parametrize("later", [1, 250, 600])
@pytest.mark.parametrize("kind", LONG)
def test_a_make_error_on_an_earlier_row_wins_over_a_csv_error_later(tmp_path, kind, later):
    path = tmp_path / "long.csv"
    edits = {240: FAULTS["make raises ValueError"], 240 + later: FAULTS["over the csv field limit"]}
    long_table(path, kind, 900, edits)
    got, want = both_readers(path, LONG[kind][0])
    assert got == want == (ValueError, "picky: a minus one")
    del edits[240]
    long_table(path, kind, 900, edits)
    got, want = both_readers(path, LONG[kind][0])
    assert got == want and got[0] is ParseError


def test_many_faults_over_many_blocks(tmp_path):
    path = tmp_path / "long.csv"
    faults = ["bad cell", "ragged", "quoted", "make raises DomainError"] * 7
    edits = {i: FAULTS[f] for i, f in zip(range(3, 1000, 37), faults)}
    long_table(path, "log", 1000, edits)
    got, want = both_readers(path, LOG_SCHEMA, BfoMeasurement)  # a BFO of 0 is a good burst
    assert got == want and len(got[1]) == 1000 - 14 and len(got[2]) == 14
    got, want = both_readers(path, LOG_SCHEMA)
    assert got == want and len(got[1]) == 1000 - 20 and len(got[2]) == 20


WHITESPACE = [c for c in map(chr, range(0x110000)) if c.isspace()]


@pytest.mark.parametrize("space", WHITESPACE, ids=[f"U+{ord(c):04X}" for c in WHITESPACE])
def test_whitespace_around_a_number_reads_as_the_stripped_cell(tmp_path, space):
    # float() strips some whitespace itself, and refuses the rest: then the
    # block goes through the row-by-row parse of the stripped cell.
    path = tmp_path / "long.csv"

    def padded(row, k):
        return row[:k] + [f"{space}41.7{space * 2}"] + row[k + 1:]

    for kind in LONG:
        long_table(path, kind, 300, {280: padded})
        got, want = both_readers(path, LONG[kind][0])
        assert got == want
        if len(f"x{space}x".splitlines()) == 1:
            assert 41.7 in got[1][280] and got[2] == []


# --- the writers ------------------------------------------------------------------

# Integral values, the 1e15 edge and signed zero, where _fmt switches to int text.
numbers = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 16413.0, 1e15 - 1, 1e15, -1e15, 1e16, 0.1, 2.0**53]
)


@given(v=st.none() | st.floats() | st.integers(-10**20, 10**20) | numbers)
def test_fmt_agrees_with_the_oracle(v):
    assert outcome(_fmt, v) == outcome(oracle_fmt, v)


# Columns of floats alone take the writer's C-level path; any other column, a cell at a time.
cells = st.none() | st.floats() | st.integers(-10**20, 10**20) | numbers


@given(column=st.lists(st.floats() | numbers, min_size=1, max_size=12) | st.lists(cells, min_size=1, max_size=12))
def test_fmt_column_agrees_with_fmt_a_cell_at_a_time(column):
    column = tuple(column)  # as the writer's blocks hold them
    assert outcome(_format_column, _fmt, column) == outcome(lambda c: list(map(_fmt, c)), column)


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
def test_fmt_raises_for_non_finite_as_int_does(v):
    assert outcome(_fmt, v) == outcome(int, v)
    assert outcome(_fmt, v)[0] in (OverflowError, ValueError)


@pytest.mark.parametrize("name", ["mh370_bfo_log.csv", "mh370_key_events.csv"])
def test_log_writer_matches_the_oracle_on_fixtures(tmp_path, name):
    records = load_log_csv(fixture_path(name))
    write_log_csv(tmp_path / "new.csv", records.measurements, records.provenance)
    oracle_write_log_csv(tmp_path / "old.csv", records.measurements, records.provenance)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_correction_writer_matches_the_oracle_on_the_fixture(tmp_path):
    table = load_correction_csv(fixture_path("ior_corrections_synthetic.csv"))
    write_correction_csv(tmp_path / "new.csv", table)
    oracle_write_correction_csv(tmp_path / "old.csv", table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


provenance = st.lists(one_line.map(lambda s: "# " + s), max_size=3)


micro_times = st.integers(0, 4 * 10**15).map(lambda us: us / 1e6)
bers = st.floats(min_value=0, allow_infinity=False) | st.just(0.0)
measurement = st.builds(
    BfoMeasurement,
    timestamp=micro_times,
    channel=st.sampled_from(Channel),
    message_type=st.sampled_from(MessageType),
    bfo_hz=numbers,
    bto_us=st.none() | numbers,
    ber=bers,
    cn0_dbhz=numbers,
    signal_db=st.none() | numbers,
)


@SETTINGS
@given(ms=st.lists(measurement, max_size=8), prov=provenance)
def test_log_writer_matches_the_oracle_on_generated_logs(tmp_path, ms, prov):
    write_log_csv(tmp_path / "new.csv", ms, prov)
    oracle_write_log_csv(tmp_path / "old.csv", ms, prov)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@SETTINGS
@given(
    times=st.lists(st.integers(0, 4 * 10**9), min_size=1, max_size=8, unique=True),
    data=st.data(),
    prov=provenance,
)
def test_correction_writer_matches_the_oracle_on_generated_tables(tmp_path, times, data, prov):
    values = data.draw(st.lists(numbers, min_size=len(times), max_size=len(times)))
    table = CorrectionTable(sorted(map(float, times)), values, prov)
    write_correction_csv(tmp_path / "new.csv", table)
    oracle_write_correction_csv(tmp_path / "old.csv", table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def columns(curve):
    """A list of ``(track, error)`` pairs as the writer's ``(tracks, errors)``."""
    return [a for a, _ in curve], [e for _, e in curve]


# ints too: the writer takes any two sequences of numbers
@SETTINGS
@given(curve=st.lists(st.tuples(numbers | st.integers(-2**60, 2**60), numbers | st.integers(-2**60, 2**60)),
                      max_size=8), prov=provenance)
def test_curve_writer_matches_the_oracle(tmp_path, curve, prov):
    write_curve_csv(tmp_path / "new.csv", columns(curve), prov)
    oracle_write_curve_csv(tmp_path / "old.csv", curve, prov)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_writers_match_the_oracle_past_one_write_block(tmp_path):
    ms = [BfoMeasurement(1394150400.0 + i * 0.25, Channel.R, MessageType.DATA, 100.0 + i / 7, i) for i in range(2100)]
    curve = [(i / 100, math.sin(i)) for i in range(2100)]
    write_log_csv(tmp_path / "log_new.csv", ms, ["# two blocks"])
    oracle_write_log_csv(tmp_path / "log_old.csv", ms, ["# two blocks"])
    write_curve_csv(tmp_path / "curve_new.csv", columns(curve))
    oracle_write_curve_csv(tmp_path / "curve_old.csv", curve)
    assert (tmp_path / "log_new.csv").read_bytes() == (tmp_path / "log_old.csv").read_bytes()
    assert (tmp_path / "curve_new.csv").read_bytes() == (tmp_path / "curve_old.csv").read_bytes()


def test_curve_writer_refuses_columns_of_two_lengths(tmp_path):
    with pytest.raises(ValueError, match="zip"):
        write_curve_csv(tmp_path / "new.csv", ([0.0, 1.0], [2.0]))


def test_curve_writer_matches_the_oracle_on_a_dense_sweep(tmp_path, analysis_config, ephemeris, corrections):
    # a 0.01 deg sweep: 36,001 rows, 141 write blocks, whole angles every 100th row
    cfg = analysis_config
    curve = bfo_error_vs_track(cfg.arc_crossing, cfg.parse_time("00:11Z"), 450.0 * KNOTS_TO_MPS, 252.0, ephemeris,
                               corrections, cfg.bias_hz, cfg.channel, cfg.slot, step_deg=0.01)
    assert len(curve[0]) == 36_001
    write_curve_csv(tmp_path / "new.csv", curve, ["# dense"])
    oracle_write_curve_csv(tmp_path / "old.csv", list(zip(*(c.tolist() for c in curve))), ["# dense"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# --- the schema writers across write blocks -----------------------------------------
# The writers format 256 rows at a time, a column at a time: tables one row either
# side of a block edge and one row past four blocks, with every enum member, blank
# optional cells, signed zero, integral values either side of _fmt's 1e15 switch
# and timestamps with microseconds.

SIZES = [255, 256, 257, 1025]
EDGES = [-0.0, 0.0, 1e15 - 1, 1e15, -(1e15 - 1), -1e15, 1e16, 0.1, 16413.0, 41.75]


def same_bytes(tmp_path, writer, oracle, *args):
    writer(tmp_path / "new.csv", *args)
    oracle(tmp_path / "old.csv", *args)
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def cycled(templates, n):
    """``n`` rows, taken from ``templates`` in turn."""
    return list(islice(cycle(templates), n))


def micro_series(start_us, step_us, n):
    """``n`` strictly increasing timestamps, ``step_us`` microseconds apart."""
    return [(start_us + i * step_us) / 1e6 for i in range(n)]


def logon_sequences(ms, cuts, ids, modes):
    """``ms`` cut at ``cuts`` into sequences, each opening with a log-on request."""
    bounds = [0, *sorted(cuts), len(ms)]
    return [
        LogonSequence(
            id=seq_id,
            logon_time=ms[a].timestamp,
            measurements=(ms[a]._replace(message_type=MessageType.LOGON_REQUEST), *ms[a + 1:b]),
            compensation_mode=mode,
        )
        for a, b, seq_id, mode in zip(bounds, bounds[1:], ids, modes)
    ]


@pytest.mark.parametrize("n", SIZES)
def test_schema_writers_match_the_oracles_on_every_member_and_edge(tmp_path, n):
    times = micro_series(1394150400 * 10**6, 1234567, n)
    ms = [
        BfoMeasurement(t, channel, mt, v, None if i % 3 else v, abs(v), -v, None if i % 2 else -v)
        for i, (t, channel, mt, v) in enumerate(zip(times, cycle(Channel), cycle(MessageType), cycle(EDGES)))
    ]
    edges = cycled(EDGES, n)
    positions = [(GEO_RADIUS_M, v if abs(v) < 1e5 else 0.5, -0.0) for v in edges]
    ephemeris = EphemerisTable(times, positions, [(v, -v, 0.25) for v in edges], ["# four blocks"])
    sequences = logon_sequences(ms, range(100, n, 100), map(str, range(n)), cycle(CompensationMode))
    assert same_bytes(tmp_path, write_log_csv, oracle_write_log_csv, ms, ["# four blocks"])
    assert same_bytes(tmp_path, write_ephemeris_csv, oracle_write_ephemeris_csv, ephemeris)
    assert same_bytes(tmp_path, write_correction_csv, oracle_write_correction_csv, CorrectionTable(times, edges))
    assert same_bytes(tmp_path, write_logon_csv, oracle_write_logon_csv, sequences, ["# four blocks"])


sizes = st.sampled_from([0, 1, *SIZES])
starts = st.integers(0, 4 * 10**15)
steps = st.integers(1, 10**9)
BLOCK_SETTINGS = settings(SETTINGS, max_examples=15)  # tables of up to 1,025 rows; the test above has every size


@BLOCK_SETTINGS
@given(templates=st.lists(measurement, min_size=1, max_size=6), n=sizes, prov=provenance)
def test_log_writer_matches_the_oracle_across_write_blocks(tmp_path, templates, n, prov):
    assert same_bytes(tmp_path, write_log_csv, oracle_write_log_csv, cycled(templates, n), prov)


offsets = st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(-1e5, 1e5)


@BLOCK_SETTINGS
@given(
    n=st.sampled_from([2, *SIZES]),
    start=starts,
    step=steps,
    positions=st.lists(st.tuples(offsets.map(GEO_RADIUS_M.__add__), offsets, offsets), min_size=1, max_size=6),
    velocities=st.lists(st.tuples(numbers, numbers, numbers), min_size=1, max_size=6),
    prov=provenance,
)
def test_ephemeris_writer_matches_the_oracle(tmp_path, n, start, step, positions, velocities, prov):
    table = EphemerisTable(micro_series(start, step, n), cycled(positions, n), cycled(velocities, n), prov)
    assert same_bytes(tmp_path, write_ephemeris_csv, oracle_write_ephemeris_csv, table)


@BLOCK_SETTINGS
@given(n=sizes.filter(bool), start=starts, step=steps, values=st.lists(numbers, min_size=1, max_size=6),
       prov=provenance)
def test_correction_writer_matches_the_oracle_across_write_blocks(tmp_path, n, start, step, values, prov):
    table = CorrectionTable(micro_series(start, step, n), cycled(values, n), prov)
    assert same_bytes(tmp_path, write_correction_csv, oracle_write_correction_csv, table)


# an id a CSV cell holds unchanged: no comma or quote, and no outer whitespace (one_line has no NUL or line break)
kept_id = one_line.map(str.strip).filter(lambda s: "," not in s and '"' not in s)


@BLOCK_SETTINGS
@given(
    n=sizes,
    start=starts,
    step=steps,
    bursts=st.lists(st.tuples(st.sampled_from(MessageType), numbers, bers, numbers), min_size=1, max_size=6),
    data=st.data(),
    prov=provenance,
)
def test_logon_writer_matches_the_oracle(tmp_path, n, start, step, bursts, data, prov):
    ms = [
        BfoMeasurement(t, Channel.R, mt, bfo, ber=ber, cn0_dbhz=cn0)
        for t, (mt, bfo, ber, cn0) in zip(micro_series(start, step, n), cycled(bursts, n))
    ]
    cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=3)) if n > 1 else ()
    k = len(cuts) + bool(n)
    ids = data.draw(st.lists(kept_id, min_size=k, max_size=k))
    modes = data.draw(st.lists(st.sampled_from(CompensationMode), min_size=k, max_size=k))
    sequences = logon_sequences(ms, cuts, ids, modes) if n else []
    assert same_bytes(tmp_path, write_logon_csv, oracle_write_logon_csv, sequences, prov)


ID_CHARS = [",", '"', "\0", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", " ", "\t",
            "\u00a0", "\u3000", "#", "'", ";", "a", "7", "é"]


@pytest.mark.parametrize("seq_id", ["a,b", " 2 ", "2 ", '"7"', "a\0b", "a\nb", "a\rb", "a\u2028b", "\t"])
def test_logon_writer_refuses_an_id_that_does_not_read_back(tmp_path, seq_id):
    (sequence,) = load_logon_csv(fixture_path("logon_sequences.csv"))[:1]
    path = tmp_path / "logons.csv"
    with pytest.raises(DomainError, match="would not read back unchanged") as info:
        write_logon_csv(path, [sequence, sequence._replace(id=seq_id)])
    assert repr(seq_id) in str(info.value)
    assert not path.exists()


def test_logon_writer_refuses_an_id_longer_than_the_csv_field_limit(tmp_path):
    # A line that long goes to csv.reader, which refuses a field beyond the limit.
    (sequence,) = load_logon_csv(fixture_path("logon_sequences.csv"))[:1]
    path = tmp_path / "logons.csv"
    with pytest.raises(DomainError, match="would not read back unchanged"):
        write_logon_csv(path, [sequence, sequence._replace(id="7" * 140_000)])
    assert not path.exists()
    at_limit = sequence._replace(id="7" * csv.field_size_limit())
    write_logon_csv(path, [at_limit])
    assert load_logon_csv(path) == [at_limit]


@SETTINGS
@given(seq_id=st.text(st.sampled_from(ID_CHARS) | st.characters(blacklist_categories=("Cs",)), max_size=5))
def test_logon_writer_refuses_every_id_that_does_not_read_back(tmp_path, seq_id):
    # The oracle writer writes any id as it is; the reader's outcome says whether the id reads back.
    # The writer also refuses ids that read back only by chance: a quote is kept when csv does not
    # take it for quoting ('0"'), and a NUL from Python 3.11 on (3.10's csv refuses it).
    (sequence,) = load_logon_csv(fixture_path("logon_sequences.csv"))[:1]
    sequences = [sequence._replace(id=seq_id)]
    oracle_write_logon_csv(tmp_path / "old.csv", sequences)
    got = outcome(lambda path: [s.id for s in load_logon_csv(path)], tmp_path / "old.csv")
    refused = outcome(write_logon_csv, tmp_path / "new.csv", sequences)
    if got == [seq_id] and "\0" not in seq_id and '"' not in seq_id:
        assert refused is None
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    else:
        assert refused == (DomainError, f"sequence id {seq_id!r} would not read back unchanged from a CSV cell")


def test_schema_writers_match_the_oracles_on_fixtures(tmp_path):
    ephemeris = load_ephemeris_csv(fixture_path("ior_ephemeris_synthetic.csv"))
    sequences = load_logon_csv(fixture_path("logon_sequences.csv"))
    assert same_bytes(tmp_path, write_ephemeris_csv, oracle_write_ephemeris_csv, ephemeris)
    assert same_bytes(tmp_path, write_logon_csv, oracle_write_logon_csv, sequences, ["# sequences"])


# A canonical cell of each parser's column: its format must give the same text back.
CANONICAL = {parse_time_utc: ["2014-03-07T16:42:00.25Z", "2014-03-07T16:42:00Z"], _float: ["-41.5", "16413", "1e+16"],
             _optional: ["", "0.125"], str: ["7", "seq-1"], float: ["-28.0", "0.1", "1e+16", "5e-324"]}


@pytest.mark.parametrize(
    "schema", [LOG_SCHEMA, EPHEMERIS_SCHEMA, CORRECTION_SCHEMA, LOGON_SCHEMA, ERROR_SCHEMA, CURVE_SCHEMA],
    ids=["log", "ephemeris", "corrections", "logons", "error samples", "curve"],
)
def test_every_schema_parser_has_a_format_that_writes_its_cells_back(schema):
    for column, parse in schema.items():
        texts = CANONICAL[parse] if parse in CANONICAL else [m.value for m in parse]
        assert [_FORMATS[parse](parse(text)) for text in texts] == texts, column
