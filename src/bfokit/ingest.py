"""CSV/JSON ingestion and emission for logs, tables and fixtures.

All files are UTF-8 CSV with ISO-8601 Zulu timestamps and an optional
block of leading ``#`` provenance lines, which loaders capture and
writers re-emit so that read-write round trips are byte identical.

Each table has a schema, an ordered ``{column: parser}`` mapping, that is its
codec both ways. One reader, :func:`_load_table`, reads any column order by name.
One writer, :func:`_write_table`, writes the schema's order, each cell by its
parser's inverse (``_FORMATS``), 256 rows at a time, a column at a time.
"""

import csv
import json
import math
import os
import sys
from itertools import compress, islice
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import DomainError, ParseError
from .satellite import CorrectionTable, EphemerisTable
from .stats import BfoMeasurement, Channel, MessageType
from .timestamps import format_time_column, format_time_utc, parse_time_column, parse_time_utc
from .warmup import CompensationMode, LogonSequence


# ---------------------------------------------------------------------------
# schemas: {column: parser}, in write order. Parsers get the stripped cell.

def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if f.is_integer():
        if abs(f) < 1e15:
            return str(int(f))
    elif not math.isfinite(f):
        int(f)  # raises int()'s OverflowError for ±inf and ValueError for NaN
    return repr(f)


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _optional(text: str) -> float | None:
    return _float(text) if text else None


# Each Enum column's lookup, {value: member}; a cell it misses is read by the Enum, which raises.
_MEMBERS = {cls: {m.value: m for m in cls} for cls in (Channel, MessageType, CompensationMode)}
# Each parser's inverse: how a writer formats the values it reads.
_FORMATS = {parse_time_utc: format_time_utc, _float: _fmt, _optional: _fmt, float: repr, str: str,
            **dict.fromkeys(_MEMBERS, attrgetter("value"))}
# Columns in BfoMeasurement's field order, so a parsed row is its arguments.
LOG_SCHEMA = {
    "time_utc": parse_time_utc, "channel": Channel, "msg_type": MessageType,
    "bfo_hz": _float, "bto_us": _optional, "ber": _float, "cn0_dbhz": _float, "signal_db": _optional,
}
EPHEMERIS_SCHEMA = {
    "time_utc": parse_time_utc,
    **dict.fromkeys(["x_m", "y_m", "z_m", "vx_mps", "vy_mps", "vz_mps"], _float),
}
CORRECTION_SCHEMA = {"time_utc": parse_time_utc, "delta_f_hz": _float}
LOGON_SCHEMA = {
    "seq_id": str, "time_utc": parse_time_utc, "msg_type": MessageType, "bfo_hz": _float,
    "ber": _float, "cn0_dbhz": _float, "comp_mode": CompensationMode,
}
ERROR_SCHEMA = {"bfo_error_hz": _float}
CURVE_SCHEMA = {"track_deg": _float, "bfo_error_hz": float}


# ---------------------------------------------------------------------------
# the one CSV reader and the one CSV writer

def _parse_column(parse, cells):
    """``[parse(c.strip()) for c in cells]``, in one C-level pass if it can; a refused cell raises ValueError."""
    if parse is _optional and not any(map(str.strip, cells)):
        return [None] * len(cells)
    if parse is parse_time_utc:
        return parse_time_column(list(map(str.strip, cells)))
    if parse is _float or (parse is _optional and all(map(str.strip, cells))):
        values = list(map(float, cells))  # float() ignores what str.strip() strips, or refuses the cell
        good = all(map(math.isfinite, values))
    elif parse in _MEMBERS:
        values = list(map(_MEMBERS[parse].get, map(str.strip, cells)))
        good = None not in values
    else:
        return list(map(parse, map(str.strip, cells)))
    if not good:
        raise ValueError("a cell the column pass refuses")
    return values


def _parse_block(cells, linenos, columns, make, items, problems) -> None:
    """Parse the rows at ``linenos``, fields row after row in ``cells``, a column at a time, and empty both
    lists. A refused block is parsed again row by row to find each bad row, so ``make`` may see a row twice."""
    if not linenos:
        return
    n = len(columns)
    try:
        items += list(map(make, *[_parse_column(parse, cells[i::n]) for i, _, parse in columns]))
    except ValueError:  # a bad cell (DomainError included), or a row make refuses
        for lineno, start in zip(linenos, range(0, len(cells), n)):
            row = []
            for i, column, parse in columns:
                try:
                    row.append(parse(cells[start + i].strip()))
                except ValueError as e:
                    problems.append((lineno, f"{column}: {e}"))
                    break
            else:
                try:
                    items.append(make(*row))
                except DomainError as e:
                    problems.append((lineno, str(e)))
    del cells[:], linenos[:]


def _load_table(path, schema, make):
    """Read a CSV table by column name, in any column order.

    Returns ``(provenance, items, problems)``: the leading ``#`` lines,
    ``make(*cells)`` for each good row (cells parsed, in schema order) and
    a ``(line, message)`` pair for each bad row: a wrong field count, a
    cell its parser rejects (the message starts with the column name) or
    a ``make`` that raises :class:`DomainError`. A header with unknown,
    missing or repeated columns raises :class:`ParseError` at its line.
    So does a file that starts with a UTF-8 byte-order mark, at line 1.
    A file without a header is an empty table. A line holding a quote or a
    NUL, or longer than the csv field limit, is split by :mod:`csv`; any
    other line is split on commas, which is the same split.
    """
    data = Path(path).read_bytes()
    if data.startswith(b"\xef\xbb\xbf"):  # a writer would drop it, so no read skips it
        raise ParseError(path, [(1, "starts with a UTF-8 byte-order mark")])
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParseError(path, [(data.count(b"\n", 0, e.start) + 1, "not UTF-8 text")]) from e
    provenance: list[str] = []
    items: list = []
    problems: list[tuple[int, str]] = []
    cells, linenos = [], []  # the fields and line numbers of a block's rows
    columns = None
    limit = csv.field_size_limit()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if columns is None and line.lstrip().startswith("#"):
            provenance.append(line)
            continue
        if '"' in line or "\0" in line or len(line) > limit:
            try:
                fields = next(csv.reader((line,)))
            except csv.Error as e:  # a field beyond the size limit, or a NUL before Python 3.11
                _parse_block(cells, linenos, columns, make, items, problems)  # an earlier row raises first
                raise ParseError(path, [(lineno, str(e))]) from e
        else:
            fields = line.split(",")
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
        cells += fields
        linenos.append(lineno)
        if len(linenos) == 256:  # few enough rows that a block's cells stay small
            _parse_block(cells, linenos, columns, make, items, problems)
    _parse_block(cells, linenos, columns, make, items, problems)
    return provenance, items, sorted(problems)  # a ragged row's problem comes before its block's


def _format_column(write, column) -> list[str]:
    """``[write(v) for v in column]``, in C-level passes for a time column and an ``_fmt`` column of finite floats."""
    if write is format_time_utc:
        return format_time_column(column)
    if write is not _fmt or {*map(type, column)} != {float} or not math.isfinite(sum(column)):
        return list(map(write, column))  # not floats alone, or an inf or a nan, which _fmt refuses
    values = list(column)
    for i in compress(range(len(values)), map(float.is_integer, values)):
        if abs(values[i]) < 1e15:  # _fmt writes these as ints, and repr(int) is str(int)
            values[i] = int(values[i])
    return list(map(repr, values))


def _write_whole(path, chunks) -> None:
    """Write the strings ``chunks`` to a new file beside ``path`` and move it onto ``path`` once it is whole, so
    ``path`` keeps its old bytes, or stays absent, until then; a symlink at ``path`` is replaced, not written
    through. Any error removes the new file, and an ``OSError`` names ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    created = False
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            created = True
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as e:
        if created:
            tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, str(path)) from e
        raise


# What a cell format raises for a value it cannot write: _fmt for an inf, a nan or a non-number, an Enum
# column's format for a value that is no member
_REFUSED = (ArithmeticError, AttributeError, TypeError, ValueError)


def _refused_cell(path, schema, formats, block, first_row):
    """The :class:`DomainError` naming the first cell of ``block`` (rows ``first_row`` on) that its format refuses."""
    for row, values in enumerate(block, first_row):
        for column, write, value in zip(schema, formats, values):
            try:
                write(value)
            except _REFUSED as e:
                return DomainError(f"{path}: {column}, row {row}: cannot write {value!r} ({e})")
    return None


def _write_table(path, provenance, schema, rows) -> None:
    """Write the provenance, the header and ``rows``, tuples in ``schema`` order: 256 rows a block, each
    formatted a column at a time and written at once, so a large table is never held as one string. The file
    is whole or absent (:func:`_write_whole`); a cell its format refuses raises :class:`DomainError` naming
    ``path``, the column and the 1-based row."""
    formats = [_FORMATS[parse] for parse in schema.values()]

    def chunks():
        yield "\n".join([*provenance, ",".join(schema)]) + "\n"
        blocks = iter(rows)
        first_row = 1
        while block := list(islice(blocks, 256)):
            try:
                columns = [_format_column(fmt, column) for fmt, column in zip(formats, zip(*block))]
            except _REFUSED as e:
                raise _refused_cell(path, schema, formats, block, first_row) or e
            yield "\n".join(map(",".join, zip(*columns))) + "\n"
            first_row += len(block)

    _write_whole(path, chunks())


# ---------------------------------------------------------------------------
# BFO logs

class LogRecords(NamedTuple):
    measurements: tuple[BfoMeasurement, ...]
    provenance: tuple[str, ...]
    rejected: tuple[tuple[int, str], ...]


def load_log_csv(path) -> LogRecords:
    """Parse a burst log. A bad header or any bad timestamp raises one
    :class:`ParseError` listing every bad line; other bad rows are
    rejected and reported in ``rejected``."""
    provenance, measurements, problems = _load_table(path, LOG_SCHEMA, BfoMeasurement)
    fatal = [p for p in problems if p[1].startswith("time_utc: ")]
    if fatal:
        raise ParseError(path, fatal)
    measurements.sort(key=lambda m: m.timestamp)
    return LogRecords(tuple(measurements), tuple(provenance), tuple(problems))


def write_log_csv(path, measurements, provenance=()) -> None:
    _write_table(path, provenance, LOG_SCHEMA, measurements)


# ---------------------------------------------------------------------------
# ephemeris and corrections

def load_ephemeris_csv(path) -> EphemerisTable:
    provenance, rows, problems = _load_table(path, EPHEMERIS_SCHEMA, lambda *row: row)
    if problems:
        raise ParseError(path, problems)
    return EphemerisTable(
        [r[0] for r in rows], [r[1:4] for r in rows], [r[4:] for r in rows], provenance
    )


def write_ephemeris_csv(path, table: EphemerisTable) -> None:
    _write_table(path, table.provenance, EPHEMERIS_SCHEMA, ((t, *r) for t, r in zip(table.time_list, table.row_list)))


def load_correction_csv(path) -> CorrectionTable:
    provenance, rows, problems = _load_table(path, CORRECTION_SCHEMA, lambda *row: row)
    if problems:
        raise ParseError(path, problems)
    return CorrectionTable([t for t, _ in rows], [v for _, v in rows], provenance)


def write_correction_csv(path, table: CorrectionTable) -> None:
    _write_table(path, table.provenance, CORRECTION_SCHEMA, zip(table.time_list, table.value_list))


# ---------------------------------------------------------------------------
# log-on sequences

def _finite_number(x) -> bool:
    return type(x) in (int, float) and abs(x) <= sys.float_info.max  # no bools, nan, inf or 1e999


# The sidecar's per-sequence keys: {key: (what it must be, check)}.
LOGON_META_SCHEMA = {
    "outage_minutes": (
        "a list of two finite numbers, the lower first",
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite_number, v)) and v[0] <= v[1],
    ),
    "settled_proxy": ("true or false", lambda v: isinstance(v, bool)),
    "notes": ("a string", lambda v: isinstance(v, str)),
}


def _load_logon_meta(path, seq_ids, csv_path) -> dict:
    """The log-on sidecar JSON file at ``path`` (None for none), checked
    against :data:`LOGON_META_SCHEMA` and against ``seq_ids``, the
    sequences in ``csv_path``. Any problem raises :class:`ParseError`."""
    if path is None:
        return {}
    try:
        meta = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(path, [(e.lineno, f"not valid JSON: {e.msg}")]) from e
    except UnicodeDecodeError as e:
        raise ParseError(path, [(None, "not UTF-8 text")]) from e
    if not isinstance(meta, dict):
        raise ParseError(path, [(None, "expected an object of per-sequence objects")])
    problems = []
    for seq_id, info in meta.items():
        if not isinstance(info, dict):
            problems.append((None, f"sequence {seq_id}: expected an object, got {info!r}"))
            continue
        for key, value in info.items():
            if key not in LOGON_META_SCHEMA:
                problems.append((None, f"sequence {seq_id}: unknown key {key!r}"))
            elif not LOGON_META_SCHEMA[key][1](value):
                what = LOGON_META_SCHEMA[key][0]
                problems.append((None, f"sequence {seq_id}: {key} must be {what}, got {value!r}"))
    unknown = [seq_id for seq_id in meta if seq_id not in seq_ids]
    if unknown:
        problems.append((None, f"sequence id(s) not in {csv_path}: {', '.join(map(repr, unknown))}"))
    if problems:
        raise ParseError(path, problems)
    return meta


def load_logon_csv(path, meta=None) -> list[LogonSequence]:
    """Parse log-on sequences grouped by ``seq_id`` (file order preserved).

    ``meta`` is the path of an optional sidecar JSON file carrying
    per-sequence outage bounds, notes and the settled-proxy
    annotation, which the CSV schema itself does not hold. The CSV is read
    first; every sequence id in the sidecar must name one of its sequences.
    A sequence whose rows are out of time order or do not start with a log-on
    request raises :class:`ParseError` naming the CSV and the sequence.
    """
    modes: dict[str, CompensationMode] = {}

    def row(seq_id, t, msg_type, bfo_hz, ber, cn0_dbhz, mode):
        m = BfoMeasurement(t, Channel.R, msg_type, bfo_hz, ber=ber, cn0_dbhz=cn0_dbhz)
        if modes.setdefault(seq_id, mode) is not mode:
            raise DomainError(f"sequence {seq_id} mixes compensation modes")
        return seq_id, m

    _, rows, problems = _load_table(path, LOGON_SCHEMA, row)
    if problems:
        raise ParseError(path, problems)
    by_seq: dict[str, list] = {}
    for seq_id, m in rows:
        by_seq.setdefault(seq_id, []).append(m)
    meta = _load_logon_meta(meta, by_seq, path)

    sequences = []
    for seq_id, ms in by_seq.items():
        info = meta.get(seq_id, {})
        outage = info.get("outage_minutes")
        try:
            sequence = LogonSequence(
                id=seq_id, measurements=tuple(ms), compensation_mode=modes[seq_id],
                outage_bounds_min=tuple(outage) if outage else None,
                notes=info.get("notes", ""), settled_proxy=info.get("settled_proxy", False),
            )
        except DomainError as e:  # the sidecar's checks hold its outage order, so the CSV is at fault
            raise ParseError(path, [(None, str(e))]) from None
        sequences.append(sequence)
    return sequences


def write_logon_csv(path, sequences, provenance=()) -> None:
    """A ``seq_id`` with a comma, quote, NUL, line break or outer whitespace, or longer than the csv field
    limit, raises :class:`DomainError`."""
    sequences, limit = list(sequences), csv.field_size_limit()
    for seq in sequences:
        if "".join(seq.id.strip().splitlines()) != seq.id or any(c in seq.id for c in ',"\0') or len(seq.id) > limit:
            raise DomainError(f"sequence id {seq.id!r} would not read back unchanged from a CSV cell")
    rows = ((seq.id, m.timestamp, m.message_type, m.bfo_hz, m.ber, m.cn0_dbhz, seq.compensation_mode)
            for seq in sequences for m in seq.measurements)
    _write_table(path, provenance, LOGON_SCHEMA, rows)


# ---------------------------------------------------------------------------
# sweep curves and error samples, written with repr, which keeps the .0 of -28.0

def write_curve_csv(path, curve, provenance=()) -> None:
    """``curve`` is ``(tracks, errors)``, two sequences of numbers, such as a track sweep's arrays."""
    tracks, errors = (c.tolist() if hasattr(c, "tolist") else c for c in curve)
    _write_table(path, provenance, CURVE_SCHEMA, zip(tracks, map(float, errors), strict=True))


def load_error_samples_csv(path) -> tuple[list[float], tuple[str, ...]]:
    """One-column CSV of BFO error samples (Hz); returns (values, provenance)."""
    provenance, values, problems = _load_table(path, ERROR_SCHEMA, float)
    if problems:
        raise ParseError(path, problems)
    return values, tuple(provenance)


def write_error_samples_csv(path, values, provenance=()) -> None:
    _write_table(path, provenance, dict.fromkeys(ERROR_SCHEMA, float), zip(map(float, values)))
