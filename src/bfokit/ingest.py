"""CSV/JSON ingestion and emission for logs, tables and fixtures.

All files are UTF-8 CSV with ISO-8601 Zulu timestamps and an optional
block of leading ``#`` provenance lines, which loaders capture and
writers re-emit so that read-write round trips are byte identical.

Schemas:
  log:        time_utc,channel,msg_type,bfo_hz,bto_us,ber,cn0_dbhz,signal_db
  ephemeris:  time_utc,x_m,y_m,z_m,vx_mps,vy_mps,vz_mps
  correction: time_utc,delta_f_hz
  log-ons:    seq_id,time_utc,msg_type,bfo_hz,ber,cn0_dbhz,comp_mode
  sweep:      track_deg,bfo_error_hz
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import chain, islice
from pathlib import Path

from .errors import DomainError, ParseError
from .satellite import CorrectionTable, EphemerisTable
from .stats import BfoMeasurement, Channel, MessageType
from .warmup import CompensationMode, LogonSequence

LOG_COLUMNS = ["time_utc", "channel", "msg_type", "bfo_hz", "bto_us", "ber", "cn0_dbhz", "signal_db"]
EPHEMERIS_COLUMNS = ["time_utc", "x_m", "y_m", "z_m", "vx_mps", "vy_mps", "vz_mps"]
CORRECTION_COLUMNS = ["time_utc", "delta_f_hz"]
LOGON_COLUMNS = ["seq_id", "time_utc", "msg_type", "bfo_hz", "ber", "cn0_dbhz", "comp_mode"]
CURVE_COLUMNS = ["track_deg", "bfo_error_hz"]
ERROR_COLUMNS = ["bfo_error_hz"]


# ---------------------------------------------------------------------------
# timestamps

def parse_time_utc(text: str, reference_date: date | None = None) -> float:
    """Parse an ISO-8601 Zulu timestamp to UTC seconds.

    Accepts full timestamps (``2014-03-07T16:42:00Z``) and, when
    ``reference_date`` is given, time-of-day shorthand (``00:19:29Z``).
    Shorthand resolves on a noon-to-noon UTC window: hours >= 12 fall on
    the reference date, hours < 12 on the day after.
    """
    s = text.strip()
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
        day = reference_date if t.hour >= 12 else reference_date + timedelta(days=1)
        dt = datetime.combine(day, t, tzinfo=timezone.utc)
        return dt.timestamp()
    raise DomainError(f"unparsable timestamp {text!r}")


def format_time_utc(t: float) -> str:
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    if abs(t - round(t)) < 1e-6:
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    return dt.strftime("%Y-%m-%dT%H:%M:%S.%f").rstrip("0") + "Z"


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


# ---------------------------------------------------------------------------
# generic CSV plumbing

def _read_rows(path) -> tuple[list[str], list[str], list[tuple[int, list[str]]]]:
    """Return (provenance lines, header fields, [(line_number, fields)])."""
    text = Path(path).read_text(encoding="utf-8")
    provenance: list[str] = []
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if header is None and line.lstrip().startswith("#"):
            provenance.append(line.rstrip("\n"))
            continue
        fields = next(csv.reader(io.StringIO(line)))
        if header is None:
            header = [f.strip() for f in fields]
        else:
            rows.append((lineno, fields))
    return provenance, header or [], rows


def _check_header(path, header, expected) -> None:
    if not header:
        return
    problems = []
    unknown = [c for c in header if c not in expected]
    missing = [c for c in expected if c not in header]
    if unknown:
        problems.append((1, f"unknown column(s): {', '.join(unknown)}"))
    if missing:
        problems.append((1, f"missing column(s): {', '.join(missing)}"))
    if problems:
        raise ParseError(path, problems)


def _write_csv(path, provenance, header, rows) -> None:
    """Write in blocks of lines, so a large table is never held as one string."""
    lines = chain(provenance, [",".join(header)], (",".join(r) for r in rows))
    with open(path, "w", encoding="utf-8") as f:
        while block := list(islice(lines, 1024)):
            f.write("\n".join(block) + "\n")


# ---------------------------------------------------------------------------
# BFO logs

@dataclass(frozen=True)
class LogRecords:
    measurements: tuple[BfoMeasurement, ...]
    provenance: tuple[str, ...]
    rejected: tuple[tuple[int, str], ...]


def load_log_csv(path) -> LogRecords:
    """Parse a burst log. Structural problems (unknown columns, bad
    timestamps) raise :class:`ParseError`; rows with bad numeric or enum
    fields are rejected and reported in ``rejected``."""
    provenance, header, rows = _read_rows(path)
    _check_header(path, header, LOG_COLUMNS)
    idx = {c: header.index(c) for c in header}

    fatal: list[tuple[int, str]] = []
    rejected: list[tuple[int, str]] = []
    measurements: list[BfoMeasurement] = []
    for lineno, fields in rows:
        if len(fields) != len(header):
            rejected.append((lineno, f"expected {len(header)} fields, got {len(fields)}"))
            continue
        try:
            t = parse_time_utc(fields[idx["time_utc"]])
        except DomainError as e:
            fatal.append((lineno, str(e)))
            continue
        try:
            bfo = float(fields[idx["bfo_hz"]])
            if not math.isfinite(bfo):
                raise ValueError(f"bfo_hz {fields[idx['bfo_hz']]!r} is not finite")
            bto_text = fields[idx["bto_us"]].strip()
            signal_text = fields[idx["signal_db"]].strip()
            m = BfoMeasurement(
                timestamp=t,
                channel=Channel(fields[idx["channel"]].strip()),
                message_type=MessageType(fields[idx["msg_type"]].strip()),
                bfo_hz=bfo,
                bto_us=float(bto_text) if bto_text else None,
                ber=float(fields[idx["ber"]]),
                cn0_dbhz=float(fields[idx["cn0_dbhz"]]),
                signal_db=float(signal_text) if signal_text else None,
            )
        except (ValueError, DomainError) as e:
            rejected.append((lineno, str(e)))
            continue
        measurements.append(m)

    if fatal:
        raise ParseError(path, fatal)
    measurements.sort(key=lambda m: m.timestamp)
    return LogRecords(tuple(measurements), tuple(provenance), tuple(rejected))


def ingest_logs(path) -> list[BfoMeasurement]:
    """Spec surface: parsed, time-sorted measurements from a log CSV.

    Rejected rows and empty files are reported as warnings.
    """
    records = load_log_csv(path)
    for lineno, msg in records.rejected:
        warnings.warn(f"{path}: rejected line {lineno}: {msg}", stacklevel=2)
    if not records.measurements:
        warnings.warn(f"{path}: no measurements", stacklevel=2)
    return list(records.measurements)


def write_log_csv(path, measurements, provenance=()) -> None:
    rows = [
        [
            format_time_utc(m.timestamp),
            m.channel.value,
            m.message_type.value,
            _fmt(m.bfo_hz),
            _fmt(m.bto_us),
            _fmt(m.ber),
            _fmt(m.cn0_dbhz),
            _fmt(m.signal_db),
        ]
        for m in measurements
    ]
    _write_csv(path, provenance, LOG_COLUMNS, rows)


# ---------------------------------------------------------------------------
# ephemeris and corrections

def load_ephemeris_csv(path) -> EphemerisTable:
    provenance, header, rows = _read_rows(path)
    _check_header(path, header, EPHEMERIS_COLUMNS)
    times, positions, velocities = [], [], []
    problems = []
    for lineno, fields in rows:
        try:
            times.append(parse_time_utc(fields[0]))
            positions.append([float(v) for v in fields[1:4]])
            velocities.append([float(v) for v in fields[4:7]])
        except (ValueError, IndexError, DomainError) as e:
            problems.append((lineno, str(e)))
    if problems:
        raise ParseError(path, problems)
    return EphemerisTable(times, positions, velocities, provenance)


def write_ephemeris_csv(path, table: EphemerisTable) -> None:
    rows = []
    for i in range(len(table)):
        t, p, v = table.row(i)
        rows.append([format_time_utc(t)] + [_fmt(x) for x in (*p.as_tuple(), *v.as_tuple())])
    _write_csv(path, table.provenance, EPHEMERIS_COLUMNS, rows)


def load_correction_csv(path) -> CorrectionTable:
    provenance, header, rows = _read_rows(path)
    _check_header(path, header, CORRECTION_COLUMNS)
    times, values, problems = [], [], []
    for lineno, fields in rows:
        try:
            times.append(parse_time_utc(fields[0]))
            values.append(float(fields[1]))
        except (ValueError, IndexError, DomainError) as e:
            problems.append((lineno, str(e)))
    if problems:
        raise ParseError(path, problems)
    return CorrectionTable(times, values, provenance)


def write_correction_csv(path, table: CorrectionTable) -> None:
    rows = [
        [format_time_utc(float(t)), _fmt(float(v))]
        for t, v in zip(table.times, table.values)
    ]
    _write_csv(path, table.provenance, CORRECTION_COLUMNS, rows)


# ---------------------------------------------------------------------------
# log-on sequences

def load_logon_csv(path, meta=None) -> list[LogonSequence]:
    """Parse log-on sequences grouped by ``seq_id`` (file order preserved).

    ``meta`` is an optional sidecar mapping (or path to a JSON file)
    carrying per-sequence outage bounds, notes and the settled-proxy
    annotation, which the CSV schema itself does not hold.
    """
    if meta is not None and not isinstance(meta, dict):
        meta = json.loads(Path(meta).read_text(encoding="utf-8"))
    meta = meta or {}

    provenance, header, rows = _read_rows(path)
    _check_header(path, header, LOGON_COLUMNS)
    problems = []
    by_seq: dict[str, list] = {}
    modes: dict[str, str] = {}
    for lineno, fields in rows:
        try:
            seq_id = fields[0].strip()
            m = BfoMeasurement(
                timestamp=parse_time_utc(fields[1]),
                channel=Channel.R,
                message_type=MessageType(fields[2].strip()),
                bfo_hz=float(fields[3]),
                ber=float(fields[4]),
                cn0_dbhz=float(fields[5]),
            )
            mode = fields[6].strip()
            CompensationMode(mode)
        except (ValueError, IndexError, DomainError) as e:
            problems.append((lineno, str(e)))
            continue
        if modes.setdefault(seq_id, mode) != mode:
            problems.append((lineno, f"sequence {seq_id} mixes compensation modes"))
            continue
        by_seq.setdefault(seq_id, []).append(m)
    if problems:
        raise ParseError(path, problems)

    sequences = []
    for seq_id, ms in by_seq.items():
        info = meta.get(seq_id, {})
        outage = info.get("outage_minutes")
        sequences.append(
            LogonSequence(
                id=seq_id,
                logon_time=ms[0].timestamp,
                measurements=tuple(ms),
                compensation_mode=CompensationMode(modes[seq_id]),
                outage_bounds_min=tuple(outage) if outage else None,
                notes=info.get("notes", ""),
                settled_proxy=bool(info.get("settled_proxy", False)),
            )
        )
    return sequences


def write_logon_csv(path, sequences, provenance=()) -> None:
    rows = []
    for seq in sequences:
        for m in seq.measurements:
            rows.append(
                [
                    seq.id,
                    format_time_utc(m.timestamp),
                    m.message_type.value,
                    _fmt(m.bfo_hz),
                    _fmt(m.ber),
                    _fmt(m.cn0_dbhz),
                    seq.compensation_mode.value,
                ]
            )
    _write_csv(path, provenance, LOGON_COLUMNS, rows)


# ---------------------------------------------------------------------------
# sweep curves and error samples

def write_curve_csv(path, curve, provenance=()) -> None:
    rows = ((_fmt(a), repr(float(e))) for a, e in curve)
    _write_csv(path, provenance, CURVE_COLUMNS, rows)


def load_error_samples_csv(path) -> tuple[list[float], tuple[str, ...]]:
    """One-column CSV of BFO error samples (Hz); returns (values, provenance)."""
    provenance, header, rows = _read_rows(path)
    _check_header(path, header, ERROR_COLUMNS)
    values, problems = [], []
    for lineno, fields in rows:
        try:
            values.append(float(fields[0]))
        except (ValueError, IndexError) as e:
            problems.append((lineno, str(e)))
    if problems:
        raise ParseError(path, problems)
    return values, tuple(provenance)


def write_error_samples_csv(path, values, provenance=()) -> None:
    _write_csv(path, provenance, ERROR_COLUMNS, [[repr(float(v))] for v in values])
