import numpy as np
import pytest

from bfokit.errors import DomainError, ParseError
from bfokit.fixtures import fixture_path
from bfokit.ingest import (
    format_time_utc,
    load_correction_csv,
    load_ephemeris_csv,
    load_error_samples_csv,
    load_log_csv,
    load_logon_csv,
    parse_time_utc,
    write_correction_csv,
    write_ephemeris_csv,
    write_error_samples_csv,
    write_log_csv,
    write_logon_csv,
)

from datetime import date

REF = date(2014, 3, 7)


class TestTimestamps:
    def test_full_iso(self):
        t = parse_time_utc("2014-03-07T16:42:00Z")
        assert format_time_utc(t) == "2014-03-07T16:42:00Z"

    def test_shorthand_afternoon_resolves_to_reference_date(self):
        t = parse_time_utc("19:41Z", REF)
        assert format_time_utc(t) == "2014-03-07T19:41:00Z"

    def test_shorthand_morning_resolves_to_next_day(self):
        t = parse_time_utc("00:19:29Z", REF)
        assert format_time_utc(t) == "2014-03-08T00:19:29Z"

    def test_shorthand_without_reference_rejected(self):
        with pytest.raises(DomainError):
            parse_time_utc("19:41Z")

    def test_non_utc_rejected(self):
        with pytest.raises(DomainError):
            parse_time_utc("2014-03-07T16:42:00+08:00")


class TestLogIngestion:
    def test_key_event_fixture_has_eight_events(self):
        ms = load_log_csv(fixture_path("mh370_key_events.csv")).measurements
        assert len(ms) == 8
        stamps = [format_time_utc(m.timestamp) for m in ms]
        assert stamps == [
            "2014-03-07T16:42:00Z",
            "2014-03-07T17:07:00Z",
            "2014-03-07T17:21:13Z",
            "2014-03-07T18:22:12Z",
            "2014-03-07T18:25:27Z",
            "2014-03-07T18:39:53Z",
            "2014-03-07T19:41:03Z",
            "2014-03-08T00:19:29Z",
        ]

    def test_measurements_are_time_sorted(self, tmp_path):
        src = fixture_path("mh370_bfo_log.csv").read_text()
        lines = src.splitlines()
        # swap the last two data rows out of order
        lines[-1], lines[-2] = lines[-2], lines[-1]
        p = tmp_path / "shuffled.csv"
        p.write_text("\n".join(lines) + "\n")
        ms = load_log_csv(p).measurements
        times = [m.timestamp for m in ms]
        assert times == sorted(times)

    def test_empty_file_has_no_measurements(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert load_log_csv(p).measurements == ()

    def test_nan_bfo_row_rejected_with_report(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "time_utc,channel,msg_type,bfo_hz,bto_us,ber,cn0_dbhz,signal_db\n"
            "2014-03-07T16:00:00Z,R,data,100,,0,41.7,\n"
            "2014-03-07T16:01:00Z,R,data,NaN,,0,41.7,\n"
        )
        records = load_log_csv(p)
        assert len(records.measurements) == 1
        assert len(records.rejected) == 1
        assert records.rejected[0][0] == 3  # physical line number
        ms = load_log_csv(p).measurements
        assert len(ms) == 1

    def test_unknown_column_rejected(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("time_utc,channel,msg_type,bfo_hz,bto_us,ber,cn0_dbhz,signal_db,extra\n")
        with pytest.raises(ParseError) as info:
            load_log_csv(p)
        assert "extra" in str(info.value)

    def test_unparsable_timestamp_is_structured_error(self, tmp_path):
        p = tmp_path / "time.csv"
        p.write_text(
            "time_utc,channel,msg_type,bfo_hz,bto_us,ber,cn0_dbhz,signal_db\n"
            "yesterday,R,data,100,,0,41.7,\n"
            "2014-03-07T16:00:00Z,R,data,100,,0,41.7,\n"
            "also-not-a-time,R,data,100,,0,41.7,\n"
        )
        with pytest.raises(ParseError) as info:
            load_log_csv(p)
        lines = [n for n, _ in info.value.problems]
        assert lines == [2, 4]


CSV_FIXTURES = [
    "mh370_bfo_log.csv",
    "mh370_key_events.csv",
    "ior_ephemeris_synthetic.csv",
    "ior_corrections_synthetic.csv",
    "logon_sequences.csv",
    "bfo_error_reference.csv",
]


class TestRoundTrip:
    @pytest.mark.parametrize("name", CSV_FIXTURES)
    def test_fixture_round_trips_bit_identically(self, name, tmp_path):
        src = fixture_path(name)
        out = tmp_path / name
        rewrite(name, src, out)
        assert out.read_bytes() == src.read_bytes()


def rewrite(name, src, out):
    """Load the fixture-kind CSV ``src`` and write it back to ``out``."""
    if "ephemeris" in name:
        write_ephemeris_csv(out, load_ephemeris_csv(src))
    elif "corrections" in name:
        write_correction_csv(out, load_correction_csv(src))
    elif "logon" in name:
        records = load_logon_csv(src)
        provenance = _header_comments(src)
        write_logon_csv(out, records, provenance)
    elif "error_reference" in name:
        values, provenance = load_error_samples_csv(src)
        write_error_samples_csv(out, values, provenance)
    else:
        records = load_log_csv(src)
        write_log_csv(out, records.measurements, records.provenance)


def _header_comments(path):
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            lines.append(line)
        else:
            break
    return lines


class TestFixtureContent:
    def test_all_fixtures_carry_provenance(self):
        for name in CSV_FIXTURES:
            comments = _header_comments(fixture_path(name))
            assert comments, f"{name} lacks a provenance header"
            assert any("source" in c for c in comments)

    def test_final_logon_pair_recorded_values(self):
        ms = load_log_csv(fixture_path("mh370_bfo_log.csv")).measurements
        logon = [m for m in ms if m.message_type.value == "logon_request"][-1]
        ack = [m for m in ms if m.message_type.value == "logon_ack"][-1]
        assert logon.bfo_hz == 182.0
        assert ack.bfo_hz == -2.0
        assert ack.timestamp - logon.timestamp == 8.0

    def test_ephemeris_fixture_loads(self):
        table = load_ephemeris_csv(fixture_path("ior_ephemeris_synthetic.csv"))
        assert len(table) >= 2
        t0, t1 = table.span
        assert t0 <= parse_time_utc("2014-03-07T16:00:00Z")
        assert t1 >= parse_time_utc("2014-03-08T00:19:37Z")

    def test_logon_fixture_has_seven_sequences(self):
        sequences = load_logon_csv(
            fixture_path("logon_sequences.csv"), fixture_path("logon_sequences_meta.json")
        )
        assert sorted(s.id for s in sequences) == list("1234567")


def permuted(text, order):
    """CSV text with its header and every row put in column order ``order``."""
    lines = []
    for line in text.splitlines():
        if not line.startswith("#"):
            fields = line.split(",")
            line = ",".join(fields[i] for i in order)
        lines.append(line)
    return "\n".join(lines) + "\n"


def with_line(name, lineno, edit, tmp_path):
    """A copy of bundled fixture ``name`` with line ``lineno`` (1-based) edited."""
    lines = fixture_path(name).read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


def problem_lines(load, path):
    with pytest.raises(ParseError) as info:
        load(path)
    return [n for n, _ in info.value.problems]


LOG_HEADER = "time_utc,channel,msg_type,bfo_hz,bto_us,ber,cn0_dbhz,signal_db\n"


class TestSchemaReader:
    def test_ephemeris_columns_are_read_by_name(self, tmp_path):
        src = fixture_path("ior_ephemeris_synthetic.csv")
        p = tmp_path / "eph.csv"
        p.write_text(permuted(src.read_text(), [0, 2, 1, 3, 4, 5, 6]))  # x_m <-> y_m
        swapped, original = load_ephemeris_csv(p), load_ephemeris_csv(src)
        assert np.array_equal(swapped.positions, original.positions)
        assert np.array_equal(swapped.velocities, original.velocities)

    def test_logon_columns_are_read_by_name(self, tmp_path):
        src = fixture_path("logon_sequences.csv")
        p = tmp_path / "logons.csv"
        p.write_text(permuted(src.read_text(), [0, 1, 2, 4, 3, 5, 6]))  # bfo_hz <-> ber
        assert load_logon_csv(p) == load_logon_csv(src)

    @pytest.mark.parametrize(
        "name, load",
        [
            ("ior_ephemeris_synthetic.csv", load_ephemeris_csv),
            ("ior_corrections_synthetic.csv", load_correction_csv),
            ("logon_sequences.csv", load_logon_csv),
        ],
    )
    def test_extra_field_is_parse_error_at_its_line(self, name, load, tmp_path):
        p = with_line(name, 5, lambda line: line + ",1", tmp_path)
        with pytest.raises(ParseError) as info:
            load(p)
        assert len(info.value.problems) == 1
        lineno, message = info.value.problems[0]
        assert lineno == 5 and "fields" in message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_correction_is_parse_error(self, value, tmp_path):
        p = tmp_path / "corr.csv"
        p.write_text(f"time_utc,delta_f_hz\n2014-03-07T15:30:00Z,1.5\n2014-03-07T15:40:00Z,{value}\n")
        assert problem_lines(load_correction_csv, p) == [3]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_error_sample_is_parse_error(self, value, tmp_path):
        p = tmp_path / "errors.csv"
        p.write_text(f"bfo_error_hz\n1.0\n{value}\n2.0\n")
        assert problem_lines(load_error_samples_csv, p) == [3]

    @pytest.mark.parametrize("column", ["bto_us", "signal_db"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
    def test_non_finite_optional_log_cell_is_rejected(self, column, value, tmp_path):
        cells = {"bto_us": "", "signal_db": "", column: value}
        p = tmp_path / "log.csv"
        p.write_text(
            LOG_HEADER
            + "2014-03-07T16:00:00Z,R,data,100,,0,41.7,\n"
            + f"2014-03-07T16:01:00Z,R,data,100,{cells['bto_us']},0,41.7,{cells['signal_db']}\n"
        )
        records = load_log_csv(p)
        assert len(records.measurements) == 1
        assert [(n, m.split(":")[0]) for n, m in records.rejected] == [(3, column)]

    def test_repeated_column_is_parse_error_at_header_line(self, tmp_path):
        p = tmp_path / "corr.csv"
        p.write_text("# source: test\ntime_utc,delta_f_hz,delta_f_hz\n2014-03-07T15:30:00Z,1,2\n")
        with pytest.raises(ParseError) as info:
            load_correction_csv(p)
        assert info.value.problems == [(2, "repeated column(s): delta_f_hz")]

    def test_header_problems_name_the_header_line(self, tmp_path):
        p = tmp_path / "eph.csv"
        p.write_text("# source: test\n\ntime_utc,x_m,y_m,z_m,vx_mps,vy_mps,speed\n")
        with pytest.raises(ParseError) as info:
            load_ephemeris_csv(p)
        assert info.value.problems == [
            (3, "unknown column(s): speed"),
            (3, "missing column(s): vz_mps"),
        ]

    def test_log_rejects_bad_rows_and_keeps_good_ones(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text(
            LOG_HEADER
            + "2014-03-07T16:00:00Z,R,data,100,,0,41.7,\n"
            + "2014-03-07T16:01:00Z,X,data,100,,0,41.7,\n"  # unknown channel
            + "2014-03-07T16:02:00Z,R,data,100,,0,41.7\n"  # one field short
            + "2014-03-07T16:03:00Z,R,data,100,,-1,41.7,\n"  # negative BER
        )
        records = load_log_csv(p)
        assert len(records.measurements) == 1
        assert [n for n, _ in records.rejected] == [3, 4, 5]
        assert records.rejected[0][1].startswith("channel: ")
        assert records.rejected[1][1] == "expected 8 fields, got 7"

    def test_log_row_past_year_9999_is_a_parse_error_at_its_line(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text(
            LOG_HEADER
            + "2014-03-07T16:00:00Z,R,data,100,,0,41.7,\n"
            + "9999-12-31T23:59:59.999999Z,R,data,100,,0,41.7,\n"
        )
        with pytest.raises(ParseError) as info:
            load_log_csv(p)
        [(lineno, message)] = info.value.problems
        assert lineno == 3 and message.startswith("time_utc: ") and "year 9999" in message

    def test_log_with_bad_timestamp_lists_only_timestamp_lines(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text(
            LOG_HEADER
            + "soon,R,data,100,,0,41.7,\n"
            + "2014-03-07T16:01:00Z,X,data,100,,0,41.7,\n"
            + "later,R,data,100,,0,41.7,\n"
        )
        assert problem_lines(load_log_csv, p) == [2, 4]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: line.replace(",0,41.8,", ",-1,41.8,"),  # negative BER
            lambda line: line.replace("closed_loop", "open_loop"),  # mixes modes
        ],
    )
    def test_logon_row_domain_errors_are_parse_errors_at_their_line(self, edit, tmp_path):
        p = with_line("logon_sequences.csv", 4, edit, tmp_path)
        assert problem_lines(load_logon_csv, p) == [4]

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        p = tmp_path / "corr.csv"
        p.write_bytes(b"time_utc,delta_f_hz\n2014-03-07T15:30:00Z,\xff\n")
        assert problem_lines(load_correction_csv, p) == [2]

    def test_every_bad_row_is_listed(self, tmp_path):
        p = tmp_path / "corr.csv"
        p.write_text(
            "time_utc,delta_f_hz\n"
            "2014-03-07T15:30:00Z,1\n"
            "2014-03-07T15:40:00Z,x\n"
            "2014-03-07T15:50:00Z\n"
            "2014-03-07T16:00:00,2\n"
        )
        with pytest.raises(ParseError) as info:
            load_correction_csv(p)
        assert [(n, m.split(":")[0]) for n, m in info.value.problems] == [
            (3, "delta_f_hz"),
            (4, "expected 2 fields, got 1"),
            (5, "time_utc"),
        ]


class TestTimestampText:
    @pytest.mark.parametrize(
        "t, text",
        [
            (1394150400.0000012, "2014-03-07T00:00:00.000001Z"),
            (1394150400.9999993, "2014-03-07T00:00:00.999999Z"),
            (1394150400.9999998, "2014-03-07T00:00:01Z"),
            (1394150400.5, "2014-03-07T00:00:00.5Z"),
        ],
    )
    def test_rounds_to_the_microsecond_and_reads_back(self, t, text):
        assert format_time_utc(t) == text
        assert format_time_utc(parse_time_utc(text)) == text
