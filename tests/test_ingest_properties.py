"""Property tests of the schema-driven CSV reader and the writers."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfokit.errors import DomainError, ParseError
from bfokit.fixtures import fixture_path
from bfokit.ingest import (
    CORRECTION_SCHEMA,
    EPHEMERIS_SCHEMA,
    ERROR_SCHEMA,
    LOG_SCHEMA,
    LOGON_SCHEMA,
    load_correction_csv,
    load_ephemeris_csv,
    load_error_samples_csv,
    load_log_csv,
    load_logon_csv,
    write_correction_csv,
    write_ephemeris_csv,
    write_error_samples_csv,
    write_log_csv,
    write_logon_csv,
)
from bfokit.satellite import GEO_RADIUS_M, CorrectionTable, EphemerisTable
from bfokit.stats import BfoMeasurement, Channel, MessageType
from bfokit.warmup import CompensationMode, LogonSequence

from test_ingest import permuted, rewrite

REPO = Path(__file__).resolve().parent.parent
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False)
# Any instant from 1970 to about 2096, to the microsecond.
instants = st.integers(0, 4 * 10**15).map(lambda us: us / 1e6)
whole_seconds = st.lists(st.integers(0, 4 * 10**9), min_size=2, max_size=8, unique=True).map(
    lambda ts: [float(t) for t in sorted(ts)]
)
# Free text on one line: no control, line- or paragraph-separator characters.
one_line = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=30)
provenance = st.lists(one_line.map(lambda s: "# " + s), max_size=3)


def rewritten(tmp_path, kind, write):
    """Bytes of a file ``write`` makes, and of that file loaded and written back."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write(first)
    rewrite(kind, first, second)
    return first.read_bytes(), second.read_bytes()


class TestWriteReadRoundTrip:
    @SETTINGS
    @given(
        ms=st.lists(
            st.builds(
                BfoMeasurement,
                timestamp=instants,
                channel=st.sampled_from(Channel),
                message_type=st.sampled_from(MessageType),
                bfo_hz=finite,
                bto_us=st.none() | finite,
                ber=st.floats(min_value=0, allow_infinity=False),
                cn0_dbhz=finite,
                signal_db=st.none() | finite,
            ),
            max_size=6,
        ),
        prov=provenance,
    )
    def test_log(self, tmp_path, ms, prov):
        ms = sorted(ms, key=lambda m: m.timestamp)  # the loader sorts by time
        first, second = rewritten(tmp_path, "log", lambda p: write_log_csv(p, ms, prov))
        assert first == second

    @SETTINGS
    @given(times=whole_seconds, data=st.data(), prov=provenance)
    def test_ephemeris(self, tmp_path, times, data, prov):
        radial, lateral = st.floats(-4e5, 4e5), st.floats(-1e5, 1e5)
        positions = [
            [GEO_RADIUS_M + data.draw(radial), data.draw(lateral), data.draw(lateral)] for _ in times
        ]
        velocities = [data.draw(st.lists(finite, min_size=3, max_size=3)) for _ in times]
        table = EphemerisTable(times, positions, velocities, prov)
        first, second = rewritten(tmp_path, "ephemeris", lambda p: write_ephemeris_csv(p, table))
        assert first == second

    @SETTINGS
    @given(times=whole_seconds, data=st.data(), prov=provenance)
    def test_corrections(self, tmp_path, times, data, prov):
        values = data.draw(st.lists(finite, min_size=len(times), max_size=len(times)))
        table = CorrectionTable(times, values, prov)
        first, second = rewritten(tmp_path, "corrections", lambda p: write_correction_csv(p, table))
        assert first == second

    @SETTINGS
    @given(values=st.lists(finite, max_size=8), prov=provenance)
    def test_error_samples(self, tmp_path, values, prov):
        first, second = rewritten(
            tmp_path, "error_reference", lambda p: write_error_samples_csv(p, values, prov)
        )
        assert first == second

    @SETTINGS
    @given(
        seqs=st.lists(
            st.tuples(
                st.sampled_from(CompensationMode),
                st.integers(0, 4 * 10**9),
                st.lists(st.tuples(st.sampled_from(MessageType), finite, finite, finite), max_size=4),
            ),
            min_size=1,
            max_size=3,
        ),
        prov=provenance,
    )
    def test_logon_sequences(self, tmp_path, seqs, prov):
        sequences = []
        for k, (mode, start, rest) in enumerate(seqs):
            shape = [(MessageType.LOGON_REQUEST, 150.0, 0.0, 41.7)] + rest
            ms = tuple(
                BfoMeasurement(float(start + i), Channel.R, msg, bfo, ber=abs(ber), cn0_dbhz=cn0)
                for i, (msg, bfo, ber, cn0) in enumerate(shape)
            )
            sequences.append(LogonSequence(str(k), ms[0].timestamp, ms, mode))
        first, second = rewritten(tmp_path, "logon", lambda p: write_logon_csv(p, sequences, prov))
        assert first == second


LOADERS = {
    "log": (load_log_csv, LOG_SCHEMA),
    "ephemeris": (load_ephemeris_csv, EPHEMERIS_SCHEMA),
    "correction": (load_correction_csv, CORRECTION_SCHEMA),
    "logon": (load_logon_csv, LOGON_SCHEMA),
    "error samples": (load_error_samples_csv, ERROR_SCHEMA),
}

cell = st.one_of(
    one_line,
    st.sampled_from(["", "nan", "inf", "-1", "0", "1e999", "R", "data", "closed_loop", '"', "2014-03-07T16:00:00Z"]),
    finite.map(repr),
)


@st.composite
def table_text(draw, schema):
    """Any text at all, or a CSV table of ``schema`` (columns shuffled, maybe
    one of them wrong) whose rows hold random cells."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200))
    columns = draw(st.permutations(list(schema)))
    if draw(st.booleans()):
        columns[draw(st.integers(0, len(columns) - 1))] = draw(one_line)
    rows = draw(st.lists(st.lists(cell, min_size=len(columns) - 1, max_size=len(columns) + 1), max_size=5))
    return "\n".join([",".join(columns)] + [",".join(r) for r in rows])


class TestArbitraryText:
    @pytest.mark.parametrize("kind", LOADERS)
    @SETTINGS
    @given(data=st.data())
    def test_loaders_raise_only_parse_or_domain_errors(self, tmp_path, kind, data):
        load, schema = LOADERS[kind]
        p = tmp_path / "input.csv"
        p.write_text(data.draw(table_text(schema)), encoding="utf-8")
        try:
            load(p)
        except (ParseError, DomainError):
            pass


class TestPermutedHeader:
    @pytest.mark.parametrize(
        "name",
        [
            "mh370_bfo_log.csv",
            "ior_ephemeris_synthetic.csv",
            "ior_corrections_synthetic.csv",
            "logon_sequences.csv",
        ],
    )
    @SETTINGS
    @given(data=st.data())
    def test_permuted_columns_load_an_identical_table(self, tmp_path, name, data):
        src = fixture_path(name)
        width = len(next(line for line in src.read_text().splitlines() if not line.startswith("#")).split(","))
        order = data.draw(st.permutations(range(width)))
        shuffled = tmp_path / ("shuffled_" + name)
        shuffled.write_text(permuted(src.read_text(), order))
        out = tmp_path / name
        rewrite(name, shuffled, out)
        assert out.read_bytes() == src.read_bytes()


def test_make_fixtures_regenerates_every_bundled_fixture(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", REPO / "tools" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = tmp_path
    module.main()
    bundled = fixture_path("mh370_analysis.json").parent
    names = sorted(p.name for p in bundled.iterdir() if p.suffix in (".csv", ".json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
