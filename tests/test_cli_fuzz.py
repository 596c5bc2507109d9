"""The command line on damaged inputs: every run ends in exit 0, 2 or 3
with no traceback, whatever the config's leaves or the input files hold,
and a JSON result never holds NaN or an infinity.

Each example copies the bundled config, sets a few of its leaves to a
non-finite, huge, subnormal or wrongly typed value (or drops them), or
damages a few cells or lines of the burst log or the log-on CSV, and runs
one subcommand in-process through ``cli.main``.
"""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bfokit.cli import main
from bfokit.fixtures import bundled_config_path

FIXTURES = bundled_config_path().parent
FILE_KEYS = ("log_csv", "ephemeris_csv", "correction_csv", "logon_sequence_csv", "logon_meta_json")


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


BUNDLED = json.loads(bundled_config_path().read_text())
LEAVES = sorted(_leaves(BUNDLED), key=str)
ABSENT = object()
VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, True, False, None, "x", ABSENT]

COMMANDS = [
    ["predict-bfo", "--time", "00:11Z", "--lat", "-38.67", "--lon", "85.11",
     "--alt", "10668", "--speed-kts", "450", "--track-deg", "185"],
    ["track-sweep"],
    ["trend", "--extrapolate", "00:19:29Z"],
    ["logon-drift"],
    ["descent-bounds", "--out-dir", "{dir}"],
    ["descent-bounds", "--exact-sensitivity"],
    ["calibrate-bias", "--tarmac-window", "15:55Z..16:15Z"],
]


def _damaged(edits) -> dict:
    """The bundled config, with absolute file paths, after ``edits``."""
    raw = json.loads(json.dumps(BUNDLED))
    for key in FILE_KEYS:
        raw[key] = str(FIXTURES / raw[key])
    # from the back, so a dropped list item moves no later edit
    for path, value in sorted(edits, key=lambda e: e[0], reverse=True):
        node = raw
        for key in path[:-1]:
            node = node[key]
        if value is ABSENT:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return raw


def _run(raw, argv, files=None):
    """Run ``argv`` on config ``raw``; ``files`` maps a config key to the
    bytes of a file to write in its place. Returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as d:
        for key, data in (files or {}).items():
            raw[key] = os.path.join(d, os.path.basename(raw[key]))
            with open(raw[key], "wb") as f:
                f.write(data)
        config = os.path.join(d, "config.json")
        with open(config, "w") as f:
            json.dump(raw, f)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([arg.replace("{dir}", d) for arg in argv] + ["--config", config])
        return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} in the JSON result")


def _check(code, out, err, fmt):
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0 and fmt == "json":
        json.loads(out, parse_constant=_refuse_constant)


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(st.tuples(st.sampled_from(LEAVES), st.sampled_from(VALUES)), min_size=1, max_size=3,
                   unique_by=lambda e: e[0]),
    argv=st.sampled_from(COMMANDS),
    fmt=st.sampled_from(["text", "json", "pretty"]),
)
@example(edits=[(("sensitivity_hz_per_100fpm",), 5e-324)], argv=["descent-bounds"], fmt="text")
@example(edits=[(("expected_bfo", "south_hz"), 1e308)], argv=["descent-bounds", "--out-dir", "{dir}"], fmt="json")
@example(
    edits=[(("noise_bounds", "lower_hz"), -1e308), (("noise_bounds", "upper_hz"), 1e308)],
    argv=["descent-bounds"], fmt="pretty",
)
@example(
    edits=[(("expected_bfo", "south_hz"), 1.8e306), (("expected_bfo", "north_hz"), 1.8e306)],
    argv=["descent-bounds"], fmt="json",
)
def test_damaged_config_exits_cleanly(edits, argv, fmt):
    _check(*_run(_damaged(edits), [*argv, "--format", fmt]), fmt)


# --- damaged input files ------------------------------------------------------

FILES = {"log_csv": BUNDLED["log_csv"], "logon_sequence_csv": BUNDLED["logon_sequence_csv"]}
LINES = {key: (FIXTURES / name).read_bytes().splitlines() for key, name in FILES.items()}
CELLS = [b"1.5e308", b"-1.5e308", b"5e-324", b"nan", b"", b"x"]


@st.composite
def _file_edit(draw):
    """(config key, line index, edit): a cell set to one of :data:`CELLS`,
    the line dropped or repeated, or one byte of it replaced."""
    key = draw(st.sampled_from(sorted(FILES)))
    line = draw(st.integers(0, len(LINES[key]) - 1))
    edit = draw(st.one_of(
        st.tuples(st.just("cell"), st.integers(0, 7), st.sampled_from(CELLS)),
        st.tuples(st.sampled_from(["drop", "repeat"])),
        st.tuples(st.just("byte"), st.integers(0, 200), st.integers(0, 255)),
    ))
    return key, line, edit


def _damaged_files(edits) -> dict:
    """The bytes of each input file after ``edits``, applied from the back
    so a dropped or repeated line moves no later edit."""
    lines = {key: list(value) for key, value in LINES.items()}
    for key, i, edit in sorted(edits, key=lambda e: e[:2], reverse=True):
        line = lines[key][i]
        if edit[0] == "cell":
            cells = line.split(b",")
            cells[edit[1] % len(cells)] = edit[2]
            lines[key][i] = b",".join(cells)
        elif edit[0] == "drop":
            del lines[key][i]
        elif edit[0] == "repeat":
            lines[key].insert(i, line)
        elif line:
            at = edit[1] % len(line)
            lines[key][i] = line[:at] + bytes([edit[2]]) + line[at + 1:]
    return {key: b"\n".join(value) + b"\n" for key, value in lines.items()}


def _bfos(key, values):
    """Edits that set the BFO cell (the fourth) of line i to each values[i]."""
    return [(key, i, ("cell", 3, value)) for i, value in values.items()]


TARMAC = ["calibrate-bias", "--tarmac-window", "15:55Z..16:15Z"]


@settings(max_examples=100, deadline=None)
@given(
    edits=st.lists(_file_edit(), min_size=1, max_size=2, unique_by=lambda e: e[:2]),
    argv=st.sampled_from(COMMANDS[1:]),  # predict-bfo reads neither file
)
@example(edits=_bfos("log_csv", {9: b"1.5e308"}), argv=["trend"])  # squared residual overflows
@example(edits=_bfos("log_csv", {7: b"1.5e308", 8: b"1.5e308"}), argv=["trend"])
@example(edits=_bfos("log_csv", {2: b"1.5e308", 3: b"1.5e308"}), argv=TARMAC)
@example(edits=_bfos("logon_sequence_csv", {2: b"1.5e308", 3: b"-1.5e308"}), argv=["logon-drift"])
def test_damaged_input_files_exit_cleanly(edits, argv):
    _check(*_run(_damaged([]), [*argv, "--format", "json"], _damaged_files(edits)), "json")


# Window times: shorthands and full forms inside and either side of the bundled log, and junk.
WINDOW_TIMES = ["00:11Z", "00:11:00Z", "19:41Z", "16:00Z", "11:59Z", "12:00Z", "2014-03-07T19:41:00Z",
                "2014-03-08T00:11:00.5Z", " 19:41Z ", "19:41", "24:00Z", ""]


@settings(max_examples=40, deadline=None)
@given(
    start=st.sampled_from(WINDOW_TIMES) | st.text("0123456789:TZ-", max_size=12),
    end=st.sampled_from(WINDOW_TIMES) | st.text("0123456789:TZ-", max_size=12),
    equal=st.booleans(),
)
@example(start="00:11Z", end="00:11Z", equal=False)
@example(start="00:11Z", end="19:41Z", equal=False)
@example(start="19:41Z", end="00:11Z", equal=False)
@example(start="19:41", end="00:11Z", equal=False)
def test_window_flag_and_config_key_share_one_rule(start, end, equal):
    """``trend --window S..E`` and a config whose fit_window is ``[S, E]`` give the same result, exit code
    and error text, but for the name of the flag or the key."""
    end = start if equal else end
    assume(end and f"{start}..{end}".partition("..") == (start, "..", end))
    code, out, err = _run(_damaged([]), ["trend", f"--window={start}..{end}"])
    by_key = _run(_damaged([(("fit_window",), [start, end])]), ["trend"])
    assert (code, out, err.replace("--window", "fit_window")) == by_key
