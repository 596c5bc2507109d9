"""The command line on damaged configs: every run ends in exit 0, 2 or 3
with no traceback, whatever the config's leaves hold.

Each example copies the bundled config, sets a few of its leaves to a
non-finite, huge, subnormal or wrongly typed value (or drops them), and
runs one subcommand in-process through ``cli.main``.
"""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
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


def _run(raw, argv):
    with tempfile.TemporaryDirectory() as d:
        config = os.path.join(d, "config.json")
        with open(config, "w") as f:
            json.dump(raw, f)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([arg.replace("{dir}", d) for arg in argv] + ["--config", config])
        return code, err.getvalue()


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
def test_damaged_config_exits_cleanly(edits, argv, fmt):
    code, err = _run(_damaged(edits), [*argv, "--format", fmt])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
