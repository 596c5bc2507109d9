"""What ``import bfokit.cli`` loads, checked in a fresh interpreter.

Every subcommand runs in a new process and pays for each module that the
import loads and each class that it creates. Two things are pinned here:
``statistics`` (and ``fractions`` and ``decimal``, which it loads) stays
off the import, and so does ``dataclasses``, as no value type is a
dataclass. Every value type is a tuple type, copied with ``_replace``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bfokit

CHILD = """
import json, sys
import bfokit.cli
dataclasses = sorted(
    f"{module}.{name}"
    for module, mod in list(sys.modules.items()) if module == "bfokit" or module.startswith("bfokit.")
    for name, obj in vars(mod).items()
    if isinstance(obj, type) and obj.__module__ == module and hasattr(obj, "__dataclass_fields__")
)
print(json.dumps({"modules": sorted(sys.modules), "dataclasses": dataclasses}))
"""


@pytest.fixture(scope="module")
def cold_import():
    env = {**os.environ, "PYTHONPATH": str(Path(bfokit.__file__).parent.parent)}
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def test_statistics_stays_off_the_import(cold_import):
    assert "bfokit.cli" in cold_import["modules"]
    assert {"statistics", "fractions", "decimal"}.isdisjoint(cold_import["modules"])


def test_no_value_type_is_a_dataclass(cold_import):
    assert "bfokit.geodesy" in cold_import["modules"]
    assert cold_import["dataclasses"] == []


def test_dataclasses_stays_off_the_import(cold_import):
    assert "dataclasses" not in cold_import["modules"]
