"""What ``import bfokit.cli`` loads, checked in a fresh interpreter.

Every subcommand runs in a new process and pays for each module that the
import loads and each class that it creates. Two things are pinned here:
``statistics`` (and ``fractions`` and ``decimal``, which it loads) stays
off the import, and only six value types are dataclasses. Those six are
copied with ``dataclasses.replace``, hold ``cached_property`` values or are
read on every burst; the types built once per run are ``NamedTuple`` types,
which are much cheaper to create.
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
    if isinstance(obj, type) and obj.__module__ == module and "__dataclass_fields__" in vars(obj)
)
print(json.dumps({"modules": sorted(sys.modules), "dataclasses": dataclasses}))
"""

DATACLASSES = [
    "bfokit.bfo_model.AircraftState",
    "bfokit.bfo_model.ChannelConfig",
    "bfokit.geodesy.GeodeticPosition",
    "bfokit.geodesy.GroundKinematics",
    "bfokit.satellite.NominalSlot",
    "bfokit.stats.NoiseBounds",
]


@pytest.fixture(scope="module")
def cold_import():
    env = {**os.environ, "PYTHONPATH": str(Path(bfokit.__file__).parent.parent)}
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def test_statistics_stays_off_the_import(cold_import):
    assert "bfokit.cli" in cold_import["modules"]
    assert {"statistics", "fractions", "decimal"}.isdisjoint(cold_import["modules"])


def test_only_six_value_types_are_dataclasses(cold_import):
    assert cold_import["dataclasses"] == DATACLASSES
