"""Each rule has one owner: a bfokit module imports no ``_private`` name of another bfokit module, apart
from the few below, each with its reason."""

import ast
from pathlib import Path

import bfokit

PACKAGE = Path(bfokit.__file__).parent

ALLOWED = {
    # the forward-model kernel runs on geodesy's frame primitives, for one point or an array of them
    ("bfo_model", "geodesy", "_frame"): "the trigonometry and radius of curvature at a point",
    ("bfo_model", "geodesy", "_ecef_position"): "a point's ECEF position from its frame",
    ("bfo_model", "geodesy", "_enu_axes"): "the local east, north and up axes from a frame",
    ("bfo_model", "geodesy", "_east_north"): "a ground velocity's east and north components",
    # the CLI writes its own tables with the table writer's cell format and block writer
    ("cli", "ingest", "_fmt"): "a number cell as every table writes it",
    ("cli", "ingest", "_write_csv"): "the one block writer of finished lines",
    # the config and the log-on sidecar read a JSON number by one rule
    ("config", "ingest", "_finite_number"): "a finite JSON number, no bool",
}


def private_imports():
    """``(importer, source, name)`` for each private name a bfokit module imports from another."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and not module.startswith("bfokit."):
                continue
            source = module.rpartition(".")[2]
            found |= {(path.stem, source, a.name) for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__") and source != path.stem}
    return found


def test_no_module_imports_another_modules_private_name():
    assert private_imports() - set(ALLOWED) == set()


def test_every_allowed_import_is_still_made():
    assert set(ALLOWED) - private_imports() == set()
