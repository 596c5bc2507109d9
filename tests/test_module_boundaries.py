"""Each rule and each name has one owner. A bfokit module imports no ``_private`` name of another bfokit
module, apart from the few below, each with its reason. Every import of a bfokit name, in the package, its
tests and its tools, names the module that defines it, and the package's ``__init__`` re-exports nothing."""

import ast
from pathlib import Path

import bfokit

PACKAGE = Path(bfokit.__file__).parent
TESTS = Path(__file__).resolve().parent
TOOLS = TESTS.parent / "tools"

ALLOWED = {
    # the forward-model kernel runs on geodesy's frame primitives, for one point or an array of them
    ("bfo_model", "geodesy", "_frame"): "the trigonometry and radius of curvature at a point",
    ("bfo_model", "geodesy", "_ecef_position"): "a point's ECEF position from its frame",
    ("bfo_model", "geodesy", "_enu_axes"): "the local east, north and up axes from a frame",
    ("bfo_model", "geodesy", "_east_north"): "a ground velocity's east and north components",
    # the CLI writes its own tables and its JSON file with the table writer's cell format and file writers
    ("cli", "ingest", "_fmt"): "a number cell as every table writes it",
    ("cli", "ingest", "_write_table"): "the one table writer",
    ("cli", "ingest", "_write_whole"): "a file whole or absent, as every writer writes it",
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


def top_level_names(path):
    """The names that the module at ``path`` defines at top level: each ``def``, ``class`` and assigned name."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def imports_from_a_second_home():
    """``(file, source, name)`` for each name imported from a bfokit module that does not define it: by a
    relative import in the package, or by a ``bfokit.source`` import in a test or a tool. ``from bfokit
    import name`` must name a module."""
    defined = {path.stem: top_level_names(path) for path in PACKAGE.glob("*.py")}
    defined[""] = set(defined) | defined["__init__"]  # bfokit itself: its modules and __version__
    found = set()
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *TOOLS.glob("*.py")]):
        in_package = path.parent == PACKAGE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if in_package and node.level:
                source = module
            elif not node.level and module.partition(".")[0] == "bfokit":
                source = module.partition(".")[2]
            else:
                continue
            found |= {(path.name, source, a.name) for a in node.names if a.name not in defined.get(source, ())}
    return found


def test_every_import_names_the_module_that_defines_the_name():
    assert imports_from_a_second_home() == set()


def test_the_package_init_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []
