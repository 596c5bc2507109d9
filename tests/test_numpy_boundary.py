"""Which bfokit modules load numpy when they are imported.

Only the batch forward-model kernel and the track sweep work on arrays;
every other module works on floats. Keeping the module-level numpy
imports to those two is what lets numpy move off the cold paths later by
changing two imports.
"""

import ast
from pathlib import Path

import bfokit

ARRAY_MODULES = {"bfo_model.py", "track_sweep.py"}


def imports_numpy_on_load(node) -> bool:
    """Whether ``node`` imports numpy when its module is imported: function
    bodies run later, so they are skipped; class bodies and blocks are not."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False
    return any(imports_numpy_on_load(child) for child in ast.iter_child_nodes(node))


def test_only_the_array_modules_import_numpy_at_module_level():
    sources = sorted(Path(bfokit.__file__).parent.glob("*.py"))
    assert len(sources) > len(ARRAY_MODULES)
    loading = {p.name for p in sources if imports_numpy_on_load(ast.parse(p.read_text(encoding="utf-8")))}
    assert loading == ARRAY_MODULES


def test_the_check_sees_every_import_form():
    loaded = ["import numpy as np", "from numpy import linalg", "import numpy.linalg",
              "try:\n    import numpy\nexcept ImportError:\n    pass", "class A:\n    import numpy"]
    deferred = ["def f():\n    import numpy", "from .numpy import x", "import numpyish"]
    assert all(imports_numpy_on_load(ast.parse(src)) for src in loaded)
    assert not any(imports_numpy_on_load(ast.parse(src)) for src in deferred)
