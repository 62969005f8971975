"""The benchmark's reference builder imports names from mldeg.  A
rename there must fail a test, not only the next rebuild of the
reference, so the script's imports are resolved here without running
it."""

import ast
import importlib
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "make_reference.py"


def _resolves(module_name, name):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:  # a submodule, as in `from mldeg import checks`
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def benchmark_imports():
    """The (module, name) pairs the script imports from mldeg."""
    tree = ast.parse(SCRIPT.read_text(), filename=str(SCRIPT))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "mldeg"
            for alias in node.names]


def test_make_reference_imports_resolve():
    names = benchmark_imports()
    assert len(names) > 10
    missing = [f"{module}.{name}" for module, name in names if not _resolves(module, name)]
    assert not missing
