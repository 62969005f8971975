"""Every top-level function in src/mldeg has a caller there, or the
benchmark imports it.

A function counts as called when a reference outside its own body
resolves to it, or when checks._task registers it as a suite task.  A
reference resolves by where the name comes from: a bare name in the
function's own module, a name bound by ``from .module import name``,
or ``module.name`` on a module bound by ``from . import module``.  An
attribute of anything else, such as ``args.complement``, is no call.
The only other functions allowed are those perfbench/make_reference.py
imports from mldeg, matched by module and name; tests call their own
references, in tests/references.py, and give nothing in src a caller.
"""

import ast
import pathlib

from mldeg import checks
from test_reference_imports import SCRIPT

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mldeg"


def _benchmark_imports():
    """The "module.name" labels perfbench/make_reference.py imports from
    mldeg, as test_reference_imports finds them ("checks" for a module)."""
    tree = ast.parse(SCRIPT.read_text(), filename=str(SCRIPT))
    return {f"{node.module}.{alias.name}".removeprefix("mldeg.")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "mldeg"
            for alias in node.names}


KEPT = _benchmark_imports()


def _imports(tree):
    """Names bound by the package's relative imports in a module:
    {local: "module.name"} for functions, {local: "module"} for modules."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    names[local] = f"{node.module}.{alias.name}"
                else:
                    modules[local] = alias.name
    return names, modules


def _referenced(node, stem, names, modules):
    """The "module.name" labels the references in node resolve to."""
    labels = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            labels.add(names.get(n.id, f"{stem}.{n.id}"))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in modules:
            labels.add(f"{modules[n.value.id]}.{n.attr}")
    return labels


def _is_task(fn):
    return any(isinstance(d, ast.Name) and d.id == "_task" for d in fn.decorator_list)


def uncalled(src=SRC, kept=KEPT):
    """Top-level functions of the package with no caller and no label in
    kept, by "module.name"."""
    defs = []
    referenced_by = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names, modules = _imports(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node))
            referenced_by.append((node, _referenced(node, path.stem, names, modules)))
    return sorted(
        label for label, fn in defs
        if not _is_task(fn) and label not in kept
        and not any(label in labels for node, labels in referenced_by if node is not fn))


def test_every_function_has_a_caller():
    assert uncalled() == []


def test_kept_functions_exist():
    # Every exemption names a module or a top-level function, in the
    # labels uncalled() compares against.
    labels = {path.stem for path in SRC.glob("*.py")}
    labels |= {f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert "degrees.delta_sym_items" in KEPT
    assert KEPT <= labels


def test_every_kept_function_needs_its_entry():
    # The functions only the benchmark calls; a test reference moved
    # into src would show up here.
    assert uncalled(kept=set()) == ["degrees.delta_sym_items", "indexsets.complement"]


def test_every_task_kind_is_built():
    # The _task exemption above holds only if every registered kind is
    # run by some suite, and every kind a suite builds is registered.
    assert {task[0] for task in checks.build_suite("all")} == set(checks._TASK_KINDS)


def test_an_uncalled_function_is_caught(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    extra = tmp_path / "poly_n.py"
    # complement is exempt in indexsets, where the benchmark imports it
    # from, and nowhere else.
    extra.write_text(extra.read_text() + "\n\ndef orphan():\n    return orphan()\n"
                     "\n\ndef stray():\n    return 0\n"
                     "\n\ndef complement():\n    return 0\n")
    # An attribute of another object that shares the name is no call.
    cli = tmp_path / "cli.py"
    cli.write_text(cli.read_text() + "\n\nSTRAY = argparse.Namespace(stray=0).stray\n")
    assert uncalled(tmp_path) == ["poly_n.complement", "poly_n.orphan", "poly_n.stray"]
