"""Every top-level function in src/mldeg has a caller there, or a reason.

A function counts as called when a reference outside its own body
resolves to it, or when checks._task registers it as a suite task.  A
reference resolves by where the name comes from: a bare name in the
function's own module, a name bound by ``from .module import name``,
or ``module.name`` on a module bound by ``from . import module``.  An
attribute of anything else, such as ``args.complement``, is no call.
The rest must be listed in KEPT with the reason they stay, and only
they: an entry whose function has gained a caller is stale.
"""

import ast
import pathlib

from mldeg import checks

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mldeg"

KEPT = {
    "delta_sym": "README Library example",
    "delta_sym_items": "perfbench/make_reference.py builds its second phi route on it",
    "delta_poly": "ROADMAP item 2: exact assembly of the polynomials in n",
    "a_ij_poly": "ROADMAP item 2: exact assembly of the polynomials in n",
    "sij_row_oracle": "ROADMAP item 4: the oracle-deep suite",
    "index_of": "tests round-trip lambda_of through it",
    "complement": "perfbench/make_reference.py imports it (tests/test_reference_imports.py)",
}


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
    """Top-level functions of the package with no caller and no entry in
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
        if not _is_task(fn) and fn.name not in kept
        and not any(label in labels for node, labels in referenced_by if node is not fn))


def test_every_function_has_a_caller():
    assert uncalled() == []


def test_kept_functions_exist():
    names = {node.name for path in SRC.glob("*.py")
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)}
    assert set(KEPT) <= names


def test_every_kept_function_needs_its_entry():
    assert {label.split(".")[1] for label in uncalled(kept={})} == set(KEPT)


def test_every_task_kind_is_built():
    # The _task exemption above holds only if every registered kind is
    # run by some suite, and every kind a suite builds is registered.
    assert {task[0] for task in checks.build_suite("all")} == set(checks._TASK_KINDS)


def test_an_uncalled_function_is_caught(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    extra = tmp_path / "poly_n.py"
    extra.write_text(extra.read_text() + "\n\ndef orphan():\n    return orphan()\n"
                     "\n\ndef stray():\n    return 0\n")
    # An attribute of another object that shares the name is no call.
    cli = tmp_path / "cli.py"
    cli.write_text(cli.read_text() + "\n\nSTRAY = argparse.Namespace(stray=0).stray\n")
    assert uncalled(tmp_path) == ["poly_n.orphan", "poly_n.stray"]
