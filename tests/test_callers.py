"""Every top-level function in src/mldeg has a caller there, or a reason.

A function counts as called when a Name or Attribute outside its own
body refers to it, or when checks._task registers it as a suite task.
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
}


def _referenced(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _is_task(fn):
    return any(isinstance(d, ast.Name) and d.id == "_task" for d in fn.decorator_list)


def uncalled(src=SRC, kept=KEPT):
    """Top-level functions of the package with no caller and no entry in
    kept, by "module.name"."""
    defs = []
    referenced_by = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node))
            referenced_by.append((node, _referenced(node)))
    return sorted(
        label for label, fn in defs
        if not _is_task(fn) and fn.name not in kept
        and not any(fn.name in names for node, names in referenced_by if node is not fn))


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
    extra.write_text(extra.read_text() + "\n\ndef orphan():\n    return orphan()\n")
    assert uncalled(tmp_path) == ["poly_n.orphan"]
