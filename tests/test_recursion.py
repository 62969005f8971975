"""No function in src/mldeg calls itself but the three whose depth is
bounded.

A function or closure counts as recursive when its body calls its own
name, or a module-level name bound to a call that takes it, such as
``cached = functools.cache(body)``.  Every other enumerator walks
its sets with loops, so a set of any size costs no stack.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mldeg"

BOUNDED = [
    # One frame per element, at most exact._EXPANSION_MAX (20); larger
    # sets eliminate the matrix.
    "exact.expand",
    # About three frames per element; checks.route_refusal refuses a set
    # of more than a quarter of the recursion limit in elements.
    "lascoux._alpha_recursion",
    "lascoux._lift_recursion",
]


def recursive(src=SRC):
    """Sorted "module.name" of every function or closure whose body
    calls itself by name or through a module-level name built on it."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        built_on = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                args = {a.id for a in node.value.args if isinstance(a, ast.Name)}
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        built_on[target.id] = args
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls = {n.func.id for n in ast.walk(fn)
                     if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            if any(name == fn.name or fn.name in built_on.get(name, ()) for name in calls):
                found.append(f"{path.stem}.{fn.name}")
    return sorted(found)


def test_only_bounded_functions_recurse():
    assert recursive() == sorted(BOUNDED)


def test_a_recursive_closure_is_caught(tmp_path):
    (tmp_path / "m.py").write_text(
        "import functools\n"
        "def walk(n):\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    return rec(n)\n"
        "def body(n):\n"
        "    return cached(n - 1) if n else 0\n"
        "cached = functools.cache(body)\n"
        "def flat(n):\n"
        "    return walk(n) + cached(n)\n")
    assert recursive(tmp_path) == ["m.body", "m.rec"]
