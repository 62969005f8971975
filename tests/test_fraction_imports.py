"""Only poly_n imports fractions in src/mldeg, for its leading
coefficients and printed monomials; every other module runs on ints,
the Q values included, in the unit 2^(sum(I) + #I) of qschur."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mldeg"


def _imports_fractions(tree):
    return any(isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "fractions"
               for node in ast.walk(tree))


def fraction_importers(src=SRC):
    """The stems of the modules of the package that import fractions."""
    return sorted(path.stem for path in src.glob("*.py")
                  if _imports_fractions(ast.parse(path.read_text(), str(path))))


def test_only_poly_n_imports_fractions():
    assert fraction_importers() == ["poly_n"]
