import ast
import itertools
import random
from collections import defaultdict
from pathlib import Path

import pytest

from mldeg.exact import ConsistencyError
from mldeg.indexsets import enumerate_indexsets
from mldeg.lascoux import alpha, d_a, psi
from mldeg.schur_oracle import (
    alpha_oracle,
    alternant_terms,
    check_symmetric,
    cross_coefficient,
    d_oracle,
    psi_oracle,
)
from references import index_of, lambda_of, schur_full, sij_row_oracle

ORACLE = Path(__file__).resolve().parents[1] / "src" / "mldeg" / "schur_oracle.py"


def unit_form(i, nvars):
    """Coefficient vector of the variable x_i."""
    return tuple(1 if k == i else 0 for k in range(nvars))


def _add_form(target, poly, form):
    """target += poly * (linear form), monomial dicts; a form is the
    coefficient vector of any linear form, not only a pair of variables."""
    for mono, c in poly.items():
        for var, fc in enumerate(form):
            if fc:
                key = mono[:var] + (mono[var] + 1,) + mono[var + 1:]
                target[key] += c * fc


def hom_full(forms, degree, nvars):
    """Monomial dicts of h_0, ..., h_degree at the given linear forms.

    Multiplying in one geometric series per form: after each form f the
    running list equals the previous one times 1/(1 - f), truncated.
    """
    series = [defaultdict(int) for _ in range(degree + 1)]
    series[0][(0,) * nvars] = 1
    for form in forms:
        for a in range(1, degree + 1):
            _add_form(series[a], series[a - 1], form)
    return [dict((k, v) for k, v in level.items() if v) for level in series]


def _schur_coefficients(poly, nvars, degree):
    """Bialternant extraction of every Schur coefficient of one degree."""
    out = {}
    for I in enumerate_indexsets(nvars, degree + nvars * (nvars - 1) // 2):
        c = sum(sign * poly.get(e, 0) for sign, e in alternant_terms(I))
        if c:
            out[lambda_of(I)] = c
    return out


def test_schur_full_basics():
    assert schur_full((1,), 2) == {(1, 0): 1, (0, 1): 1}
    assert schur_full((), 3) == {(0, 0, 0): 1}
    assert schur_full((1, 1, 1), 2) == {}
    # s_(2,1) in 3 variables: monomial content with K_(21),(111) = 2
    full = schur_full((2, 1), 3)
    assert full[(2, 1, 0)] == 1
    assert full[(1, 1, 1)] == 2


def test_hom_full_worked_example():
    # forms 2a, a+b, 2b; quadratic piece is 7a^2 + 10ab + 7b^2
    forms = [(2, 0), (1, 1), (0, 2)]
    levels = hom_full(forms, 2, 2)
    assert levels[0] == {(0, 0): 1}
    assert levels[1] == {(1, 0): 3, (0, 1): 3}
    assert levels[2] == {(2, 0): 7, (1, 1): 10, (0, 2): 7}
    assert _schur_coefficients(levels[2], 2, 2) == {(2, 0): 7, (1, 1): 3}


def test_check_symmetric_rejects_asymmetric():
    with pytest.raises(ConsistencyError):
        check_symmetric({(1, 0): 1})
    with pytest.raises(ConsistencyError):
        check_symmetric({(2, 0): 1, (0, 2): 2, (1, 1): 1})
    check_symmetric({(2, 0): 7, (1, 1): 10, (0, 2): 7})
    # x^2 y + x y^2 + y^2 z + y z^2 + x^2 z misses x z^2 from its orbit
    partial = {(2, 1, 0): 1, (1, 2, 0): 1, (0, 2, 1): 1, (0, 1, 2): 1, (2, 0, 1): 1}
    with pytest.raises(ConsistencyError):
        check_symmetric(partial)
    check_symmetric({**partial, (1, 0, 2): 1})


def test_schur_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 4)
        parts = sorted((rng.randint(0, 4) for _ in range(r)), reverse=True)
        while sum(parts) > 8:
            parts[0] -= 1
            parts.sort(reverse=True)
        lam = tuple(parts)
        full = schur_full(lam, r)
        assert _schur_coefficients(full, r, sum(lam)) == {lam: 1}


def test_alternant_terms_prune_to_contributing_permutations():
    # the staircase itself admits only the identity
    assert alternant_terms((0, 1, 2, 3)) == [(1, (0, 0, 0, 0))]
    assert alternant_terms((0, 2)) == [(1, (0, 1))]
    assert sorted(alternant_terms((1, 2))) == [(-1, (0, 2)), (1, (1, 1))]
    big = alternant_terms((5, 6, 7, 8))
    assert len(big) == 24 and sum(sign for sign, _ in big) == 0
    # 1100 places, past the recursion limit, fill from a list.
    assert alternant_terms(tuple(range(1100))) == [(1, (0,) * 1100)]


def test_alternant_terms_match_brute_force():
    # every permutation w of delta, signed by its inversions, kept where
    # I - w(delta) stays nonnegative in every place, in the lexicographic
    # order of w
    for r in range(7):
        for I in itertools.combinations(range(10), r):
            brute = []
            for w in itertools.permutations(range(r)):
                inversions = sum(a > b for a, b in itertools.combinations(w, 2))
                exps = tuple(i - v for i, v in zip(I, w))
                if min(exps, default=0) >= 0:
                    brute.append(((-1) ** inversions, exps))
            assert alternant_terms(I) == brute, I


def test_psi_oracle_values():
    assert psi_oracle(()) == 1
    assert psi_oracle((0,)) == 1
    assert psi_oracle((2,)) == 4
    assert psi_oracle((4,)) == 16
    assert psi_oracle((5,)) == 32
    assert psi_oracle((0, 1)) == 1
    assert psi_oracle((0, 2)) == 3
    assert psi_oracle((0, 3)) == 7
    assert psi_oracle((1, 2)) == 3
    assert psi_oracle((1, 3)) == 10
    assert psi_oracle((2, 3)) == 10
    assert psi_oracle((0, 1, 2)) == 1
    assert psi_oracle((0, 1, 3)) == 4
    assert psi_oracle((0, 2, 3)) == 6


def test_alpha_oracle_values():
    assert alpha_oracle(()) == 1
    assert alpha_oracle((0,)) == 1
    assert alpha_oracle((1,)) == 0
    assert alpha_oracle((0, 1)) == 1
    assert alpha_oracle((0, 2)) == 1
    assert alpha_oracle((1, 2)) == 1
    assert alpha_oracle((1, 3)) == 2
    assert alpha_oracle((2, 3)) == 2
    assert alpha_oracle((0, 2, 3)) == 2
    assert alpha_oracle((0, 1, 2, 3)) == 1
    assert alpha_oracle((1, 2, 3, 4)) == 1


def test_d_oracle_values():
    assert d_oracle((), ()) == 1
    assert d_oracle((0,), (0,)) == 1
    assert d_oracle((1,), (1,)) == 2
    assert d_oracle((1,), (2,)) == 3
    assert d_oracle((0, 2), (1, 2)) == 3
    assert d_oracle((0, 2), (1, 3)) == 7
    assert d_oracle((1, 2), (1, 2)) == 3
    assert d_oracle((0,), (0, 2)) == 1
    assert d_oracle((1,), (0, 1)) == 2
    assert d_oracle((1,), (1, 2)) == 0
    assert d_oracle((1,), (0, 2)) == 3
    assert d_oracle((0,), (0, 1)) == 1


def test_d_oracle_symmetry():
    pairs = [((0, 2), (1, 3)), ((1,), (0, 2)), ((1, 2), (0, 3)), ((0, 1, 3), (0, 2, 3))]
    for I, J in pairs:
        assert d_oracle(I, J) == d_oracle(J, I)


def test_sij_row_oracle():
    row = sij_row_oracle((1, 3))
    assert row[(0, 1)] == 2
    assert row[(1, 3)] == 1
    row2 = sij_row_oracle((2,))
    assert row2 == {(0,): 1, (1,): 2, (2,): 1}
    assert sij_row_oracle(()) == {(): 1}


def test_sij_one_row_identity():
    # shifting arguments of a one-row Schur polynomial gives binomials
    from mldeg.exact import binom

    for r in (2, 3):
        for d in range(5):
            I = index_of((d,) + (0,) * (r - 1))
            row = sij_row_oracle(I)
            for i in range(d + 1):
                J = index_of((i,) + (0,) * (r - 1))
                assert row.get(J, 0) == binom(d + r - 1, d - i)


def test_psi_oracle_padding_consistency():
    # the same partition with more declared parts is a different set
    assert lambda_of((0, 3)) == (2, 0)
    assert lambda_of((0, 1, 4)) == (2, 0, 0)
    assert psi_oracle((0, 1, 4)) != 0


def test_schur_full_kostka_against_brute_force():
    # brute-force SSYT count for a couple of shapes
    def brute_count(shape, content):
        cols = []
        rows = len(shape)

        def fill(cells, row, col, prev_rows):
            if row == rows:
                counts = [0] * len(content)
                for r_ in cells:
                    for v in r_:
                        counts[v] += 1
                return 1 if counts == list(content) else 0
            if col == shape[row]:
                return fill(cells, row + 1, 0, prev_rows)
            total = 0
            for v in range(len(content)):
                if col > 0 and v < cells[row][col - 1]:
                    continue
                if row > 0 and v <= cells[row - 1][col]:
                    continue
                cells[row].append(v)
                total += fill(cells, row, col + 1, prev_rows)
                cells[row].pop()
            return total

        return fill([[] for _ in range(rows)], 0, 0, None)

    for shape in [(2, 1), (3, 1), (2, 2)]:
        full = schur_full(shape, 3)
        for content in itertools.product(range(4), repeat=3):
            if sum(content) != sum(shape):
                continue
            assert full.get(content, 0) == brute_count(shape, content)


def test_d_oracle_matches_d_a_equal_sizes():
    pairs = [(I, J)
             for r in (1, 2, 3)
             for I in itertools.combinations(range(8), r)
             for J in itertools.combinations(range(8), r)]
    pairs += [(I, J)
              for I in itertools.combinations(range(6), 4)
              for J in itertools.combinations(range(6), 4)]
    assert len(pairs) == 3984 + 225
    for I, J in pairs:
        assert d_oracle(I, J) == d_a(I, J), (I, J)


def test_alpha_oracle_matches_alpha():
    for r in range(6):
        for I in itertools.combinations(range(9), r):
            assert alpha_oracle(I) == alpha(I), I


def test_psi_oracle_matches_psi():
    for r in range(6):
        for I in itertools.combinations(range(8), r):
            assert psi_oracle(I) == psi(I), I


def test_cross_coefficient_matches_hom_full():
    # forms x_i + y_j in r + s variables, x first
    for r in range(4):
        for s in range(4):
            n = r + s
            forms = [tuple(a + b for a, b in zip(unit_form(i, n), unit_form(r + j, n)))
                     for i in range(r) for j in range(s)]
            levels = hom_full(forms, 8, n)
            for d in range(9):
                for mono in itertools.product(range(d + 1), repeat=n):
                    if sum(mono) != d:
                        continue
                    got = cross_coefficient(mono[:r], mono[r:])
                    assert got == levels[d].get(mono, 0), (r, s, mono)


def test_one_alphabet_levels_are_checked(monkeypatch):
    # a broken series level must surface, not be read from
    from mldeg import schur_oracle

    one = {(0, 0): 1}
    # the forms 2 x_1 and x_0 + x_1: degree one is x_0 + 3 x_1
    monkeypatch.setattr(schur_oracle, "_series_state",
                        lambda family, nvars: ([(1, 1), (0, 1)], [one, one], [one]))
    with pytest.raises(ConsistencyError):
        psi_oracle((1, 2))


def _mldeg_imports(source):
    """The mldeg modules a module's source imports, as dotted names;
    a relative import is inside mldeg."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 0 else ".".join(
                filter(None, ("mldeg", node.module)))
            names = ([f"{base}.{alias.name}" for alias in node.names]
                     if base == "mldeg" else [base])
        else:
            continue
        found.update(name for name in names if name.split(".")[0] == "mldeg")
    return found


def test_import_scan_sees_every_form():
    source = ("import math\nimport mldeg.degrees\nfrom . import lascoux\n"
              "from .checks import ROUTES\nfrom mldeg import qschur\n"
              "from mldeg.poly_n import combine\n")
    assert _mldeg_imports(source) == {"mldeg.degrees", "mldeg.lascoux", "mldeg.checks",
                                      "mldeg.qschur", "mldeg.poly_n"}


def test_oracle_imports_no_fast_route():
    # the oracle checks every fast route, so it may share only the exact
    # arithmetic and the index-set checks with them
    imported = _mldeg_imports(ORACLE.read_text())
    assert imported <= {"mldeg.exact", "mldeg.indexsets"}, imported
