import itertools
import math
from collections import defaultdict

import pytest

from mldeg import lascoux
from mldeg.exact import det, pfaffian
from mldeg.indexsets import complement, enumerate_indexsets, lambda_of
from mldeg.lascoux import (
    alpha,
    alpha_complement,
    d_a,
    d_a_complement,
    d_a_recursion,
    psi,
    psi_complement,
    psi_pair,
    psi_pascal,
    psi_recursion,
    s_ij,
)
from mldeg.schur_oracle import (
    alpha_oracle,
    d_oracle,
    psi_oracle,
    schur_full,
    sij_row_oracle,
)
from test_schur_oracle import hom_full


def test_psi_anchor_values():
    assert psi(()) == 1
    assert psi((4,)) == 16
    assert psi((0, 2)) == 3
    assert psi((0, 3)) == 7
    assert psi((1, 2)) == 3
    assert psi((1, 3)) == 10
    assert psi((2, 3)) == 10
    assert psi((0, 2, 3)) == 6
    assert psi((0, 1, 3)) == 4
    assert tuple(psi(tuple(range(r))) for r in range(6)) == (1,) * 6


def test_psi_pascal_examples():
    assert psi_pascal((2,)) == 4
    assert psi_pascal((0, 3)) == 7
    assert psi_pascal(()) == 1


def test_psi_recursion_examples():
    assert psi_recursion((2, 3)) == 3 * 6 - 2 * 4
    assert psi_recursion((5,)) == 32
    assert psi_recursion(()) == 1
    assert psi_recursion((0, 2, 3)) == 6


def test_psi_four_paths_agree():
    sets = [I for r in range(4) for I in itertools.combinations(range(7), r)]
    sets += list(itertools.combinations(range(8), 4))[:20]
    for I in sets:
        v = psi(I)
        assert psi_pascal(I) == v, I
        assert psi_recursion(I) == v, I
    small = [I for r in range(4) for I in itertools.combinations(range(6), r)]
    for I in small:
        assert psi_oracle(I) == psi(I), I


def test_psi_complement_routes():
    # The complement value is also the Pfaffian, over the labels of I
    # (padded when odd), of the complement values of its pairs and
    # singletons.
    for n in range(1, 9):
        for r in range(4):
            for I in itertools.combinations(range(n), r):
                value = psi_complement(I, n)
                assert value == psi(complement(I, n)), (I, n)
                labels = (None,) + I if r % 2 else I
                rows = [[0] * len(labels) for _ in labels]
                for a, b in itertools.combinations(range(len(labels)), 2):
                    pair = tuple(x for x in (labels[a], labels[b]) if x is not None)
                    rows[a][b] = psi_complement(pair, n)
                    rows[b][a] = -rows[a][b]
                assert pfaffian(rows) == value, (I, n)
    assert psi_complement((9,), 4) == 0
    assert psi_complement(tuple(range(5)), 5) == 1


def test_psi_matches_padded_pair_matrix_pfaffian():
    for r in range(8):
        for I in itertools.combinations(range(11), r):
            labels = (None,) + I if r % 2 else I
            rows = [[0] * len(labels) for _ in labels]
            for a, b in itertools.combinations(range(len(labels)), 2):
                i, j = labels[a], labels[b]
                if i is None:
                    rows[a][b] = 2 ** j
                else:
                    rows[a][b] = sum(math.comb(i + j, k) for k in range(i + 1, j + 1))
                rows[b][a] = -rows[a][b]
            assert psi(I) == pfaffian(rows), I


def test_psi_large_sets_eliminate(monkeypatch):
    # Above the expansion cap psi eliminates the matrix; both routes agree.
    # The expansion values are recorded first, and the eliminations run
    # on a cleared cache, so neither route reads the other's entries.
    sets = [I for r in range(4, 8) for I in itertools.combinations(range(9), r)]
    expanded = {I: psi(I) for I in sets}
    lascoux._pf.cache_clear()
    monkeypatch.setattr(lascoux, "_EXPANSION_MAX", 3)
    for I in sets:
        assert psi(I) == expanded[I], I
    # Only the sets themselves were cached: no sub-Pfaffian was expanded.
    assert lascoux._pf.cache_info().currsize == len(sets)
    monkeypatch.undo()
    lascoux._pf.cache_clear()
    assert psi(tuple(range(40))) == 1
    assert psi_complement((0,), 40) == psi_recursion(tuple(range(1, 40)))


def test_cached_recursions_handle_deep_sets():
    # Each lifting and box step is one cached call; a wide gap must not
    # nest them past the recursion limit.
    assert psi_recursion((1500,)) == 2 ** 1500
    assert alpha((0, 5000)) == 1


def test_pair_matrix_jacobi_cofactor():
    # the full pair matrix has unit determinant and unit Pfaffian, and
    # deleting two rows/columns yields the complement values
    for n in (4, 6, 8):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = psi_pair(i, j)
                rows[j][i] = -rows[i][j]
        assert det(rows) == 1
        assert pfaffian(rows) == 1
        for i in range(n):
            for j in range(i + 1, n):
                keep = [k for k in range(n) if k not in (i, j)]
                minor = [[rows[a][b] for b in keep] for a in keep]
                assert pfaffian(minor) == psi_complement((i, j), n)


def _pfaff_rec_terms(I, n):
    """Signed pair expansion of the complement value over pairs of I."""
    r = len(I)
    if r % 2 == 0:
        total = 0
        for k in range(r):
            for l in range(k + 1, r):
                rest = tuple(x for x in I if x not in (I[k], I[l]))
                sign = -1 if (k + l) % 2 == 0 else 1
                total += sign * psi_complement((I[k], I[l]), n) * psi_complement(rest, n)
        return 2 * total, r
    labels = (None,) + I
    total = 0
    for k in range(r + 1):
        for l in range(k + 1, r + 1):
            sign = -1 if (k + l) % 2 == 0 else 1
            if labels[k] is None:
                first = psi_complement((labels[l],), n)
                rest = tuple(x for x in I if x != labels[l])
            else:
                first = psi_complement((labels[k], labels[l]), n)
                rest = tuple(x for x in I if x not in (labels[k], labels[l]))
            total += sign * first * psi_complement(rest, n)
    return 2 * total, r + 1


def test_complement_pair_expansion():
    assert _pfaff_rec_terms((0, 1, 2), 4) == (4 * psi((3,)), 4)
    for n in range(4, 9):
        for r in (2, 3, 4):
            for I in itertools.combinations(range(n), r):
                lhs, factor = _pfaff_rec_terms(I, n)
                assert lhs == factor * psi_complement(I, n), (I, n)


def test_alpha_values_and_oracle():
    assert alpha(()) == 1
    assert alpha((1,)) == 0
    assert alpha((0, 1)) == 1
    assert alpha((1, 2)) == 1
    assert alpha((1, 3)) == 2
    assert alpha((2, 3)) == 2
    assert alpha((0, 2, 3)) == 2
    assert alpha((1, 2, 3, 4)) == 1
    for k in range(6):
        assert alpha(tuple(range(k))) == 1
    for r in range(4):
        for I in itertools.combinations(range(7), r):
            assert alpha(I) == alpha_oracle(I), I


def test_alpha_is_pfaffian_of_its_pair_values():
    # Like psi, alpha is the Pfaffian of its pair values; an odd set is
    # padded with the singleton values alpha((i,)) = [i == 0].
    for r in range(2, 7):
        for I in itertools.combinations(range(9), r):
            labels = (None,) + I if r % 2 else I
            rows = [[0] * len(labels) for _ in labels]
            for a, b in itertools.combinations(range(len(labels)), 2):
                i, j = labels[a], labels[b]
                rows[a][b] = int(j == 0) if i is None else alpha((i, j))
                rows[b][a] = -rows[a][b]
            assert alpha(I) == pfaffian(rows), I
    # The pair values in closed form; (0, 1) alone has i + j - 2 < 0.
    assert alpha((0, 1)) == 1
    for i, j in itertools.combinations(range(16), 2):
        if (i, j) != (0, 1):
            expected = math.comb(i + j - 2, i) - (math.comb(i + j - 2, i - 2) if i >= 2 else 0)
            assert alpha((i, j)) == expected, (i, j)


def test_alpha_complement():
    assert alpha_complement((), 2) == 1
    assert alpha_complement((1,), 4) == alpha((0, 2, 3))
    assert alpha_complement((9,), 3) == 0


def test_s_ij_values():
    assert s_ij((1, 3), (0, 1)) == 2
    assert s_ij((0, 2), (0, 2)) == 1
    assert s_ij((2, 4), (2, 4)) == 1
    assert s_ij((1, 2), (0, 3)) == 0
    with pytest.raises(ValueError):
        s_ij((1,), (0, 1))


def test_s_ij_against_oracle_rows():
    for r in (1, 2):
        for I in itertools.combinations(range(6), r):
            row = sij_row_oracle(I)
            for J in itertools.combinations(range(6), r):
                assert s_ij(I, J) == row.get(J, 0), (I, J)


def test_s_ij_inverse_pair():
    sets = list(itertools.combinations(range(7), 2))
    for I in sets:
        for K in sets:
            total = sum(
                s_ij(I, J) * (-1) ** (sum(J) - sum(K)) * s_ij(J, K)
                for J in sets
            )
            assert total == (1 if I == K else 0), (I, K)


def test_d_a_values():
    assert d_a((0,), (0,)) == 1
    assert d_a((1,), (1,)) == 2
    assert d_a((0, 2), (1, 2)) == 3
    assert d_a((0, 2), (1, 3)) == 7
    assert d_a((1,), (2,)) == 3
    assert d_a((0,), (0, 2)) == 1
    assert d_a((1,), (0, 1)) == 2
    assert d_a((1, 2), (1, 2)) == 3
    assert d_a((1,), (1, 2)) == 0
    assert d_a((1,), (0, 2)) == 3
    assert d_a((1, 3), (1, 2)) == 8
    assert d_a((), ()) == 1


def test_d_a_symmetry_and_unequal_oracle():
    for I in itertools.combinations(range(5), 1):
        for J in itertools.combinations(range(5), 2):
            assert d_a(I, J) == d_a(J, I)
            assert d_a(I, J) == d_oracle(I, J), (I, J)


def test_d_a_recursion_matches():
    for r in (0, 1, 2):
        for I in itertools.combinations(range(5), r):
            for J in itertools.combinations(range(5), r):
                assert d_a_recursion(I, J) == d_a(I, J), (I, J)
    for I in itertools.combinations(range(5), 2):
        for J in itertools.combinations(range(5), 2):
            assert d_a(I, J) == d_oracle(I, J), (I, J)


def test_d_a_complement():
    assert d_a_complement((), (), 2) == d_a((0, 1), (0, 1))
    assert d_a_complement((5,), (0,), 3) == 0
    assert d_a_complement((0,), (1,), 3) == d_a((1, 2), (0, 2))


def test_completeness_of_expansion():
    # the fast values must reassemble the full homogeneous sums
    from mldeg.schur_oracle import _pair_forms

    for family, fast in (("psi", psi), ("alpha", alpha)):
        for r in (1, 2, 3):
            forms = _pair_forms(r, include_diagonal=(family == "psi"))
            levels = hom_full(forms, 6, r)
            for d in range(7):
                assembled = defaultdict(int)
                staircase = r * (r - 1) // 2
                for I in enumerate_indexsets(r, d + staircase):
                    c = fast(I)
                    if not c:
                        continue
                    for mono, k in schur_full(lambda_of(I), r).items():
                        assembled[mono] += c * k
                assert dict(assembled) == levels[d], (family, r, d)
