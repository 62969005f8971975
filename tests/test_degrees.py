import itertools
import math
from fractions import Fraction

import pytest

from mldeg import degrees, pool
from mldeg.cli import _D_CAP, _N_CAP
from mldeg.exact import N, PolyQ, binom
from mldeg.degrees import (
    a_ij_poly,
    a_value,
    canonical_type,
    delta_direct_info,
    delta_nrs_info,
    delta_sym,
    delta_sym_nrs,
    delta_type_a,
    delta_type_a_nrs,
    delta_type_d,
    delta_type_d_nrs,
    pataki_window,
    phi_sym,
    phi_type_a,
    phi_type_d,
    phi_value,
)
from mldeg.indexsets import enumerate_indexsets, lambda_of, leq
from mldeg.lascoux import alpha, d_a, psi, s_ij


def test_delta_sym_values():
    assert delta_sym(binom(4, 2), 3, 0) == 1
    assert delta_sym(2, 3, 2) == 6
    assert delta_sym(1, 3, 2) == 3
    assert delta_sym(3, 3, 2) == 4
    assert delta_sym(3, 3, 1) == 4
    assert delta_sym(0, 3, 3) == 1
    assert delta_sym(0, 3, 2) == 0
    assert delta_sym(7, 3, 1) == 0
    for n in range(2, 6):
        assert delta_sym(2, n, n - 1) == n * n - n


def test_sym_path_equality_and_duality():
    for n in range(2, 6):
        top = binom(n + 1, 2)
        for s in range(1, n):
            for m in range(1, top + 1):
                direct = delta_sym(m, n, n - s)
                assert delta_sym_nrs(m, n, s) == direct, (m, n, s)
                assert delta_sym(top - m, n, s) == direct, (m, n, s)


def test_delta_sym_nrs_below_window():
    assert delta_sym_nrs(1, 4, 2) == 0  # m < C(s+1,2)
    assert delta_sym_nrs(2, 4, 2) == 0


def test_phi_sym_values():
    assert [phi_sym(3, d) for d in range(1, 7)] == [1, 2, 4, 4, 2, 1]
    assert phi_sym(1, 1) == 1
    assert phi_sym(1, 2) == 0
    assert phi_sym(2, 2) == 1
    assert phi_sym(2, 3) == 1
    assert phi_sym(2, 4) == 0
    assert phi_sym(4, 10) == 1


def test_pataki_windows():
    assert pataki_window("sym", 3, 2) == (1, 3)
    assert pataki_window("symmetric", 3, 1) == (3, 5)
    assert pataki_window("a", 3, 2) == (1, 5)
    assert pataki_window("general", 3, 1) == (4, 8)
    assert pataki_window("d", 2, 1) == (1, 5)
    with pytest.raises(ValueError):
        pataki_window("sym", 3, 3)
    with pytest.raises(ValueError):
        canonical_type("hermitian")


def _window_support(values, lo, hi):
    for m, v in values.items():
        inside = lo <= m <= hi
        if not inside:
            assert v == 0, m
    assert values.get(lo, 0) != 0
    assert values.get(hi, 0) != 0


def test_pataki_vanishing_small():
    for n in range(2, 6):
        for r in range(1, n):
            lo, hi = pataki_window("sym", n, r)
            vals = {m: delta_sym(m, n, r) for m in range(0, binom(n + 1, 2) + 2)}
            _window_support(vals, lo, hi)
    for n in range(2, 4):
        for r in range(1, n):
            lo, hi = pataki_window("a", n, r)
            vals = {m: delta_type_a(m, n, r) for m in range(0, n * n + 2)}
            _window_support(vals, lo, hi)
            lo, hi = pataki_window("d", n, r)
            vals = {m: delta_type_d(m, n, r) for m in range(0, binom(2 * n, 2) + 2)}
            _window_support(vals, lo, hi)


def test_delta_type_a_values():
    assert delta_type_a(1, 2, 1) == 2
    assert delta_type_a(2, 2, 1) == 2
    assert delta_type_a(1, 3, 2) == 3
    for n in range(1, 5):
        assert delta_type_a(n * n, n, 0) == 1
    assert delta_type_a(0, 2, 2) == 1
    assert delta_type_a(1, 2, 2) == 0


def test_type_a_conormal_symmetry():
    for n in range(2, 4):
        for r in range(0, n + 1):
            for m in range(0, n * n + 1):
                assert delta_type_a(m, n, r) == delta_type_a(n * n - m, n, n - r), (m, n, r)


def test_type_a_path_equality():
    for n in range(2, 4):
        for r in range(1, n):
            for m in range(1, n * n + 1):
                direct = delta_type_a(m, n, n - r)
                assert delta_type_a_nrs(m, n, r) == direct, (m, n, r)


def test_a_ij_poly():
    assert a_ij_poly((0,), (0,)) == N
    expected = N * N * (N - 1) * (N + 1) * Fraction(1, 12)
    assert a_ij_poly((0, 1), (0, 1)) == expected
    assert a_ij_poly((1,), (0,))(2) == 3
    assert a_ij_poly((0, 1), (0, 1))(1) == 0
    for I in itertools.combinations(range(4), 2):
        for J in itertools.combinations(range(4), 2):
            p = a_ij_poly(I, J)
            for n in range(6):
                assert a_value(I, J, n) == p(n)
                assert p(n).denominator == 1


# An independent reference for a_value and a_ij_poly: the glued shape
# r + lambda(I) over the conjugate of lambda(J), and its dimension as
# the content-over-hook product, cell by cell.

def conjugate(lam):
    """Conjugate partition (zeros dropped in the result)."""
    parts = [p for p in lam if p > 0]
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2, 0)) == (2, 2)
    assert conjugate(()) == ()
    assert conjugate((0, 0)) == ()


def glued_shape(I, J):
    nu = tuple(len(I) + p for p in lambda_of(I)) + conjugate(lambda_of(J))
    assert all(a >= b for a, b in zip(nu, nu[1:])), f"not a partition: {nu}"
    return tuple(p for p in nu if p)


def content_hook_cells(nu):
    conj = conjugate(nu)
    return [(j - i, (row - j) + (conj[j] - i) - 1)
            for i, row in enumerate(nu) for j in range(row)]


def glued_dimension(I, J):
    poly = PolyQ((1,))
    for content, hook in content_hook_cells(glued_shape(I, J)):
        poly = poly * (N + content) * Fraction(1, hook)
    return poly


def _sets_up_to_weight(r, wmax):
    return [I for w in range(wmax + 1) for I in enumerate_indexsets(r, w + binom(r, 2))]


def test_a_value_matches_glued_shape():
    for r in range(4):
        sets = _sets_up_to_weight(r, 8)
        for I in sets:
            for J in sets:
                cells = content_hook_cells(glued_shape(I, J))
                hooks = math.prod(hook for _, hook in cells)
                for n in range(13):
                    expected = Fraction(math.prod(n + c for c, _ in cells), hooks)
                    assert a_value(I, J, n) == expected, (I, J, n)


def test_a_ij_poly_matches_glued_shape():
    for r in range(4):
        sets = _sets_up_to_weight(r, 4)
        for I in sets:
            for J in sets:
                assert a_ij_poly(I, J) == glued_dimension(I, J), (I, J)


@pytest.mark.parametrize("I, J, n, expected", [
    ((), (), 0, 1),                  # r = 0: the empty shape
    ((), (), 5, 1),
    ((0,), (0,), 0, 0),              # n = 0
    ((0, 2), (1, 3), 0, 0),
    ((0, 1, 2), (0, 1, 2), 2, 0),    # n < r
    ((0, 1), (0, 1), 1, 0),
    ((1,), (3,), 3, 0),              # max(J) >= n
    ((0, 2), (1, 3), 3, 0),
    ((1,), (3,), 4, 4),              # the first n past max(J)
    ((0, 2), (1, 3), 4, 15),
    ((5,), (0,), 1, 1),              # max(I) >= n does not vanish
    ((0, 1), (0, 1), 2, 1),
])
def test_a_value_boundaries(I, J, n, expected):
    assert a_value(I, J, n) == expected
    assert glued_dimension(I, J)(n) == expected
    assert a_ij_poly(I, J)(n) == expected


def test_a_value_rejects_bad_arguments():
    for args in (((0, 1), (0,), 5), ((2,), (0, 3), 5), ((3, 1), (0, 1), 5),
                 ((0,), (-1,), 5), ((0,), (0,), -1)):
        with pytest.raises(ValueError):
            a_value(*args)


def test_phi_type_a_values():
    for n in range(1, 4):
        assert phi_type_a(n, 1) == 1
    assert phi_type_a(2, 2) == 1
    assert phi_type_a(2, 4) == 1
    assert phi_type_a(3, 9) == 1


def test_delta_type_d_values():
    assert [delta_type_d(m, 2, 1) for m in range(1, 6)] == [2, 2, 2, 2, 2]
    assert delta_type_d(binom(4, 2), 2, 0) == 1
    assert delta_type_d(binom(4, 2), 2, 2) == 0
    assert delta_type_d(0, 2, 2) == 1


def test_type_d_duality():
    for n in range(2, 4):
        top = binom(2 * n, 2)
        for r in range(0, n + 1):
            for m in range(0, top + 1):
                assert delta_type_d(m, n, r) == delta_type_d(top - m, n, n - r), (m, n, r)


def test_type_d_path_equality():
    for n in range(2, 4):
        for r in range(1, n):
            for m in range(1, binom(2 * n, 2) + 1):
                direct = delta_type_d(m, n, n - r)
                assert delta_type_d_nrs(m, n, r) == direct, (m, n, r)


def test_phi_type_d_values():
    assert phi_type_d(2, 1) == 1
    assert phi_type_d(2, 6) == 1
    assert phi_type_d(3, 1) == 1


def test_rank_weighted_sum_relation():
    # n * phi equals the rank-weighted sum of the dual degrees, exactly
    for n in range(1, 6):
        for d in range(1, binom(n + 1, 2) + 1):
            total = sum(s * delta_sym(d, n, n - s) for s in range(1, n + 1))
            assert total == n * phi_sym(n, d), (n, d)


@pytest.mark.parametrize("kind", ["sym", "a", "d"])
def test_phi_value_window_cut_matches_full_rank_sum(kind):
    # phi_value stops at the first corank whose window starts past d;
    # the sum over every corank must give the same value
    for n in range(1, _N_CAP[kind] + 1):
        for d in range(1, _D_CAP + 1):
            total = sum(s * delta_direct_info(kind, d, n, n - s)[0]
                        for s in range(1, n + 1))
            assert total % n == 0 and phi_value(kind, n, d) == total // n, (n, d)


@pytest.mark.parametrize("kind, m, n, r", [
    ("sym", 8, 5, 2), ("a", 9, 4, 2), ("d", 12, 4, 2),
])
def test_delta_info_independent_of_jobs(kind, m, n, r):
    for info in (delta_direct_info, delta_nrs_info):
        serial = info(kind, m, n, r, jobs=1)
        assert serial[1] > 1
        assert info(kind, m, n, r, jobs=2) == serial


@pytest.mark.parametrize("kind, m, n, r", [
    ("sym", 20, 7, 3), ("a", 10, 4, 2), ("d", 16, 4, 2),
])
def test_delta_info_forked_matches_serial(monkeypatch, fork_calls, kind, m, n, r):
    # With one-term chunks and a zero budget, a sum forks for all but its
    # first term, unless that leaves fewer than two (the direct sum for
    # sym has two terms).
    infos = (delta_direct_info, delta_nrs_info)
    serial = [info(kind, m, n, r, jobs=1) for info in infos]
    monkeypatch.setattr(pool, "FORK_AFTER_S", 0)
    monkeypatch.setattr(degrees, "_CHUNK", 1)
    assert [info(kind, m, n, r, jobs=2) for info in infos] == serial
    assert fork_calls == [terms - 1 for _, terms in serial if terms > 2]


def _upper_sets(J, cap):
    """Strictly increasing I with I >= J componentwise and sum(I) <= cap."""
    out = []
    for t in range(sum(J), cap + 1):
        for I in enumerate_indexsets(len(J), t):
            if leq(J, I):
                out.append(I)
    return out


def test_shifted_inversion_sym():
    # alternating binomial sum against psi collapses to a single value
    for r in (1, 2):
        for J in itertools.combinations(range(7), r):
            if sum(J) > 6:
                continue
            for m in range(r + sum(J), 11):
                s = r
                total = Fraction(0)
                for I in _upper_sets(J, m - s):
                    total += (
                        psi(I)
                        * Fraction(-1, 2) ** (sum(I) - sum(J))
                        * s_ij(I, J)
                        * binom(m - 1, m - s - sum(I))
                    )
                expected = psi(J) if sum(J) == m - s else 0
                assert total == expected, (J, m)


def test_shifted_inversion_type_a():
    for r in (1, 2):
        for K in itertools.combinations(range(5), r):
            for L in itertools.combinations(range(5), r):
                if sum(K) > 6 or sum(L) > 4:
                    continue
                for m in range(r + sum(K) + sum(L), 11):
                    total = 0
                    for I in _upper_sets(K, m - r - sum(L)):
                        total += (
                            d_a(I, L)
                            * (-1) ** (sum(I) - sum(K))
                            * s_ij(I, K)
                            * binom(m - 1, m - r - sum(I) - sum(L))
                        )
                    expected = d_a(K, L) if sum(K) + sum(L) == m - r else 0
                    assert total == expected, (K, L, m)


def test_shifted_inversion_type_d():
    for r in (1, 2):
        for J in itertools.combinations(range(7), r):
            if sum(J) > 6:
                continue
            for m in range(sum(J), 11):
                if m == 0:
                    continue
                total = Fraction(0)
                for I in _upper_sets(J, m):
                    total += (
                        alpha(I)
                        * Fraction(-1, 2) ** (sum(I) - sum(J))
                        * s_ij(I, J)
                        * binom(m - 1, m - sum(I))
                    )
                expected = alpha(J) if sum(J) == m else 0
                assert total == expected, (J, m)
