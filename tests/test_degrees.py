import itertools
import math
from fractions import Fraction

import pytest

from mldeg import degrees, pool
from mldeg.cli import _D_CAP, _N_CAP
from mldeg.exact import binom
from mldeg.degrees import (
    a_value,
    ambient_dim,
    canonical_type,
    delta_direct_info,
    delta_nrs_info,
    pataki_window,
    phi_sym,
    phi_type_a,
    phi_type_d,
    phi_value,
)
from mldeg.indexsets import complement, enumerate_indexsets, leq
from mldeg.lascoux import alpha, d_a, psi, psi_recursion, s_ij
from mldeg.poly_n import evaluate
from references import a_ij_poly, lambda_of


def _direct(kind, m, n, r):
    return delta_direct_info(kind, m, n, r)[0]


# (m, n, r) -> value, per type.
_VALUES = {
    "sym": {(6, 3, 0): 1, (2, 3, 2): 6, (1, 3, 2): 3, (3, 3, 2): 4, (3, 3, 1): 4,
            (0, 3, 3): 1, (0, 3, 2): 0, (7, 3, 1): 0,
            **{(2, n, n - 1): n * n - n for n in range(2, 6)}},
    "a": {(1, 2, 1): 2, (2, 2, 1): 2, (1, 3, 2): 3, (0, 2, 2): 1, (1, 2, 2): 0,
          **{(n * n, n, 0): 1 for n in range(1, 5)}},
    "d": {**{(m, 2, 1): 2 for m in range(1, 6)}, (6, 2, 0): 1, (6, 2, 2): 0,
          (0, 2, 2): 1},
}


@pytest.mark.parametrize("kind", ["sym", "a", "d"])
def test_delta_values(kind):
    for (m, n, r), value in _VALUES[kind].items():
        assert _direct(kind, m, n, r) == value, (m, n, r)


# Sizes n where each type's sums stay small.
_SMALL_N = {"sym": range(2, 6), "a": range(2, 4), "d": range(2, 4)}


@pytest.mark.parametrize("kind", ["sym", "a", "d"])
def test_path_equality(kind):
    for n in _SMALL_N[kind]:
        for s in range(1, n):
            for m in range(1, ambient_dim(kind, n) + 1):
                direct = _direct(kind, m, n, n - s)
                assert delta_nrs_info(kind, m, n, n - s)[0] == direct, (m, n, s)


@pytest.mark.parametrize("kind", ["sym", "a", "d"])
def test_duality(kind):
    # delta(m, n, r) = delta(w(n) - m, n, n - r); for the square type
    # this is the conormal symmetry.
    for n in _SMALL_N[kind]:
        top = ambient_dim(kind, n)
        for r in range(0, n + 1):
            for m in range(0, top + 1):
                assert _direct(kind, m, n, r) == _direct(kind, top - m, n, n - r), (m, n, r)


def test_delta_sym_nrs_below_window():
    # corank s = 2 at n = 4, so rank 2: m < C(s+1,2)
    assert delta_nrs_info("sym", 1, 4, 2)[0] == 0
    assert delta_nrs_info("sym", 2, 4, 2)[0] == 0


def test_phi_sym_values():
    assert [phi_sym(3, d) for d in range(1, 7)] == [1, 2, 4, 4, 2, 1]
    assert phi_sym(1, 1) == 1
    assert phi_sym(1, 2) == 0
    assert phi_sym(2, 2) == 1
    assert phi_sym(2, 3) == 1
    assert phi_sym(2, 4) == 0
    assert phi_sym(4, 10) == 1


def test_sym_degrees_at_large_n():
    # The paper's regime: the complement values cost what psi(I) costs,
    # so n in the hundreds is cheap.  phi(n, 3) = (n - 1)^2.
    assert phi_sym(200, 3) == 199 ** 2
    for (m, n, r), value in {(6, 200, 198): 9421880447100,
                             (9, 120, 117): 23442748797193440}.items():
        assert delta_direct_info("sym", m, n, r)[0] == value
        assert delta_nrs_info("sym", m, n, r)[0] == value


def test_square_degrees_at_large_n():
    # The square complements are determinants over the sets' own labels,
    # so n in the hundreds is cheap here too.  phi(n, 3) = (n - 1)^2.
    assert phi_type_a(200, 3) == 39601
    for (m, n, r), value in {(6, 60, 58): 8692016880,
                             (9, 60, 58): 782727842994720,
                             (12, 120, 118): 128963850476927189895600}.items():
        assert delta_direct_info("a", m, n, r)[0] == value
        assert delta_nrs_info("a", m, n, r)[0] == value


def test_skew_degrees_at_large_n():
    # The skew complements are Pfaffians over the labels of their sets,
    # so n in the hundreds neither costs much nor nests deeply.
    assert phi_type_d(200, 4) == 7880599
    for (m, n, r), value in {(4, 200, 199): 1576119800,
                             (10, 60, 58): 80450409711655632,
                             (15, 100, 97): 223761992517339744814500}.items():
        assert delta_direct_info("d", m, n, r)[0] == value
        assert delta_nrs_info("d", m, n, r)[0] == value


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


# Each type's window written out from the size of its matrices.
_EXPLICIT_WINDOWS = {
    "sym": lambda n, r: (binom(n - r + 1, 2), binom(n + 1, 2) - binom(r + 1, 2)),
    "a": lambda n, r: ((n - r) ** 2, n * n - r * r),
    "d": lambda n, r: (binom(2 * (n - r), 2), binom(2 * n, 2) - binom(2 * r, 2)),
}


@pytest.mark.parametrize("kind", ["sym", "a", "d"])
def test_windows_follow_the_shape(kind):
    window = _EXPLICIT_WINDOWS[kind]
    for n in range(60):
        assert ambient_dim(kind, n) == window(n, 0)[1], n
        for r in range(1, n):
            assert pataki_window(kind, n, r) == window(n, r), (n, r)


def _window_support(values, lo, hi):
    for m, v in values.items():
        inside = lo <= m <= hi
        if not inside:
            assert v == 0, m
    assert values.get(lo, 0) != 0
    assert values.get(hi, 0) != 0


def test_pataki_vanishing_small():
    for kind in ("sym", "a", "d"):
        for n in _SMALL_N[kind]:
            for r in range(1, n):
                lo, hi = pataki_window(kind, n, r)
                vals = {m: _direct(kind, m, n, r)
                        for m in range(0, ambient_dim(kind, n) + 2)}
                _window_support(vals, lo, hi)


def test_a_ij_poly():
    assert a_ij_poly((0,), (0,)) == (0, 1)
    # n^2 (n^2 - 1) / 12, of degree 4, at nine nodes
    square = a_ij_poly((0, 1), (0, 1))
    assert [evaluate(square, n) for n in range(9)] == [n * n * (n * n - 1) // 12
                                                       for n in range(9)]
    assert evaluate(a_ij_poly((1,), (0,)), 2) == 3
    for I in itertools.combinations(range(4), 2):
        for J in itertools.combinations(range(4), 2):
            p = a_ij_poly(I, J)
            for n in range(6):
                assert a_value(I, J, n) == evaluate(p, n)
                assert evaluate(p, n).denominator == 1


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


def glued_dimension(I, J, n):
    cells = content_hook_cells(glued_shape(I, J))
    return Fraction(math.prod(n + c for c, _ in cells), math.prod(h for _, h in cells))


def _sets_up_to_weight(r, wmax):
    return [I for w in range(wmax + 1) for I in enumerate_indexsets(r, w + binom(r, 2))]


def test_a_value_matches_glued_shape():
    for r in range(4):
        sets = _sets_up_to_weight(r, 8)
        for I in sets:
            for J in sets:
                for n in range(13):
                    assert a_value(I, J, n) == glued_dimension(I, J, n), (I, J, n)


def test_a_ij_poly_matches_glued_shape():
    for r in range(4):
        sets = _sets_up_to_weight(r, 4)
        for I in sets:
            for J in sets:
                # at more nodes than the degree + 1 that pin both sides
                p = a_ij_poly(I, J)
                for n in range(sum(I) + sum(J) + len(I) + 2):
                    assert evaluate(p, n) == glued_dimension(I, J, n), (I, J, n)


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
    assert glued_dimension(I, J, n) == expected
    assert evaluate(a_ij_poly(I, J), n) == expected


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


def test_phi_type_d_values():
    assert phi_type_d(2, 1) == 1
    assert phi_type_d(2, 6) == 1
    assert phi_type_d(3, 1) == 1


def test_rank_weighted_sum_relation():
    # n * phi equals the rank-weighted sum of the dual degrees, exactly
    for n in range(1, 6):
        for d in range(1, binom(n + 1, 2) + 1):
            total = sum(s * delta_direct_info("sym", d, n, n - s)[0] for s in range(1, n + 1))
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


# Each partial-sum role: its coefficient and factor kernels, by their
# names in degrees, and the argument k of the factor at n.
_PARTIAL_KERNELS = {
    ("sym", "partial"): ("psi", "psi_complement", 1),
    ("sym", "nrs_partial"): ("psi", "b_value", 1),
    ("a", "partial"): ("d_a", "d_a_complement", 1),
    ("a", "nrs_partial"): ("d_a", "a_value", 1),
    ("d", "partial"): ("alpha", "alpha_complement", 2),
    ("d", "nrs_partial"): ("alpha", "d_value", 2),
}

# Hand-built terms per type; the last one's coefficient is set to 0.
_HAND_TERMS = {
    "sym": [((0, 2),), ((1,),), ((1, 3),), ((0, 1, 3),), ((2,),)],
    "a": [((0, 2), (1, 3)), ((1,), (0,)), ((0, 1), (0, 2)), ((2,), (1,)), ((0,), (3,))],
    "d": [((0, 1),), ((1, 2),), ((0, 3),), ((1, 2, 3, 4),), ((0, 5),)],
}


@pytest.mark.parametrize("role", sorted(_PARTIAL_KERNELS), ids="-".join)
def test_partial_sums_are_one_weighted_body(monkeypatch, role):
    coeff_name, factor_name, scale = _PARTIAL_KERNELS[role]
    coeff, factor = getattr(degrees, coeff_name), getattr(degrees, factor_name)
    n = 4
    terms = _HAND_TERMS[role[0]]
    zero = terms[-1]
    items = list(zip((3, -2, 1, 5, 7), terms))

    def coeff_with_zero(*sets):
        return 0 if sets == zero else coeff(*sets)

    def factor_off_zero(*args):
        if args[:-1] == zero:
            raise AssertionError("factor taken at a term whose coefficient is 0")
        return factor(*args)

    expected = sum(weight * coeff_with_zero(*sets) * factor(*sets, scale * n)
                   for weight, sets in items)
    # The partials read their kernels as module globals when they run.
    monkeypatch.setattr(degrees, coeff_name, coeff_with_zero)
    monkeypatch.setattr(degrees, factor_name, factor_off_zero)
    assert degrees.TYPE_TABLE[role](n, items) == expected != 0


@pytest.mark.parametrize("m, n, r", [(4, 3, 1), (6, 4, 2), (9, 5, 2), (12, 6, 3)])
def test_delta_sym_items_are_the_direct_sets(m, n, r):
    # perfbench/make_reference.py sums psi_recursion(I) times
    # psi_recursion of the complement over these bare sets.
    items = degrees.delta_sym_items(m, n, r)
    assert items == [I for _, (I,) in degrees.direct_terms("sym", m, n, r)]
    assert all(type(a) is int for I in items for a in I)
    total = sum(psi_recursion(I) * psi_recursion(complement(I, n)) for I in items)
    assert total == delta_direct_info("sym", m, n, r)[0] != 0


def _square_terms_reference(sets, size, total, bound=None):
    """The square terms by a nested loop that enumerates the J sets
    again for every I."""
    low = binom(size, 2)
    return [(I, J) for t in range(low, total - low + 1)
            for I in enumerate_indexsets(size, t, bound)
            for J in enumerate_indexsets(size, total - t, bound)]


def test_square_terms_enumerate_each_sum_once(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(degrees, "_terms", _square_terms_reference)
        reference = degrees.nrs_terms("a", 30, 3)
        direct = [degrees.direct_terms("a", m, 6, 3) for m in range(3, 25)]
    calls = []

    def counting(*args):
        calls.append(args)
        return enumerate_indexsets(*args)

    monkeypatch.setattr(degrees, "enumerate_indexsets", counting)
    assert degrees.nrs_terms("a", 30, 3) == reference
    # One enumeration per sum of I in each _terms call: 253 here, where
    # enumerating the J sets again for every I makes 2,931.
    assert len(calls) <= 319
    assert [degrees.direct_terms("a", m, 6, 3) for m in range(3, 25)] == direct


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
