import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mldeg.exact import ConsistencyError
from mldeg.degrees import (
    a_value, delta_direct_info, phi_sym, phi_type_a, phi_type_d,
)
from mldeg.indexsets import enumerate_indexsets
from mldeg.lascoux import alpha_complement, d_a_complement, psi_complement, s_ij
from mldeg import degrees, poly_n
from mldeg.poly_n import (
    _at_n_minus_1,
    _fit_route,
    _times_n_plus,
    b_poly,
    combine,
    evaluate,
    interpolate,
    lp_a_poly,
    lp_d_parity_residuals,
    lp_d_quasipoly,
    lp_leading_coeff,
    lp_lift_residual,
    lp_poly,
    lp_shift_residual,
    phi_poly,
    to_monomials,
)
from mldeg.qschur import d_value
from references import binomial, delta_poly


def _small_sets(max_size, max_total):
    out = [()]
    for r in range(1, max_size + 1):
        for t in range(max_total + 1):
            out.extend(enumerate_indexsets(r, t))
    return out


# Coefficients on a grid, or in n: random ints and Fractions.
ints = st.integers(min_value=-30, max_value=30)
fits = st.lists(ints | st.fractions(min_value=-30, max_value=30, max_denominator=12),
                max_size=6).map(tuple)


def test_interpolate():
    # n^2 + 1 at n = 0, 1, 2: 1 + C(n, 1) + 2 C(n, 2)
    assert interpolate([1, 2, 5]) == [1, 1, 2]
    assert interpolate([7]) == [7]
    assert interpolate([]) == []
    half = Fraction(1, 2)
    assert interpolate([0, half, 2, 9 * half]) == [0, half, 1, 0]


@given(fits, ints, st.integers(min_value=1, max_value=3))
@settings(max_examples=80)
def test_interpolate_reproduces_every_value(monomial, start, step):
    # A polynomial in n on the grid start + step*t is one of the same
    # degree in t: its table vanishes past that degree, is int when the
    # values are, and gives every value back.
    values = [sum(a * (start + step * t) ** j for j, a in enumerate(monomial))
              for t in range(len(monomial) + 4)]
    diffs = interpolate(values)
    if all(type(v) is int for v in values):
        assert all(type(d) is int for d in diffs)
    assert not any(diffs[len(monomial):])
    assert [evaluate(diffs, t) for t in range(len(values))] == values


@given(st.lists(st.tuples(ints, fits), max_size=4))
@settings(max_examples=80)
def test_combine_agrees_with_evaluation(terms):
    total = combine(terms)
    assert not total or total[-1]
    for t in range(13):
        assert evaluate(total, t) == sum(w * evaluate(p, t) for w, p in terms)


@given(fits, st.integers(min_value=-6, max_value=6))
@settings(max_examples=80)
def test_lift_and_shift_identities(p, c):
    for n in range(13):
        assert evaluate(_times_n_plus(p, c), n) == (n + c) * evaluate(p, n)
        if n:
            assert evaluate(_at_n_minus_1(p), n - 1) == evaluate(p, n)


@given(fits, st.integers(min_value=-4, max_value=4))
@settings(max_examples=80)
def test_monomials_evaluate_to_the_basis_value(p, start):
    poly = to_monomials(p, start)
    assert poly.coeffs == tuple(poly)
    for n in range(start, start + 13):
        assert poly(n) == evaluate(p, n - start)


def test_fit_names_the_first_node_that_misses():
    # n^2 = C(n, 1) + 2 C(n, 2), but for one value at n = 5; the nodes
    # after it miss as well.
    assert _fit_route("sq", lambda n: n * n, (), 2) == (0, 1, 2)
    for start, step in ((0, 1), (-3, 2)):
        with pytest.raises(ConsistencyError,
                           match=r"^sq\(\): degree-2 fit misses the value at 5$"):
            _fit_route("sq", lambda n: n * n + (n == 5), (), 2, start, step)


def test_lp_poly_anchors():
    assert lp_poly(()) == (1,)
    assert lp_poly((1,)) == binomial(2)
    assert lp_poly((0, 2)) == tuple(2 * c for c in binomial(4, shift=1))
    assert evaluate(lp_poly((0, 2)), 4) == 10
    for i in range(6):
        assert lp_poly((i,)) == binomial(i + 1)
    for j in range(1, 5):
        assert lp_poly((0, j)) == tuple(j * c for c in binomial(j + 2, shift=1))


def test_lp_leading_coeff():
    assert lp_leading_coeff(()) == 1
    assert lp_leading_coeff((1,)) == Fraction(1, 2)
    assert lp_leading_coeff((0, 2)) == Fraction(1, 12)
    for I in _small_sets(3, 7):
        poly = lp_poly(I)
        degree = sum(I) + len(I)
        assert len(poly) == degree + 1
        assert poly[-1] == math.factorial(degree) * lp_leading_coeff(I)


def test_lp_poly_matches_values():
    for I in _small_sets(3, 7):
        poly = lp_poly(I)
        for n in range(sum(I) + len(I) + 6):
            assert evaluate(poly, n) == psi_complement(I, n), (I, n)


def test_lp_a_poly():
    assert lp_a_poly((), ()) == (1,)
    cubic = lp_a_poly((1,), (1,))
    assert len(cubic) == 4
    assert [evaluate(cubic, n) for n in range(6)] == [0, 0, 1, 5, 14, 30]
    for I in _small_sets(2, 4):
        for J in _small_sets(2, 4):
            if len(I) != len(J):
                continue
            poly = lp_a_poly(I, J)
            assert len(poly) == sum(I) + sum(J) + len(I) + 1, (I, J)
            for n in range(11):
                assert evaluate(poly, n) == d_a_complement(I, J, n), (I, J, n)


def test_lp_a_poly_fits_only_its_proven_degree(monkeypatch):
    # Values of a higher degree than the proof allows are a broken
    # formula path, not a reason to fit a higher degree.
    def lifted(I, J, n):
        return d_a_complement(I, J, n) + n ** (sum(I) + sum(J) + len(I) + 2)

    monkeypatch.setattr(poly_n, "d_a_complement", lifted)
    with pytest.raises(ConsistencyError, match="lp_a_poly"):
        lp_a_poly((1,), (2,))


def test_a_rebound_route_is_fitted_again(monkeypatch):
    # The fit cache is keyed by the route itself: after the route is
    # rebound, no cache_clear() is needed to see the new values.
    old = lp_a_poly((1,), (2,))
    monkeypatch.setattr(poly_n, "d_a_complement",
                        lambda I, J, n: d_a_complement(I, J, n) + 1)
    assert lp_a_poly((1,), (2,)) == combine([(1, old), (1, (1,))])


def test_phi_poly_reads_a_rebound_degree_sum(monkeypatch):
    # phi_poly's route is a whole degree sum, which no cache key names,
    # so it is fitted on every call.
    old = phi_poly("sym", 4)
    phi = degrees.TYPE_TABLE[("sym", "phi")]
    monkeypatch.setitem(degrees.TYPE_TABLE, ("sym", "phi"), lambda n, d: phi(n, d) + 1)
    assert phi_poly("sym", 4) == (old[0] + 1,) + old[1:]


def test_lp_d_quasipoly():
    assert lp_d_quasipoly(()) == ((1,), (1,))
    assert lp_d_quasipoly((0,)) == ((), (1,))
    # k / 2 at k = 2t and (k - 1) / 2 at k = 2t + 1: both t
    assert lp_d_quasipoly((1,)) == ((0, 1), (0, 1))
    for I in _small_sets(2, 5):
        branches = lp_d_quasipoly(I)
        assert all(len(b) <= sum(I) + 1 for b in branches), I
        for k in range(13):
            assert evaluate(branches[k % 2], k // 2) == alpha_complement(I, k), (I, k)


def test_delta_poly_sym():
    # n^2 - n = 2 C(n, 2)
    assert delta_poly("sym", 2, 1) == (0, 0, 2)
    assert delta_poly("sym", 1, 2) == ()
    assert delta_poly("sym", 2, 2) == ()
    for m in range(1, 7):
        for s in range(1, 4):
            poly = delta_poly("sym", m, s)
            assert evaluate(poly, 0) == 0
            for n in range(11):
                assert evaluate(poly, n) == delta_direct_info("sym", m, n, n - s)[0], (m, s, n)


def test_delta_poly_square_and_skew():
    for m in range(1, 5):
        for s in (1, 2):
            pa = delta_poly("a", m, s)
            pd = delta_poly("d", m, s)
            for poly in (pa, pd):
                assert isinstance(poly, tuple) and len(poly) <= m + 1, (m, s)
            for n in range(9):
                assert evaluate(pa, n) == delta_direct_info("a", m, n, n - s)[0], (m, s, n)
                assert evaluate(pd, n) == delta_direct_info("d", m, n, n - s)[0], (m, s, n)


def test_phi_poly():
    assert phi_poly("sym", 1) == (1,)
    assert phi_poly("sym", 2) == (-1, 1)
    assert phi_poly("sym", 3)(3) == 4
    for d in range(1, 7):
        poly = phi_poly("sym", d)
        assert len(poly) <= d
        for n in range(1, d + 5):
            assert poly(n) == phi_sym(n, d), (d, n)
    for d in range(1, 4):
        pa = phi_poly("a", d)
        pd = phi_poly("d", d)
        for n in range(1, d + 5):
            assert pa(n) == phi_type_a(n, d), (d, n)
            assert pd(n) == phi_type_d(n, d), (d, n)


def test_lift_and_shift_residuals():
    for I in _small_sets(3, 7):
        if not I:
            continue
        if I[0] == 0:
            assert not lp_lift_residual(I), I
        else:
            assert not lp_shift_residual(I), I


def test_square_residuals():
    for r in (1, 2):
        for ti in range(6):
            for I in enumerate_indexsets(r, ti):
                for tj in range(6):
                    for J in enumerate_indexsets(r, tj):
                        if I[0] == 0 and J[0] == 0:
                            assert not lp_lift_residual(I, J), (I, J)
                        elif 0 not in I and 0 not in J:
                            assert not lp_shift_residual(I, J), (I, J)


def test_skew_parity_residuals():
    for I in _small_sets(3, 6):
        if I and I[0] == 0:
            even_res, odd_res = lp_d_parity_residuals(I)
            assert not even_res and not odd_res, I


def _off_by_one(monkeypatch, name, target):
    """Make poly_n.<name> off by 1 at the sets target, on each branch."""
    true = getattr(poly_n, name)

    def patched(*sets):
        value = true(*sets)
        if sets != target:
            return value
        if name == "lp_d_quasipoly":
            return tuple(combine([(1, branch), (1, (1,))]) for branch in value)
        return combine([(1, value), (1, (1,))])

    monkeypatch.setattr(poly_n, name, patched)


def test_residuals_catch_a_wrong_polynomial(monkeypatch):
    # Every residual whose recurrence takes the wrong value reads nonzero,
    # and no other.  The shift residual of the wrong set itself sees only
    # value(n) - value(n-1), where a constant offset drops out.
    with monkeypatch.context() as mp:
        _off_by_one(mp, "lp_poly", ((2, 4),))
        sets = [I for I in _small_sets(3, 8) if I]
        assert {I for I in sets if I[0] == 0 and lp_lift_residual(I)} == {
            (0, 2, 4), (0, 1, 4), (0, 2, 3)}
        assert {I for I in sets if I[0] != 0 and lp_shift_residual(I)} == {
            (3, 4), (2, 5), (3, 5)}
    with monkeypatch.context() as mp:
        _off_by_one(mp, "lp_a_poly", ((2,), (1,)))
        pairs = [(I, J) for r in (1, 2) for ti in range(6) for I in enumerate_indexsets(r, ti)
                 for tj in range(6) for J in enumerate_indexsets(r, tj)]
        assert {(I, J) for I, J in pairs
                if I[0] == 0 and J[0] == 0 and lp_lift_residual(I, J)} == {
            ((0, 2), (0, 1)), ((0, 1), (0, 1))}
        assert {(I, J) for I, J in pairs
                if I[0] != 0 and J[0] != 0 and lp_shift_residual(I, J)} == {
            ((3,), (1,)), ((2,), (2,)), ((3,), (2,))}
    # (0, 1, 3) drops its 0 on the odd branch; (0, 2) is wrong on both.
    for target, wrong in (((1, 3), {(0, 1, 3): (False, True)}),
                          ((0, 2), {(0, 2): (True, True)})):
        with monkeypatch.context() as mp:
            _off_by_one(mp, "lp_d_quasipoly", (target,))
            pairs = {I: tuple(map(bool, lp_d_parity_residuals(I)))
                     for I in _small_sets(3, 6) if I and I[0] == 0}
            assert {I: p for I, p in pairs.items() if any(p)} == wrong


def _lower_sets(I):
    if not I:
        return [()]
    out = []
    for J in itertools.product(*(range(v + 1) for v in I)):
        if all(J[k] < J[k + 1] for k in range(len(J) - 1)):
            out.append(J)
    return out


def test_halving_transform_exact():
    # the half-power binomial-minor transform and its inverse, as
    # polynomial identities between the two coefficient generating families
    for I in _small_sets(3, 7):
        forward = []
        backward = []
        for J in _lower_sets(I):
            gap = sum(I) - sum(J)
            c = s_ij(I, J)
            forward.append((Fraction(1, 2) ** gap * c, lp_poly(J)))
            backward.append((Fraction(-1, 2) ** gap * c, b_poly(J)))
        forward, backward = combine(forward), combine(backward)
        assert forward == b_poly(I), I
        assert backward == lp_poly(I), I


def test_halving_transform_skew_pointwise():
    # same transform pair for the skew families, checked pointwise since
    # the complement values are only quasi-polynomial
    for I in _small_sets(3, 7):
        lows = _lower_sets(I)
        for n in range(13):
            forward = Fraction(0)
            backward = Fraction(0)
            for J in lows:
                gap = sum(I) - sum(J)
                c = s_ij(I, J)
                forward += Fraction(1, 2) ** gap * c * alpha_complement(J, n)
                backward += Fraction(-1, 2) ** gap * c * d_value(J, n)
            assert forward == d_value(I, n), (I, n)
            assert backward == alpha_complement(I, n), (I, n)


def test_integer_transform_square_pointwise():
    # two-set transform pair: no half powers, signs only on the inverse
    for I in _small_sets(2, 4):
        for J in _small_sets(2, 4):
            if len(I) != len(J) or not I:
                continue
            lows = _lower_sets(I)
            for n in range(9):
                forward = 0
                backward = 0
                for L in lows:
                    c = s_ij(I, L)
                    forward += c * d_a_complement(L, J, n)
                    backward += (-1) ** (sum(I) - sum(L)) * c * a_value(L, J, n)
                assert forward == a_value(I, J, n), (I, J, n)
                assert backward == d_a_complement(I, J, n), (I, J, n)
