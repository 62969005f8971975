import itertools
from fractions import Fraction

import pytest

from mldeg import poly_n, qschur
from mldeg.exact import ConsistencyError, binom
from mldeg.indexsets import enumerate_indexsets, mask
from mldeg.poly_n import b_poly, evaluate, interpolate
from mldeg.qschur import b_value, d_value
from references import binomial


def q_onerow_at(a, n):
    """Coefficient of t^a in ((1+t/2)/(1-t/2))^n, by the int point route."""
    if a < 0:
        raise ValueError(f"q_onerow_at: negative index {a}")
    return Fraction(qschur._q_table(n)(1 << a), 1 << a)


def q_strict_at(parts, n):
    """Q specialization of a strict partition at integer n, by the int
    point route."""
    parts = tuple(parts)
    if any(p <= 0 for p in parts) or any(a <= b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"not a strict partition of positive parts: {parts}")
    return Fraction(qschur._q_table(n)(mask(parts)), 1 << sum(parts))


def d_poly(I):
    """The P specialization as a polynomial: a fit of d_value at degree
    sum(I), on the parity n = #I mod 2 when 0 is a member."""
    grid = {"start": len(I) % 2, "step": 2} if 0 in I else {}
    return poly_n._fit("d_poly", d_value, (I,), sum(I), **grid)


def _fits_at_degree(value_at, degree, nmax=20):
    """value_at(n) for n = 0..nmax lies on one polynomial of exactly this
    degree: the difference of that order is the last nonzero one."""
    diffs = interpolate([value_at(n) for n in range(nmax + 1)])
    return diffs[degree] != 0 and not any(diffs[degree + 1:])


def test_q_onerow_small():
    for n in range(10):
        assert q_onerow_at(0, n) == 1
        assert q_onerow_at(1, n) == n
        assert q_onerow_at(2, n) == Fraction(n * n, 2)
        assert q_onerow_at(3, n) == Fraction(n ** 3, 6) + Fraction(n, 12)
    with pytest.raises(ValueError):
        q_onerow_at(-1, 3)


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if i > order:
            break
        for j, y in enumerate(b):
            if i + j > order:
                break
            out[i + j] += x * y
    return out


def test_q_onerow_against_series_oracle():
    # literal expansion of ((1 + t/2)/(1 - t/2))^n with Fraction series
    order = 8
    half_geo = [Fraction(1, 2 ** k) for k in range(order + 1)]  # 1/(1 - t/2)
    numer = [Fraction(1), Fraction(1, 2)] + [Fraction(0)] * (order - 1)
    base = _series_mul(numer, half_geo, order)
    for n in range(7):
        power = [Fraction(1)] + [Fraction(0)] * order
        for _ in range(n):
            power = _series_mul(power, base, order)
        for a in range(order + 1):
            assert q_onerow_at(a, n) == power[a], (a, n)


def test_q_tworow():
    for n in range(10):
        assert q_strict_at((1,), n) == n
        expected = q_onerow_at(2, n) * q_onerow_at(1, n) - 2 * q_onerow_at(3, n)
        assert q_strict_at((2, 1), n) == expected
        assert q_strict_at((2, 1), n) == binom(n + 1, 3)  # (n^3 - n)/6


def test_q_strict():
    for n in range(6):
        assert q_strict_at((), n) == 1
        assert q_strict_at((1,), n) == n
    assert q_strict_at((3, 2, 1), 3) == 1
    with pytest.raises(ValueError):
        q_strict_at((1, 2), 3)
    with pytest.raises(ValueError):
        q_strict_at((2, 0), 3)


def _onerow_series_coeff(a, n):
    """Coefficient of u^a in (1+u)^n (1-u)^(-n), for n >= 1."""
    return sum(binom(n, k) * binom(n - 1 + a - k, n - 1) for k in range(min(a, n) + 1))


def test_q_onerow_at_scaled_is_int():
    for n in range(13):
        for a in range(31):
            scaled = 2 ** a * q_onerow_at(a, n)
            assert scaled.denominator == 1, (a, n)
            if n:
                assert scaled == _onerow_series_coeff(a, n), (a, n)


def test_q_onerow_at_deep_index():
    # bottom-up: no recursion, whatever the index
    value = q_onerow_at(3000, 5)
    assert value * 2 ** 3000 == _onerow_series_coeff(3000, 5)


def test_corrupt_onerow_table_raises():
    # At n = 5, 3*G_3 = 2n*G_2 + G_1 = 520 is not a multiple of 3.
    with pytest.raises(ConsistencyError):
        qschur._tworow_at([1, 10, 51], 5, 0, 3)


def test_q_strict_poly_vs_point():
    # Q_lambda(1/2, ..., 1/2) is a polynomial in n of degree |lambda|:
    # the point values at n = 0..20 lie on one, of exactly that degree.
    shapes = [
        tuple(sorted(parts, reverse=True))
        for r in range(5)
        for parts in itertools.combinations(range(1, 13), r)
        if sum(parts) <= 12
    ]
    for parts in shapes:
        assert _fits_at_degree(lambda n: q_strict_at(parts, n), sum(parts)), parts


def test_b_poly():
    assert b_poly(()) == (1,)
    assert b_poly((0,)) == (0, 1)
    # n^2 / 2 = C(n, 2) + C(n, 1) / 2
    assert b_poly((1,)) == (0, Fraction(1, 2), 1)
    assert b_poly((0, 1)) == binomial(3, shift=1)
    for size in range(4):
        for total in range(9):
            for I in enumerate_indexsets(size, total):
                p = b_poly(I)
                assert len(p) == sum(I) + len(I) + 1, I
                for n in range(21):
                    assert evaluate(p, n) >= 0, (I, n)
                    assert b_value(I, n) == evaluate(p, n), (I, n)


def test_d_poly():
    assert d_poly(()) == (1,)
    assert d_poly((0,)) == (1,)
    assert d_poly((1,)) == (0, Fraction(1, 2))
    # n / 2 on the nodes n = 2t
    assert d_poly((0, 1)) == (0, 1)


def test_d_value_parity():
    assert d_value((0,), 2) == 0
    assert d_value((0,), 3) == 1
    assert d_value((0, 5), 4) == Fraction(45, 8)
    assert d_value((0, 5), 3) == 0
    for n in range(10):
        assert d_value((1,), n) == Fraction(n, 2)
    # no member 0: the point values lie on one polynomial, at every n
    assert _fits_at_degree(lambda n: d_value((1, 3), n), 4)


def test_label_zero_is_the_pad():
    # d_value expands over the labels of I itself, and a label 0 acts as
    # the pad row: adding it keeps the value at one parity of n and
    # zeroes it at the other.
    sets = [I for r in range(5) for I in itertools.combinations(range(1, 11), r)
            if sum(I) <= 10]
    for I in sets:
        # equal as polynomials in n: at sum(I) + 1 nodes of the padded grid
        padded, start = d_poly((0,) + I), (len(I) + 1) % 2
        for t in range(sum(I) + 1):
            assert evaluate(padded, t) == evaluate(d_poly(I), start + 2 * t), (I, t)
        for n in range(13):
            expected = d_value(I, n) if (n - len(I) - 1) % 2 == 0 else 0
            assert d_value((0,) + I, n) == expected, (I, n)


def _shifted_tableau_count(shape, n):
    """Marked shifted tableaux: weak rows/columns, primed strict in rows,
    unprimed strict in columns; entries use codes 2k-1 (primed), 2k."""
    cells = []
    for i, length in enumerate(shape):
        for c in range(i, i + length):
            cells.append((i, c))
    index = {cell: k for k, cell in enumerate(cells)}
    values = list(range(1, 2 * n + 1))
    count = 0
    assignment = [0] * len(cells)

    def ok(k, v):
        i, c = cells[k]
        left = index.get((i, c - 1))
        if left is not None:
            lv = assignment[left]
            if v < lv:
                return False
            if v == lv and v % 2 == 1:
                return False
        top = index.get((i - 1, c))
        if top is not None:
            tv = assignment[top]
            if v < tv:
                return False
            if v == tv and v % 2 == 0:
                return False
        return True

    def rec(k):
        nonlocal count
        if k == len(cells):
            count += 1
            return
        for v in values:
            if ok(k, v):
                assignment[k] = v
                rec(k + 1)
        assignment[k] = 0

    rec(0)
    return count


def test_q_strict_against_tableau_oracle():
    shapes = []
    for r in range(1, 4):
        for parts in itertools.combinations(range(1, 7), r):
            shape = tuple(sorted(parts, reverse=True))
            if sum(shape) <= 6:
                shapes.append(shape)
    assert (2, 1) in shapes and (3, 2, 1) in shapes
    for shape in shapes:
        weight = sum(shape)
        for n in range(6):
            count = _shifted_tableau_count(shape, n)
            assert q_strict_at(shape, n) == Fraction(count, 2 ** weight), (shape, n)


def test_q_onerow_binomial_identity():
    # one-row count identity at n = 1: the single variable 1/2 gives 2^(1-a)...
    # Q_a(1/2) = coefficient of t^a in (1+t/2)/(1-t/2) = 2/2^a for a >= 1
    for a in range(1, 8):
        assert q_onerow_at(a, 1) == Fraction(2, 2 ** a)
    assert q_onerow_at(0, 1) == 1
    # and the degree in n matches the index
    for a in range(8):
        assert _fits_at_degree(lambda n: q_onerow_at(a, n), a), a
    assert binom(3, 2) == 3
