import itertools
from fractions import Fraction

import pytest

from mldeg import qschur
from mldeg.exact import ConsistencyError, N, PolyQ, binom
from mldeg.indexsets import enumerate_indexsets
from mldeg.qschur import (
    b_poly,
    b_value,
    d_poly,
    d_value,
    q_onerow,
    q_onerow_at,
    q_strict,
    q_tworow,
)


def q_strict_at(parts, n):
    """Value of q_strict(parts) at integer n, by the int point route."""
    parts = qschur._check_strict(parts)
    return Fraction(qschur._pf_q_at(sum(1 << p for p in parts), n), 1 << sum(parts))


def test_q_onerow_small():
    assert q_onerow(0) == 1
    assert q_onerow(1) == N
    assert q_onerow(2) == N * N * Fraction(1, 2)
    assert q_onerow(3) == N ** 3 * Fraction(1, 6) + N * Fraction(1, 12)
    with pytest.raises(ValueError):
        q_onerow(-1)


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
            assert q_onerow(a)(n) == power[a], (a, n)
            assert q_onerow_at(a, n) == power[a]


def test_q_tworow():
    assert q_tworow(1, 0) == N
    expected = q_onerow(2) * q_onerow(1) - 2 * q_onerow(3)
    assert q_tworow(2, 1) == expected
    assert q_tworow(2, 1) == PolyQ.binomial(3, shift=1)  # (n^3 - n)/6
    with pytest.raises(ValueError):
        q_tworow(1, 1)
    with pytest.raises(ValueError):
        q_tworow(0, 1)


def test_q_strict():
    assert q_strict(()) == 1
    assert q_strict((1,)) == N
    assert q_strict((2, 1)) == q_tworow(2, 1)
    assert q_strict_at((3, 2, 1), 3) == 1
    with pytest.raises(ValueError):
        q_strict((1, 2))
    with pytest.raises(ValueError):
        q_strict((2, 0))


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


def test_corrupt_onerow_table_raises(monkeypatch):
    monkeypatch.setitem(qschur._onerow_tables, 5, ([1, 3], [0, 1]))
    with pytest.raises(ConsistencyError):
        q_onerow_at(3, 5)


def test_q_strict_poly_vs_point():
    shapes = [
        tuple(sorted(parts, reverse=True))
        for r in range(5)
        for parts in itertools.combinations(range(1, 13), r)
        if sum(parts) <= 12
    ]
    for parts in shapes:
        poly = q_strict(parts)
        for n in range(21):
            assert poly(n) == q_strict_at(parts, n), (parts, n)


def test_b_poly():
    assert b_poly(()) == 1
    assert b_poly((0,)) == N
    assert b_poly((1,)) == N * N * Fraction(1, 2)
    assert b_poly((0, 1)) == PolyQ.binomial(3, shift=1)
    for size in range(4):
        for total in range(9):
            for I in enumerate_indexsets(size, total):
                p = b_poly(I)
                assert p.degree == sum(I) + len(I), I
                for n in range(21):
                    assert p(n) >= 0, (I, n)
                for n in range(6):
                    assert b_value(I, n) == p(n)


def test_d_poly():
    assert d_poly(()) == 1
    assert d_poly((0,)) == 1
    assert d_poly((1,)) == N * Fraction(1, 2)
    assert d_poly((0, 1)) == N * Fraction(1, 2)


def test_d_value_parity():
    assert d_value((0,), 2) == 0
    assert d_value((0,), 3) == 1
    assert d_value((0, 5), 4) == Fraction(45, 8)
    assert d_value((0, 5), 3) == 0
    for n in range(10):
        assert d_value((1,), n) == Fraction(n, 2)
        # no member 0: point value equals the polynomial at every n
        assert d_value((1, 3), n) == d_poly((1, 3))(n)


def test_label_zero_is_the_pad():
    # d_value and d_poly expand over the labels of I itself, and a label
    # 0 acts as the pad row: adding it keeps the value at one parity of n
    # and zeroes it at the other.
    sets = [I for r in range(5) for I in itertools.combinations(range(1, 11), r)
            if sum(I) <= 10]
    for I in sets:
        assert d_poly((0,) + I) == d_poly(I), I
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
        assert q_onerow(a)(1) == Fraction(2, 2 ** a)
    assert q_onerow(0)(1) == 1
    # and the degree matches the index
    for a in range(8):
        assert q_onerow(a).degree == a
    assert binom(3, 2) == 3
