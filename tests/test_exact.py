import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mldeg.exact import N, PolyQ, binom, det, format_fraction, pfaffian


def test_binom_values():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(7, 0) == 1
    assert binom(4, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_det_small():
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det([[1, 2], [3, 4]]) == -2
    # binomial minor rows C(0,*), C(3,*) against columns 0,1
    assert det([[binom(0, 0), binom(0, 1)], [binom(3, 0), binom(3, 1)]]) == 3
    assert det([]) == 1


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_det_rejects_non_int_entries():
    for m in ([[Fraction(1, 2), 1], [1, 1]], [[N, PolyQ((1,))], [PolyQ((1,)), N]]):
        with pytest.raises(TypeError):
            det(m)


def test_pfaffian_small():
    a = PolyQ((0, 1))
    assert pfaffian([[0, a], [-a, 0]]) == a
    assert pfaffian([]) == 1
    vals = {}
    rng = random.Random(7)
    for key in ["12", "13", "14", "23", "24", "34"]:
        vals[key] = rng.randint(-9, 9)
    m = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            m[i][j] = vals[f"{i + 1}{j + 1}"]
            m[j][i] = -m[i][j]
    expected = vals["12"] * vals["34"] - vals["13"] * vals["24"] + vals["14"] * vals["23"]
    assert pfaffian(m) == expected


def test_pfaffian_structure_errors():
    with pytest.raises(ValueError):
        pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        pfaffian([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        pfaffian([[1, 1], [-1, 0]])


def _random_skew(rng, n, lo=-20, hi=20):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rng.randint(lo, hi)
            m[j][i] = -m[i][j]
    return m


@given(st.integers(min_value=1, max_value=4), st.integers())
@settings(max_examples=60)
def test_pfaffian_squares_to_det(half, seed):
    rng = random.Random(seed)
    m = _random_skew(rng, 2 * half)
    assert pfaffian(m) ** 2 == det(m)


def test_pfaffian_elimination_route_matches_expansion():
    rng = random.Random(3)
    m = _random_skew(rng, 12, -5, 5)
    from mldeg.exact import _pf_elimination, _pf_expansion

    assert _pf_elimination(m) == _pf_expansion(m)
    big = _random_skew(rng, 14, -3, 3)
    assert pfaffian(big) == _pf_expansion(big)


@given(st.integers(), st.integers(min_value=2, max_value=4))
@settings(max_examples=40)
def test_det_multiplicative(seed, n):
    rng = random.Random(seed)
    a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    b = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert det(ab) == det(a) * det(b)


small_polys = st.lists(
    st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=0, max_size=5
).map(PolyQ)


@given(small_polys, small_polys, st.integers(min_value=-8, max_value=8))
@settings(max_examples=80)
def test_polyq_eval_is_ring_hom(p, q, k):
    assert (p * q)(k) == p(k) * q(k)
    assert (p + q)(k) == p(k) + q(k)
    assert (p - q)(k) == p(k) - q(k)


@given(small_polys, st.integers(min_value=-5, max_value=5), st.integers(min_value=-8, max_value=8))
@settings(max_examples=60)
def test_polyq_shift_arg(p, c, k):
    assert p.shift_arg(c)(k) == p(k + c)


def test_polyq_binomial_matches_binom():
    for k in range(6):
        for shift in (-2, 0, 1, 3):
            p = PolyQ.binomial(k, shift)
            assert p.degree == k
            for n in range(max(0, -shift), 9):
                assert p(n) == binom(n + shift, k)


def test_polyq_basics():
    z = PolyQ()
    assert not z
    assert z == 0
    assert z.degree == -1
    p = PolyQ((3,))
    assert p == 3
    assert hash(p) == hash(Fraction(3))
    q = PolyQ((1, 2, 0, 0))
    assert q.coeffs == (Fraction(1), Fraction(2))
    assert q.degree == 1
    assert (N ** 3)(2) == 8
    assert 1 - N == PolyQ((1, -1))
    assert (2 * N + 1)(Fraction(1, 2)) == 2
    with pytest.raises(AttributeError):
        q.coeffs = ()


def test_format_fraction():
    assert format_fraction(Fraction(3, 1)) == "3"
    assert format_fraction(Fraction(-7, 2)) == "-7/2"
    assert format_fraction(5) == "5"
    assert format_fraction(Fraction(2, 4)) == "1/2"


def test_polyq_factorial_scaling():
    # n(n-1)(n-2)/6 = C(n,3)
    p = N * (N - 1) * (N - 2) * Fraction(1, math.factorial(3))
    assert p == PolyQ.binomial(3)
