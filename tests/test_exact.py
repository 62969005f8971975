import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mldeg.exact import (
    ConsistencyError,
    _pair_matrix,
    binom,
    det,
    pfaffian,
    pfaffian_table,
)


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
    # No type check: on exact non-int entries the elimination either
    # divides exactly, and its value is right, or leaves a remainder and
    # raises.  It never returns a wrong value.
    half = Fraction(1, 2)
    with pytest.raises(ConsistencyError):
        det([[half, 1], [1, 1]])
    assert det([[half, 0], [0, 2]]) == 1


def test_pfaffian_small():
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


def test_pfaffian_rejects_non_int_entries():
    # As for det: a remainder raises, an exact division gives the value.
    half = Fraction(1, 2)
    with pytest.raises(ConsistencyError):
        pfaffian([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, half], [0, 0, -half, 0]])
    assert pfaffian([[0, half], [-half, 0]]) == half


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


def _matchings(idx):
    if not idx:
        yield ()
        return
    first, rest = idx[0], idx[1:]
    for t, j in enumerate(rest):
        for tail in _matchings(rest[:t] + rest[t + 1:]):
            yield ((first, j),) + tail


def _pfaffian_by_matchings(m):
    """Sum over perfect matchings, each signed by its number of crossings."""
    total = 0
    for matching in _matchings(tuple(range(len(m)))):
        crossings = sum(a < c < b < d or c < a < d < b
                        for (a, b), (c, d) in itertools.combinations(matching, 2))
        term = (-1) ** crossings
        for a, b in matching:
            term *= m[a][b]
        total += term
    return total


def test_pfaffian_matches_matching_sum():
    # Entries in -2..2 leave zero pivots, so the row swaps are exercised.
    rng = random.Random(3)
    for n in (0, 2, 4, 6, 8, 10, 12):
        m = _random_skew(rng, n, -2, 2)
        assert pfaffian(m) == _pfaffian_by_matchings(m), n


@pytest.mark.parametrize("seed", range(4))
def test_pfaffian_table_matches_elimination(seed):
    # Random int entries, a third of them zero, on 12 labels.  A second
    # table on the same labels, with entries of its own, is read in turn
    # with the first: each keeps its own values, though both key their
    # Pfaffians by the same bitmasks.
    rng = random.Random(seed)

    def entry(rng):
        return rng.choice((0, rng.randint(-9, 9), rng.randint(-9, 9)))

    def entries(rng):
        singles = {i: entry(rng) for i in range(12)}
        pairs = {ij: entry(rng) for ij in itertools.combinations(range(12), 2)}
        return singles, pairs, singles.__getitem__, lambda i, j: pairs[i, j]

    singles, pairs, single, pair = entries(rng)
    _, _, other_single, other_pair = entries(random.Random(seed + 100))
    pf = pfaffian_table(single, pair)
    other = pfaffian_table(other_single, other_pair)
    assert pf(0) == other(0) == 1
    for size in range(1, 11):
        for S in rng.sample(list(itertools.combinations(range(12), size)), 12):
            mask = sum(1 << i for i in S)
            assert pf(mask) == pfaffian(_pair_matrix(mask, single, pair)), S
            assert other(mask) == pfaffian(_pair_matrix(mask, other_single, other_pair)), S
    # Written out: pad row first for an odd set.
    a, b, c, d = 1, 4, 6, 9
    even = pairs[a, b] * pairs[c, d] - pairs[a, c] * pairs[b, d] + pairs[a, d] * pairs[b, c]
    odd = singles[a] * pairs[b, c] - singles[b] * pairs[a, c] + singles[c] * pairs[a, b]
    assert pf(sum(1 << i for i in (a, b, c, d))) == even
    assert pf(sum(1 << i for i in (a, b, c))) == odd


def _padded_skew(rng, n):
    """A random skew matrix on a pad row and n labels, a third of its
    entries zero, with the single and pair entries a table reads from
    it: row 0 is the pad, row i + 1 label i."""
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for a, b in itertools.combinations(range(n + 1), 2):
        rows[a][b] = rng.choice((0, rng.randint(-9, 9), rng.randint(-9, 9)))
        rows[b][a] = -rows[a][b]
    return rows, lambda j: rows[0][j + 1], lambda i, j: rows[i + 1][j + 1]


def _subpfaffian(rows, S):
    """Pfaffian of rows on the labels of S, with the pad for odd S."""
    index = ([0] if len(S) % 2 else []) + [i + 1 for i in S]
    return pfaffian([[rows[a][b] for b in index] for a in index])


@pytest.mark.parametrize("n", (8, 9))
def test_pfaffian_table_on_random_skew_matrices(n, monkeypatch):
    # Every subset of n labels, odd and even sizes, against elimination
    # on the matrix itself.  With the expansion cap at 3 the sets above
    # it eliminate too, and only those sets enter the memo.
    from mldeg import exact

    rng = random.Random(n)
    rows, single, pair = _padded_skew(rng, n)
    subsets = [S for r in range(n + 1) for S in itertools.combinations(range(n), r)]
    expected = {S: _subpfaffian(rows, S) for S in subsets}
    assert any(value == 0 for value in expected.values())
    pf = pfaffian_table(single, pair)
    for S in subsets:
        assert pf(sum(1 << i for i in S)) == expected[S], S
    monkeypatch.setattr(exact, "_EXPANSION_MAX", 3)
    pf = pfaffian_table(single, pair)
    large = [S for S in subsets if len(S) > 3]
    for S in large:
        assert pf(sum(1 << i for i in S)) == expected[S], S
    assert len(pf.memo) == len(large)
    pf.cache_clear()
    assert not pf.memo


def test_inexact_division_raises():
    # Bareiss divides exactly only on integer matrices
    with pytest.raises(ConsistencyError):
        det([[Fraction(1, 2), 1], [1, 1]])
    # and the Pfaffian elimination likewise: a half entry leaves a remainder
    half = Fraction(1, 2)
    with pytest.raises(ConsistencyError):
        pfaffian([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, half], [0, 0, -half, 0]])


@given(st.integers(), st.integers(min_value=2, max_value=4))
@settings(max_examples=40)
def test_det_multiplicative(seed, n):
    rng = random.Random(seed)
    a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    b = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert det(ab) == det(a) * det(b)

