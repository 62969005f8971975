"""Fast paths for the coefficient families.

Four independent routes exist for the symmetric-pair coefficients
(Pfaffian of pairs, sum of Pascal minors, recursion, and the Schur
oracle in schur_oracle.py); the suite insists they agree.  The same
pattern covers the off-diagonal family, the two-set square-case
entries, and the binomial-minor change-of-basis coefficients.
"""

from __future__ import annotations

import functools
import itertools

from .exact import binom, det, pfaffian
from .indexsets import check_indexset, check_same_size, complement, lower_sets

# The first-row expansion of a set of size s visits about 1.618**s
# sub-sets; above this size psi eliminates the pair matrix instead.
_EXPANSION_MAX = 20


def psi_single(i):
    return 1 << i


@functools.cache
def psi_pair(i, j):
    """Two-element value: sum of the middle binomials of row i+j."""
    if not 0 <= i < j:
        raise ValueError(f"psi_pair: need 0 <= i < j, got ({i}, {j})")
    return sum(binom(i + j, k) for k in range(i + 1, j + 1))


def psi(I):
    """Pfaffian route; odd sizes get a front pad row of singleton values.

    The Pfaffian is expanded along its first row, and the sub-Pfaffians
    are cached by the bitmask of their set, so every set of a sweep
    shares them.
    """
    return _pf(sum(1 << i for i in check_indexset(I)))


def _members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@functools.cache
def _pf(mask):
    """Pfaffian of the pair matrix on the set whose bitmask is mask.

    An even set expands along its first row, pf(S) = sum over t of
    (-1)^t psi_pair(min S, s_t) pf(S minus {min S, s_t}); an odd set
    expands along the pad row, whose entries are the singleton values.
    Sets above _EXPANSION_MAX elements eliminate the matrix instead.
    """
    members = _members(mask)
    if len(members) > _EXPANSION_MAX:
        return pfaffian(_pair_matrix(tuple(members)))
    if not members:
        return 1
    if len(members) % 2:
        row = [(psi_single(i), mask ^ (1 << i)) for i in members]
    else:
        low = members[0]
        rest = mask ^ (1 << low)
        row = [(psi_pair(low, j), rest ^ (1 << j)) for j in members[1:]]
    result = 0
    for t, (entry, sub) in enumerate(row):
        result += -entry * _pf(sub) if t % 2 else entry * _pf(sub)
    return result


def _pair_matrix(I):
    labels = (None,) + I if len(I) % 2 else I
    m = len(labels)
    rows = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            if labels[a] is None:
                v = psi_single(labels[b])
            else:
                v = psi_pair(labels[a], labels[b])
            rows[a][b] = v
            rows[b][a] = -v
    return rows


def s_ij(I, J):
    """Minor of the Pascal triangle: det of C(i_k, j_l)."""
    return _s_ij(*check_same_size(I, J, "s_ij"))


@functools.cache
def _s_ij(I, J):
    return det([[binom(i, j) for j in J] for i in I])


def psi_pascal(I):
    """Pascal-minor route: total of all minors with upper set I."""
    I = check_indexset(I)
    return sum(s_ij(I, J) for J in lower_sets(I))


def _boxes(K):
    """Box decrements: one choice from each consecutive gap of K."""
    return itertools.product(*(range(K[l - 1], K[l]) for l in range(1, len(K))))


def psi_recursion(I):
    """Recursive route: box sums when 0 is present, lifting otherwise."""
    return _psi_recursion(check_indexset(I))


@functools.cache
def _psi_recursion(I):
    r = len(I)
    if r == 0:
        result = 1
    elif I[0] == 0:
        result = sum(_psi_recursion(B) for B in _boxes(I))
    else:
        lifted = (0,) + I
        result = (r + 1) * _psi_recursion(lifted)
        prev = 0
        for pos in range(r):
            if I[pos] - 1 > prev:
                dec = lifted[: pos + 1] + (I[pos] - 1,) + I[pos + 1:]
                result -= 2 * _psi_recursion(dec)
            prev = I[pos]
    return result


def psi_complement(I, n):
    """Value at [n] minus I; zero when I does not sit inside [n]."""
    I = check_indexset(I)
    if not set(I).issubset(range(n)):
        return 0
    return psi(complement(I, n))


def alpha(I):
    """Off-diagonal family: box sums at 0, parity elsewhere."""
    return _alpha(check_indexset(I))


@functools.cache
def _alpha(I):
    r = len(I)
    if r == 0:
        return 1
    if I[0] == 0:
        return sum(_alpha(B) for B in _boxes(I))
    if r % 2:
        return 0
    return _alpha((0,) + I)


def alpha_complement(I, k):
    """Value at [k] minus I; zero when I does not sit inside [k]."""
    I = check_indexset(I)
    if not set(I).issubset(range(k)):
        return 0
    return alpha(complement(I, k))


def d_a(I, J):
    """Square-case entries as determinants of shifted Pascal minors.

    Equal sizes use the binomial matrix directly.  When the sizes
    differ, the smaller set forces an initial segment in the larger one
    and the remainder drops to a shifted equal-size determinant.
    """
    I = check_indexset(I)
    J = check_indexset(J)
    if len(I) > len(J):
        I, J = J, I
    return _d_a(I, J)


@functools.cache
def _d_a(I, J):
    t = len(J) - len(I)
    if J[:t] != tuple(range(t)):
        return 0
    jj = tuple(x - t for x in J[t:])
    return det([[binom(t + i + j, i) for j in jj] for i in I])


def d_a_recursion(I, J):
    """Recursive route for equal-size square-case entries."""
    I = check_indexset(I)
    J = check_indexset(J)
    if len(I) != len(J):
        raise ValueError(f"d_a_recursion: size mismatch {I}, {J}")
    return _d_a_recursion(I, J)


@functools.cache
def _d_a_recursion(I, J):
    s = len(I)
    if s == 0:
        result = 1
    elif I[0] == 0 or J[0] == 0:
        result = 0
        for IB in _boxes(I):
            for JB in _boxes(J):
                result += _d_a_recursion(IB, JB)
    else:
        lifted_i = (0,) + I
        lifted_j = (0,) + J
        result = (s + 1) * _d_a_recursion(lifted_i, lifted_j)
        for pos in range(s):
            dec = I[pos] - 1
            if dec > lifted_i[pos]:
                left = lifted_i[: pos + 1] + (dec,) + I[pos + 1:]
                result -= _d_a_recursion(left, lifted_j)
        for pos in range(s):
            dec = J[pos] - 1
            if dec > lifted_j[pos]:
                right = lifted_j[: pos + 1] + (dec,) + J[pos + 1:]
                result -= _d_a_recursion(lifted_i, right)
    return result


def d_a_complement(I, J, n):
    """Entry at the complements in [n]; zero if either set pokes out."""
    I = check_indexset(I)
    J = check_indexset(J)
    if not set(I).issubset(range(n)) or not set(J).issubset(range(n)):
        return 0
    return d_a(complement(I, n), complement(J, n))
