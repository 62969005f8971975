"""Fast paths for the coefficient families.

Four independent routes exist for the symmetric-pair coefficients
(Pfaffian of pairs, sum of Pascal minors, recursion, and the Schur
oracle in schur_oracle.py); the suite insists they agree.  The same
pattern covers the off-diagonal family, the two-set square-case
entries, and the binomial-minor change-of-basis coefficients.
"""

from __future__ import annotations

import itertools

from .exact import binom, det, pfaffian
from .indexsets import check_indexset, complement

_psi_memo = {}
_psi_rec_memo = {}
_psi_comp_memo = {}
_alpha_memo = {}
_sij_memo = {}
_da_memo = {}
_da_rec_memo = {}


def psi_single(i):
    return 1 << i


def psi_pair(i, j):
    """Two-element value: sum of the middle binomials of row i+j."""
    assert 0 <= i < j
    return sum(binom(i + j, k) for k in range(i + 1, j + 1))


def psi(I):
    """Pfaffian route; odd sizes get a front pad row of singleton values."""
    I = check_indexset(I)
    if I in _psi_memo:
        return _psi_memo[I]
    r = len(I)
    if r == 0:
        result = 1
    elif r == 1:
        result = psi_single(I[0])
    elif r == 2:
        result = psi_pair(I[0], I[1])
    else:
        if r % 2:
            labels = (None,) + I
        else:
            labels = I
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
        result = pfaffian(rows)
    _psi_memo[I] = result
    return result


def s_ij(I, J):
    """Minor of the Pascal triangle: det of C(i_k, j_l)."""
    I = check_indexset(I)
    J = check_indexset(J)
    assert len(I) == len(J), "s_ij: size mismatch"
    key = (I, J)
    if key in _sij_memo:
        return _sij_memo[key]
    result = det([[binom(i, j) for j in J] for i in I])
    _sij_memo[key] = result
    return result


def _lower_sets(I):
    """All strictly increasing J with J[k] <= I[k] componentwise."""
    def rec(prefix, k, lo):
        if k == len(I):
            yield prefix
            return
        for v in range(lo, I[k] + 1):
            yield from rec(prefix + (v,), k + 1, v + 1)

    yield from rec((), 0, 0)


def psi_pascal(I):
    """Pascal-minor route: total of all minors with upper set I."""
    I = check_indexset(I)
    return sum(s_ij(I, J) for J in _lower_sets(I))


def _boxes(K):
    """Box decrements: one choice from each consecutive gap of K."""
    return itertools.product(*(range(K[l - 1], K[l]) for l in range(1, len(K))))


def psi_recursion(I):
    """Recursive route: box sums when 0 is present, lifting otherwise."""
    I = check_indexset(I)
    if I in _psi_rec_memo:
        return _psi_rec_memo[I]
    r = len(I)
    if r == 0:
        result = 1
    elif I[0] == 0:
        result = sum(psi_recursion(B) for B in _boxes(I))
    else:
        lifted = (0,) + I
        result = (r + 1) * psi_recursion(lifted)
        prev = 0
        for pos in range(r):
            if I[pos] - 1 > prev:
                dec = lifted[: pos + 1] + (I[pos] - 1,) + I[pos + 1:]
                result -= 2 * psi_recursion(dec)
            prev = I[pos]
    _psi_rec_memo[I] = result
    return result


def psi_complement(I, n, route="auto"):
    """Value at [n] minus I without enumerating the complement's pairs.

    route 'direct' computes psi(complement); route 'pairs' uses the
    complement Pfaffian over pairs drawn from I itself, which wins when
    the complement is much larger than I.  'auto' picks and memoizes.
    """
    I = check_indexset(I)
    if not set(I).issubset(range(n)):
        return 0
    if route == "auto":
        key = (I, n)
        if key in _psi_comp_memo:
            return _psi_comp_memo[key]
        chosen = "pairs" if n - len(I) > len(I) + 2 else "direct"
        result = psi_complement(I, n, chosen)
        _psi_comp_memo[key] = result
        return result
    if route == "direct":
        return psi(complement(I, n))
    assert route == "pairs"
    r = len(I)
    if r == 0:
        return psi(tuple(range(n)))
    if r % 2:
        labels = (None,) + I
    else:
        labels = I
    m = len(labels)
    rows = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            if labels[a] is None:
                v = psi(complement((labels[b],), n))
            else:
                v = psi(complement((labels[a], labels[b]), n))
            rows[a][b] = v
            rows[b][a] = -v
    return pfaffian(rows)


def alpha(I):
    """Off-diagonal family: box sums at 0, parity elsewhere."""
    I = check_indexset(I)
    if I in _alpha_memo:
        return _alpha_memo[I]
    r = len(I)
    if r == 0:
        result = 1
    elif I[0] == 0:
        result = sum(alpha(B) for B in _boxes(I))
    elif r % 2:
        result = 0
    else:
        result = alpha((0,) + I)
    _alpha_memo[I] = result
    return result


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
    key = (I, J)
    if key in _da_memo:
        return _da_memo[key]
    r, s = len(I), len(J)
    if r == s:
        result = det([[binom(i + j, i) for j in J] for i in I])
    else:
        t = s - r
        if J[:t] != tuple(range(t)):
            result = 0
        else:
            jj = tuple(x - t for x in J[t:])
            result = det([[binom(t + i + j, i) for j in jj] for i in I])
    _da_memo[key] = result
    return result


def d_a_recursion(I, J):
    """Recursive route for equal-size square-case entries."""
    I = check_indexset(I)
    J = check_indexset(J)
    assert len(I) == len(J), "d_a_recursion: size mismatch"
    key = (I, J)
    if key in _da_rec_memo:
        return _da_rec_memo[key]
    s = len(I)
    if s == 0:
        result = 1
    elif I[0] == 0 or J[0] == 0:
        result = 0
        for IB in _boxes(I):
            for JB in _boxes(J):
                result += d_a_recursion(IB, JB)
    else:
        lifted_i = (0,) + I
        lifted_j = (0,) + J
        result = (s + 1) * d_a_recursion(lifted_i, lifted_j)
        for pos in range(s):
            dec = I[pos] - 1
            if dec > lifted_i[pos]:
                left = lifted_i[: pos + 1] + (dec,) + I[pos + 1:]
                result -= d_a_recursion(left, lifted_j)
        for pos in range(s):
            dec = J[pos] - 1
            if dec > lifted_j[pos]:
                right = lifted_j[: pos + 1] + (dec,) + J[pos + 1:]
                result -= d_a_recursion(lifted_i, right)
    _da_rec_memo[key] = result
    return result


def d_a_complement(I, J, n):
    """Entry at the complements in [n]; zero if either set pokes out."""
    I = check_indexset(I)
    J = check_indexset(J)
    if not set(I).issubset(range(n)) or not set(J).issubset(range(n)):
        return 0
    return d_a(complement(I, n), complement(J, n))
