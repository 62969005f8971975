"""Fast paths for the coefficient families.

Four independent routes exist for the symmetric-pair coefficients
(Pfaffian of pairs, sum of Pascal minors, recursion, and the Schur
oracle in schur_oracle.py); the suite insists they agree.  The same
pattern covers the off-diagonal family, the two-set square-case
entries, and the binomial-minor change-of-basis coefficients.  The
symmetric and off-diagonal families are Pfaffians of their pair
values, and every complement at [n] is a minor over the sets' own
labels, so its size does not grow with n.  The Pfaffians are
exact.pfaffian_table tables keyed by the bitmask of their set: one for
psi, one for alpha, and one per n for each complement, from a cached
factory.  The square-case minors d_a are exact.det of their binomial
matrix, uncached.
"""

from __future__ import annotations

import functools
import itertools
import math

from .exact import binom, det, pfaffian_table
from .indexsets import check_indexset, check_same_size, lower_sets, mask


def psi_single(i):
    return 1 << i


def psi_pair(i, j):
    """Two-element value: sum of the middle binomials of row i+j.

    Each binomial C(i+j, k+1) = C(i+j, k) (i+j-k) / (k+1) comes from the
    one before it, so a wide gap costs no math.comb per term.
    """
    if not 0 <= i < j:
        raise ValueError(f"psi_pair: need 0 <= i < j, got ({i}, {j})")
    top = i + j
    term = total = math.comb(top, i + 1)
    for k in range(i + 1, j):
        term = term * (top - k) // (k + 1)
        total += term
    return total


def psi(I):
    """Pfaffian route; odd sizes get a front pad row of singleton values.

    The table _pf expands it along the row of the highest label, and
    keeps the sub-Pfaffians by the bitmask of their set, so every set of
    a sweep shares them.
    """
    return _pf(mask(check_indexset(I)))


_pf = pfaffian_table(psi_single, psi_pair)


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
    return _lift_recursion((check_indexset(I),), 2)


@functools.cache
def _lift_recursion(sets, weight):
    """Lift-and-box recursion over a tuple of equal-size index sets.

    If any set holds 0, the value is the sum over every choice of one
    box decrement per set.  Otherwise every set is lifted by 0, and each one-entry
    decrement of each set, taken beside the other sets lifted, is
    subtracted with the given weight.  Boxes and decrements run in
    ascending order, so the cache fills from the bottom and the stack
    stays shallow.
    """
    r = len(sets[0])
    if r == 0:
        return 1
    if any(S[0] == 0 for S in sets):
        return sum(_lift_recursion(B, weight)
                   for B in itertools.product(*map(_boxes, sets)))
    lifted = tuple((0,) + S for S in sets)
    result = (r + 1) * _lift_recursion(lifted, weight)
    for k, S in enumerate(sets):
        for pos in range(r):
            if S[pos] - 1 > lifted[k][pos]:
                dec = lifted[k][: pos + 1] + (S[pos] - 1,) + S[pos + 1:]
                result -= weight * _lift_recursion(lifted[:k] + (dec,) + lifted[k + 1:],
                                                   weight)
    return result


def psi_complement(I, n):
    """Value at [n] minus I; zero when I does not sit inside [n].

    Laksov-Lascoux-Thorup: the value is the Pfaffian, over the labels of
    I (padded when odd), of the complement values of its pairs and
    singletons, so its cost depends on |I| and not on n.  Those entries
    have closed forms.  The pair matrix M of [n] (padded when n is odd)
    is P Omega P^T, where P is the Pascal matrix C(a, b) and Omega the
    skew matrix with 1 everywhere above the diagonal; so Pf(M) = 1 and
    M^-1 = D P^T Omega P D with D = diag((-1)^a).  By Pfaffian-Jacobi
    the complement values of pairs are entries of that inverse, up to
    sign, and the hockey-stick identity sums them to
    _psi_pair_complement.  The sub-Pfaffians are kept in the table of
    n, by the bitmask of their set.
    """
    return _complement_pf("psi_complement", _psi_complement_table, I, n)


def _complement_pf(label, table, I, n):
    """table(n) at the bitmask of I, or 0 when I does not sit inside
    [n]: the body of psi_complement and alpha_complement."""
    I = check_indexset(I)
    if n < 0:
        raise ValueError(f"{label}: need n >= 0, got {n}")
    if I and I[-1] >= n:
        return 0
    return table(n)(mask(I))


@functools.cache
def _psi_complement_table(n):
    return pfaffian_table(functools.partial(_psi_single_complement, n),
                          functools.partial(_psi_pair_complement, n))


def _psi_single_complement(n, i):
    """psi_complement((i,), n) = C(n, i+1) for i < n."""
    return math.comb(n, i + 1)


def _psi_pair_complement(n, i, j):
    """psi_complement((i, j), n) for i < j < n, in closed form.

    It is the hockey-stick sum over w in [j, n) of
    C(w, j) (C(w, i+1) + C(w+1, i+1)), less C(n, i+1) C(n, j+1); as
    C(w+1, i+1) = C(w, i+1) + C(w, i), the sum is two square pair
    entries, each O(i).
    """
    return (2 * _d_a_pair_complement(i + 1, j, n) + _d_a_pair_complement(i, j, n)
            - math.comb(n, i + 1) * math.comb(n, j + 1))


@functools.cache
def _d_a_pair_complement(i, j, n):
    """d_a_complement((i,), (j,), n) = sum over k < n of C(k, i) C(k, j).

    For i <= j, C(k, i) C(k, j) = sum over m of C(m, i) C(i, m-j) C(k, m),
    and the hockey stick sums C(k, m) over k < n to C(n, m+1).
    """
    i, j = min(i, j), max(i, j)
    comb = math.comb
    return sum(comb(m, i) * comb(i, m - j) * comb(n, m + 1) for m in range(j, i + j + 1))


def alpha(I):
    """Pfaffian route, as for psi: the pair values are _alpha_pair and an
    odd set's pad row is [i == 0], so an odd set without 0 gives 0."""
    return _pf_alpha(mask(check_indexset(I)))


def _alpha_single(i):
    """alpha((i,)): 1 for i = 0, else 0."""
    return int(i == 0)


def _alpha_pair(i, j):
    """alpha((i, j)) = C(i+j-2, i) - C(i+j-2, j), and 1 when i = 0."""
    if i == 0:
        return 1
    return math.comb(i + j - 2, i) - math.comb(i + j - 2, j)


_pf_alpha = pfaffian_table(_alpha_single, _alpha_pair)


def alpha_recursion(I):
    """Recursive route: box sums at 0, parity elsewhere."""
    return _alpha_recursion(check_indexset(I))


@functools.cache
def _alpha_recursion(I):
    r = len(I)
    if r == 0:
        return 1
    if I[0] == 0:
        return sum(_alpha_recursion(B) for B in _boxes(I))
    if r % 2:
        return 0
    return _alpha_recursion((0,) + I)


def alpha_complement(I, k):
    """Value at [k] minus I; zero when I does not sit inside [k].

    As for psi_complement, the value is the Pfaffian, over the labels of
    I (padded when odd), of the complement values of its singletons and
    pairs.  By Vandermonde the pair matrix of alpha on the labels 1..k-1
    is P S P^T, with P = [C(i-1, a)] and S the skew matrix with ones just
    above the diagonal.  Pfaffian-Jacobi turns P^-1 = [(-1)^(a-i+1)
    C(a, i-1)] and S^-1 (-1 at every even a < odd b) into the sums of
    _alpha_pair_complement.  Label 0 drops out along the pad row for odd
    k; for even k it adds the row (-1)^a to P and the boundary terms.
    The sub-Pfaffians are kept in the table of k, by the bitmask of
    their set.
    """
    return _complement_pf("alpha_complement", _alpha_complement_table, I, k)


@functools.cache
def _alpha_complement_table(k):
    return pfaffian_table(functools.partial(_alpha_single_complement, k),
                          functools.partial(_alpha_pair_complement, k))


def _alpha_single_complement(k, i):
    """alpha_complement((i,), k): k mod 2 for i = 0, and otherwise the
    sum of C(w, i-1) over w < k-1 with w = k mod 2."""
    if i == 0:
        return k % 2
    comb = math.comb
    return sum(comb(w, i - 1) for w in range(k % 2, k - 1, 2))


def _alpha_pair_complement(k, i, j):
    """alpha_complement((i, j), k) for i < j < k, in one pass over w < k.

    A pair (0, j) has the singleton value of j for even k and 0 for odd
    k.  Otherwise the value is the sum over even a < odd b below
    2 * ((k-1) // 2) of C(a, i-1) C(b, j-1) - C(b, i-1) C(a, j-1), plus,
    for even k, the boundary terms C(k-1, i) s(j) - C(k-1, j) s(i) of
    label 0, s the singleton values at k.
    """
    if i == 0:
        return 0 if k % 2 else _alpha_single_complement(k, j)
    comb = math.comb
    total = even_i = even_j = 0
    for w in range(i - 1, 2 * ((k - 1) // 2)):
        if w % 2:
            total += even_i * comb(w, j - 1) - even_j * comb(w, i - 1)
        else:
            even_i += comb(w, i - 1)
            even_j += comb(w, j - 1)
    if k % 2 == 0:
        total += (comb(k - 1, i) * _alpha_single_complement(k, j)
                  - comb(k - 1, j) * _alpha_single_complement(k, i))
    return total


def d_a(I, J):
    """Square-case entries: det of C(i+j, i) over I x J.

    When the sizes differ by t, the value is zero unless the larger set
    starts with the segment [t] = {0, ..., t-1}, its entry t-1 being
    t-1, and then it is the equal-size determinant without that segment.
    """
    I = check_indexset(I)
    J = check_indexset(J)
    if len(I) > len(J):
        I, J = J, I
    t = len(J) - len(I)
    if t and J[t - 1] != t - 1:
        return 0
    return det([[math.comb(i + j, i) for j in J[t:]] for i in I])


def d_a_recursion(I, J):
    """Recursive route for equal-size square-case entries."""
    return _lift_recursion(check_same_size(I, J, "d_a_recursion"), 1)


def d_a_complement(I, J, n):
    """Entry at the complements in [n]; zero if either set pokes out.

    Jacobi: B = [C(a+b, a)] on [n] is L L^T, L the Pascal matrix, so
    det B = 1 and a complementary minor of B is a minor of
    B^-1 = D L^T L D, D = diag((-1)^a), whose signs cancel Jacobi's.
    So for equal sizes the value is det[_d_a_pair_complement(i, j, n)]
    over I x J, at a cost that does not grow with n.  By the segment
    rule of d_a, a set t smaller is padded with [t]; if it meets [t],
    the repeated row makes the value 0.
    """
    I = check_indexset(I)
    J = check_indexset(J)
    if n < 0:
        raise ValueError(f"d_a_complement: need n >= 0, got {n}")
    if I and I[-1] >= n or J and J[-1] >= n:
        return 0
    if len(I) > len(J):
        I, J = J, I
    I = tuple(range(len(J) - len(I))) + I
    return det([[_d_a_pair_complement(i, j, n) for j in J] for i in I])
