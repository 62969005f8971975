"""Reference code that only the tests call.

The library keeps what it, the CLI or the benchmark calls; what the
tests compare it against lives here.  The name has no test_ prefix, so
pytest does not collect it; its default import mode puts this
directory on sys.path, so the test modules import it as `references`.
"""

import functools
import itertools
import math
from collections import defaultdict

from mldeg.degrees import a_value, canonical_type, delta_direct_info
from mldeg.exact import binom
from mldeg.indexsets import check_indexset, check_same_size, lower_sets
from mldeg.poly_n import _fit
from mldeg.schur_oracle import alternant_terms, check_symmetric


def binomial(k, shift=0):
    """The fit of n -> C(n + shift, k), shift >= 0, on the grid of every
    n, by Vandermonde: C(n + s, k) = sum over j of C(s, k - j) C(n, j)."""
    return tuple(math.comb(shift, k - j) for j in range(k + 1))


# ------------------------------------------------------------ partitions

def lambda_of(I):
    """Partition of I: subtract the staircase, largest part first.

    Length equals #I; trailing zeros are kept so the size information
    round-trips through index_of.
    """
    I = check_indexset(I)
    r = len(I)
    return tuple(I[r - 1 - k] - (r - 1 - k) for k in range(r))


def index_of(lam):
    """Inverse of lambda_of; the partition length (zeros included) sets the size."""
    lam = tuple(lam)
    r = len(lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or (r and lam[-1] < 0):
        raise ValueError(f"not a partition: {lam}")
    return tuple(lam[r - 1 - k] + k for k in range(r))


# ------------------------------------------------------ Schur polynomials

def schur_full(shape, nvars):
    """All monomials of the Schur polynomial s_shape(x_1..x_nvars).

    Branching on the last variable: strip a horizontal strip (the
    interlacing condition) and recurse on one variable fewer.
    """
    return _schur_full(tuple(p for p in shape if p), nvars)


@functools.cache
def _schur_full(lam, nvars):
    if not lam:
        return {(0,) * nvars: 1}
    if len(lam) > nvars:
        return {}
    result = defaultdict(int)
    ranges = []
    for i in range(len(lam)):
        lo = lam[i + 1] if i + 1 < len(lam) else 0
        ranges.append(range(lo, lam[i] + 1))
    total = sum(lam)
    for mu in itertools.product(*ranges):
        sub = schur_full(mu, nvars - 1)
        last = total - sum(mu)
        for mono, c in sub.items():
            result[mono + (last,)] += c
    return dict(result)


def sij_row_oracle(I):
    """All shifted-argument coefficients with upper set I.

    Substituting x -> x + 1 into s_{lambda(I)} and reading off the
    Schur coefficient of s_mu for each mu inside lambda(I) yields the
    coefficients indexed by lower sets J of the same size.
    """
    I = check_indexset(I)
    shifted = defaultdict(int)
    for mono, c in schur_full(lambda_of(I), len(I)).items():
        for picks in itertools.product(*(range(e + 1) for e in mono)):
            mult = c
            for e, k in zip(mono, picks):
                mult *= binom(e, k)
            shifted[picks] += mult
    check_symmetric(shifted)
    result = {}
    for J in lower_sets(I):
        c = sum(sign * shifted.get(e, 0) for sign, e in alternant_terms(J))
        if c:
            result[J] = c
    return result


# ---------------------------------------------------- polynomials in n

def a_ij_poly(I, J):
    """Dimension polynomial of the glued shape of degrees.a_value, fitted
    at every n >= 0 at its degree sum(I) + sum(J) + len(I)."""
    I, J = check_same_size(I, J, "a_ij_poly")
    return _fit("a_ij_poly", a_value, (I, J), sum(I) + sum(J) + len(I))


def _delta_at(kind, m, s, n):
    return delta_direct_info(kind, m, n, n - s)[0]


def delta_poly(matrix_type, m, s):
    """Dual degree as a polynomial in the size, at fixed m and corank s.

    Every type has degree m: each term of the direct sum is a
    coefficient times a complement polynomial of degree m, the skew one
    taken on its even branch at k = 2n.
    """
    return _fit("delta_poly", _delta_at, (canonical_type(matrix_type), m, s), m)
