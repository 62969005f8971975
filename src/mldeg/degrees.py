"""Degree computations for the three matrix families.

Each degree has two independent routes: a direct sum of coefficient
products over constrained index sets, and a closed-form alternating
binomial sum against half-argument specializations (or dimension
polynomials in the square case).  The suite demands the routes agree
on every query; the CLI exposes both and cross-checks on demand.

Raw sums are used everywhere, with no special-casing of boundary
parameters: the empty and full index sets realize all the extended
boundary conventions on their own (full-space degree 1, vanishing
outside the feasibility window, zero at infeasible ranks).

Only the coefficient kernels differ between the families.  TYPE_TABLE
maps (type, role) to the function that plays the role for that type;
delta_direct_info, delta_nrs_info and the rank loop behind the phi_*
functions run every type through it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import ConsistencyError, PolyQ, binom
from .indexsets import check_same_size, enumerate_indexsets
from .lascoux import alpha, alpha_complement, d_a, d_a_complement, psi, psi_complement
from .pool import fork_map
from .qschur import b_value, d_value


# ---------------------------------------------------------------- symmetric

def delta_sym(m, n, r):
    """Dual degree of the rank-r locus sliced by an m-dimensional pencil."""
    return delta_direct_info("sym", m, n, r)[0]


def delta_sym_items(m, n, r):
    """Index sets the direct sum ranges over; one term per set."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    size = n - r
    if size < 0 or size > n:
        return []
    return list(enumerate_indexsets(size, m - n + r, n))


def delta_sym_partial(n, items):
    return sum(psi(I) * psi_complement(I, n) for I in items)


def delta_sym_nrs(m, n, s):
    """Closed form for delta_sym(m, n, n-s) via the half-argument values."""
    return delta_nrs_info("sym", m, n, n - s)[0]


def delta_sym_nrs_items(m, s):
    """Weighted index sets of the alternating closed-form sum."""
    if m <= 0 or s <= 0:
        raise ValueError(f"need m > 0 and s > 0, got m={m}, s={s}")
    items = []
    for t in range(binom(s, 2), m - s + 1):
        sign = -1 if (m - s - t) % 2 else 1
        coeff = sign * binom(m - 1, m - s - t)
        for I in enumerate_indexsets(s, t):
            items.append((coeff, I))
    return items


def delta_sym_nrs_partial(n, items):
    total = Fraction(0)
    for coeff, I in items:
        c = psi(I)
        if c:
            total += coeff * c * b_value(I, n)
    return total


def phi_sym(n, d):
    """Degree count for symmetric inverses: weighted rank sum over n."""
    return _rank_sum("sym", n, d)


# ------------------------------------------------------------------- square

def delta_type_a(m, n, r):
    return delta_direct_info("a", m, n, r)[0]


def delta_type_a_items(m, n, r):
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    size = n - r
    if size < 0 or size > n:
        return []
    target = m - n + r
    items = []
    for ti in range(binom(size, 2), target - binom(size, 2) + 1):
        for I in enumerate_indexsets(size, ti, n):
            for J in enumerate_indexsets(size, target - ti, n):
                items.append((I, J))
    return items


def delta_type_a_partial(n, items):
    total = 0
    for I, J in items:
        c = d_a(I, J)
        if c:
            total += c * d_a_complement(I, J, n)
    return total


def a_ij_poly(I, J):
    """Dimension polynomial of the glued shape built from both partitions.

    The shape stacks r + lambda(I) over the conjugate of lambda(J).  Its
    dimension is one factor per set over the Cauchy product,

        N^r prod_I C(N+a, a) prod_J C(N-1, b) D(I) D(J) / prod_{I x J} (a+b+1)

    with D the Vandermonde product of a set's entries.  N C(N-1, b) is
    taken as (b+1) C(N, b+1): it vanishes at N = 0 and for b >= N, so
    the boundary values come out of the factors themselves.
    """
    return _a_ij_poly(*check_same_size(I, J, "a_ij_poly"))


@functools.cache
def _a_ij_poly(I, J):
    poly = PolyQ((Fraction(_vandermonde(I) * _vandermonde(J), _cauchy(I, J)),))
    for a in I:
        poly = poly * PolyQ.binomial(a, a)
    for b in J:
        poly = poly * PolyQ.binomial(b + 1) * (b + 1)
    return poly


def _vandermonde(I):
    return math.prod(b - a for k, a in enumerate(I) for b in I[k + 1:])


def _cauchy(I, J):
    return math.prod(a + b + 1 for a in I for b in J)


@functools.cache
def _a_left(I, n):
    return _vandermonde(I) * math.prod(binom(n + a, a) for a in I)


@functools.cache
def _a_right(J, n):
    return _vandermonde(J) * math.prod((b + 1) * binom(n, b + 1) for b in J)


def a_value(I, J, n):
    """Point value of a_ij_poly at integer n >= 0, from its per-set factors."""
    I, J = check_same_size(I, J, "a_value")
    if n < 0:
        raise ValueError(f"a_value: need n >= 0, got {n}")
    return Fraction(_a_left(I, n) * _a_right(J, n), _cauchy(I, J))


def delta_type_a_nrs(m, n, r):
    """Closed form for delta_type_a(m, n, n-r)."""
    return delta_nrs_info("a", m, n, n - r)[0]


def delta_type_a_nrs_items(m, r):
    if m <= 0 or r <= 0:
        raise ValueError(f"need m > 0 and r > 0, got m={m}, r={r}")
    items = []
    for u in range(2 * binom(r, 2), m - r + 1):
        sign = -1 if (m - r - u) % 2 else 1
        coeff = sign * binom(m - 1, m - r - u)
        for ti in range(binom(r, 2), u - binom(r, 2) + 1):
            for I in enumerate_indexsets(r, ti):
                for L in enumerate_indexsets(r, u - ti):
                    items.append((coeff, I, L))
    return items


def delta_type_a_nrs_partial(n, items):
    total = Fraction(0)
    for coeff, I, L in items:
        c = d_a(I, L)
        if c:
            total += coeff * c * a_value(I, L, n)
    return total


def phi_type_a(n, d):
    """Degree count for square-matrix inverses."""
    return _rank_sum("a", n, d)


# -------------------------------------------------------------------- skew

def delta_type_d(m, n, r):
    """Skew case; n is the half-size (matrices are 2n x 2n, rank 2r)."""
    return delta_direct_info("d", m, n, r)[0]


def delta_type_d_items(m, n, r):
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    size = 2 * n - 2 * r
    if size < 0 or size > 2 * n:
        return []
    return list(enumerate_indexsets(size, m, 2 * n))


def delta_type_d_partial(n, items):
    total = 0
    for I in items:
        c = alpha(I)
        if c:
            total += c * alpha_complement(I, 2 * n)
    return total


def delta_type_d_nrs(m, n, r):
    """Closed form for delta_type_d(m, n, n-r); sums size-2r sets."""
    return delta_nrs_info("d", m, n, n - r)[0]


def delta_type_d_nrs_items(m, r):
    if m <= 0 or r <= 0:
        raise ValueError(f"need m > 0 and r > 0, got m={m}, r={r}")
    items = []
    for t in range(binom(2 * r, 2), m + 1):
        sign = -1 if (m - t) % 2 else 1
        coeff = sign * binom(m - 1, m - t)
        for I in enumerate_indexsets(2 * r, t):
            items.append((coeff, I))
    return items


def delta_type_d_nrs_partial(n, items):
    total = Fraction(0)
    for coeff, I in items:
        c = alpha(I)
        if c:
            total += coeff * c * d_value(I, 2 * n)
    return total


def phi_type_d(n, d):
    """Degree count for skew inverses (half-size n)."""
    return _rank_sum("d", n, d)


# -------------------------------------------------------------------- table

# Roles, for each type:
#   items(m, n, r)        terms of the direct sum at rank r
#   partial(n, items)     direct sum over some of those terms
#   nrs_items(m, s)       weighted terms of the closed form at corank s
#   nrs_partial(n, items) closed-form sum over some of those terms
#   window(n, r)          (lo, hi): the degree vanishes for m outside;
#                         window(n, 0)[1] is the ambient dimension
#   phi(n, d)             the rank-weighted degree count
# Entries stay plain functions, not records: perfbench/spans.py traces
# each layer by rebinding callables found as module-level dict values.
TYPE_TABLE = {
    ("sym", "items"): delta_sym_items,
    ("sym", "partial"): delta_sym_partial,
    ("sym", "nrs_items"): delta_sym_nrs_items,
    ("sym", "nrs_partial"): delta_sym_nrs_partial,
    ("sym", "window"): lambda n, r: (binom(n - r + 1, 2),
                                     binom(n + 1, 2) - binom(r + 1, 2)),
    ("sym", "phi"): phi_sym,
    ("a", "items"): delta_type_a_items,
    ("a", "partial"): delta_type_a_partial,
    ("a", "nrs_items"): delta_type_a_nrs_items,
    ("a", "nrs_partial"): delta_type_a_nrs_partial,
    ("a", "window"): lambda n, r: ((n - r) ** 2, n * n - r * r),
    ("a", "phi"): phi_type_a,
    ("d", "items"): delta_type_d_items,
    ("d", "partial"): delta_type_d_partial,
    ("d", "nrs_items"): delta_type_d_nrs_items,
    ("d", "nrs_partial"): delta_type_d_nrs_partial,
    ("d", "window"): lambda n, r: (binom(2 * (n - r), 2),
                                   binom(2 * n, 2) - binom(2 * r, 2)),
    ("d", "phi"): phi_type_d,
}

_TYPE_ALIASES = {
    "sym": "sym", "symmetric": "sym",
    "a": "a", "general": "a", "square": "a",
    "d": "d", "skew": "d",
}


def canonical_type(matrix_type):
    key = _TYPE_ALIASES.get(str(matrix_type).lower())
    if key is None:
        raise ValueError(f"unknown matrix type: {matrix_type!r}")
    return key


def pataki_window(matrix_type, n, r):
    """Inclusive feasibility window for m at rank r; degrees vanish outside.

    Windows match the support of the defining sums, which is also what
    the duality and closed-form equality tests pin down.
    """
    if not 0 < r < n:
        raise ValueError(f"window defined for ranks 0 < r < n only, got n={n}, r={r}")
    return TYPE_TABLE[(canonical_type(matrix_type), "window")](n, r)


def _partial_chunk(payload):
    kind, role, n, chunk = payload
    return TYPE_TABLE[(kind, role)](n, chunk)


# Terms per partial-sum call: small enough that pool.fork_map checks its
# time budget often, large enough that the calls cost nothing.
_CHUNK = 64


def _pooled_sum(kind, role, n, items, jobs):
    """The role's partial sum over all items, through pool.fork_map."""
    payloads = [(kind, role, n, items[k:k + _CHUNK])
                for k in range(0, len(items), _CHUNK)]
    return sum(fork_map(_partial_chunk, payloads, jobs))


def delta_direct_info(matrix_type, m, n, r, jobs=1):
    """Direct-sum value of the rank-r degree and its number of terms."""
    kind = canonical_type(matrix_type)
    items = TYPE_TABLE[(kind, "items")](m, n, r)
    return _pooled_sum(kind, "partial", n, items, jobs), len(items)


def delta_nrs_info(matrix_type, m, n, r, jobs=1):
    """Closed-form value of the rank-r degree and its number of terms.

    The sums run over corank s = n - r; a non-integer total means a
    formula path is broken.
    """
    kind = canonical_type(matrix_type)
    if n <= 0:
        raise ValueError(f"need n > 0, got {n}")
    items = TYPE_TABLE[(kind, "nrs_items")](m, n - r)
    total = Fraction(_pooled_sum(kind, "nrs_partial", n, items, jobs))
    if total.denominator != 1:
        raise ConsistencyError(
            f"closed-form sum is not an integer at "
            f"(type={kind}, m={m}, n={n}, r={r}): {total}"
        )
    return int(total), len(items)


def _rank_sum(kind, n, d):
    """Corank-weighted sum of the degrees at m = d, divided by n.

    A corank whose window starts past d has no terms, and the window
    start grows with the corank, so the loop stops at the first one.
    """
    if n <= 0 or d <= 0:
        raise ValueError(f"need n > 0 and d > 0, got n={n}, d={d}")
    window = TYPE_TABLE[(kind, "window")]
    total = 0
    for s in range(1, n + 1):
        if window(n, n - s)[0] > d:
            break
        total += s * delta_direct_info(kind, d, n, n - s)[0]
    if total % n:
        raise ConsistencyError(f"rank-weighted sum {total} not divisible by n={n}")
    return total // n


def phi_value(matrix_type, n, d):
    return TYPE_TABLE[(canonical_type(matrix_type), "phi")](n, d)
