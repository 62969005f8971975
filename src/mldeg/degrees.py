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

A type is described once, by its shape (SHAPES); the ambient
dimension, the windows and the terms of both sums follow from it.
A term of either sum is (weight, sets), sets being (I,) for sym and
skew and (I, J) for square, with weight 1 in the direct sum and
(-base)^g C(m-1, g) in the closed form; one body, _term_sum, serves
all six partial sums.  Every factor is an int, the Q values
2^(sum(I) + #I) times their specializations, so every sum adds ints,
and the closed form divides its total once, by a power of the base.
Only the kernels differ beyond the shape:
TYPE_TABLE maps (type, role) to the partial sums and the phi function
of each type, and delta_direct_info, delta_nrs_info and the rank loop
behind the phi_* functions run every type through it.
"""

from __future__ import annotations

import functools
import math

from .exact import ConsistencyError, binom
from .indexsets import check_same_size, enumerate_indexsets
from .lascoux import alpha, alpha_complement, d_a, d_a_complement, psi, psi_complement
from .pool import fork_map
from .qschur import b_value, d_value


# ------------------------------------------------------------------ shapes

# Each type's shape: (sets per term, label scale, diagonal, base).  At
# corank k a term of either sum is one index set, or a pair (I, J) for
# the square type, of scale * k elements each; the skew type has scale
# 2, as its matrices are 2n x 2n.  diagonal is 1 where the set sizes
# count against m (sym and a), 0 for the skew type.  base is 2 for the
# Q values, whose unit is a power of two, and 1 for the int a_value.
SHAPES = {"sym": (1, 1, 1, 2), "a": (2, 1, 1, 1), "d": (1, 2, 0, 2)}


def ambient_dim(kind, k):
    """w(k): k(k+1)/2, k^2 and C(2k, 2) for the three types."""
    sets, scale, diagonal, _ = SHAPES[kind]
    return sets * binom(scale * k, 2) + diagonal * scale * k


def _terms(sets, size, totals, bound=None):
    """{total: terms} for each total in totals, in order; the terms are
    every tuple of `sets` index sets of the given size, entries below
    bound, whose sums add up to total: (I,) for one set per term, else
    (I, J) by increasing sum of I.  The sets of each sum are enumerated
    once for all the totals and paired with those of the complementary
    sum."""
    if sets == 1:
        return {t: [(I,) for I in enumerate_indexsets(size, t, bound)] for t in totals}
    low = binom(size, 2)
    by_sum = [list(enumerate_indexsets(size, t, bound))
              for t in range(low, max(totals, default=-1) - low + 1)]
    return {t: [(I, J) for k in range(t - 2 * low + 1) for I in by_sum[k]
                for J in by_sum[t - 2 * low - k]] for t in totals}


def direct_terms(kind, m, n, r):
    """Terms (1, sets) of the direct sum at rank r: sets of size
    scale * (n - r) inside [scale * n] whose sums add up to
    m - diagonal * size."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if not 0 <= r <= n:
        return []
    sets, scale, diagonal, _ = SHAPES[kind]
    size = scale * (n - r)
    total = m - diagonal * size
    return [(1, term) for term in _terms(sets, size, [total], scale * n)[total]]


def nrs_terms(kind, m, s):
    """Terms (weight, sets) of the closed form at corank s.

    The sets have size scale * s and sum t, for t from
    sets * C(size, 2) up to m - diagonal * size, each weighted by
    (-base)^g C(m-1, g) with g the distance of t from that top: a
    factor is base^(t + size) times its value, so base^(top + size)
    divides the total (delta_nrs_info).
    """
    if m <= 0 or s <= 0:
        raise ValueError(f"need m > 0 and s > 0, got m={m}, s={s}")
    sets, scale, diagonal, base = SHAPES[kind]
    size = scale * s
    top = m - diagonal * size
    items = []
    for t, terms in _terms(sets, size, range(sets * binom(size, 2), top + 1)).items():
        g = top - t
        weight = (-base) ** g * binom(m - 1, g)
        items.extend((weight, term) for term in terms)
    return items


def delta_sym_items(m, n, r):
    """Index sets the symmetric direct sum ranges over, in the order of
    direct_terms.  perfbench/make_reference.py builds its second phi
    route on these."""
    return [I for _, (I,) in direct_terms("sym", m, n, r)]


# ------------------------------------------------------------ partial sums

def _term_sum(coeff, factor, k, items):
    """Sum of weight * coeff(*sets) * factor(*sets, k) over the terms
    (weight, sets), all ints: the body of both routes for every type.

    The coefficient is taken only where the factor is nonzero: a_value
    is 0 wherever J holds an entry >= n, and no coefficient kernel is 0
    on a set the sums meet.
    """
    total = 0
    for weight, sets in items:
        value = factor(*sets, k)
        if value:
            total += weight * coeff(*sets) * value
    return total


# One per type and route, each a module-level function that finds its
# kernels among this module's globals when it runs, so a rebound kernel
# is what it calls.

def delta_sym_partial(n, items):
    return _term_sum(psi, psi_complement, n, items)


def delta_sym_nrs_partial(n, items):
    return _term_sum(psi, b_value, n, items)


def delta_type_d_partial(n, items):
    return _term_sum(alpha, alpha_complement, 2 * n, items)


def delta_type_d_nrs_partial(n, items):
    return _term_sum(alpha, d_value, 2 * n, items)


def delta_type_a_partial(n, items):
    return _term_sum(d_a, d_a_complement, n, items)


def delta_type_a_nrs_partial(n, items):
    return _term_sum(d_a, a_value, n, items)


# ------------------------------------------------ square closed-form weight

def _vandermonde(I):
    return math.prod(b - a for k, a in enumerate(I) for b in I[k + 1:])


def _cauchy(I, J):
    product = 1
    for a in I:
        a += 1
        for b in J:
            product *= a + b
    return product


@functools.cache
def _a_left(I, n):
    return _vandermonde(I) * math.prod(binom(n + a, a) for a in I)


@functools.cache
def _a_right(J, n):
    return _vandermonde(J) * math.prod((b + 1) * binom(n, b + 1) for b in J)


def a_value(I, J, n):
    """Dimension of the glued shape built from both partitions, at n >= 0.

    The shape stacks r + lambda(I) over the conjugate of lambda(J).  Its
    dimension is one factor per set over the Cauchy product,

        n^r prod_I C(n+a, a) prod_J C(n-1, b) D(I) D(J) / prod_{I x J} (a+b+1)

    with D the Vandermonde product of a set's entries.  n C(n-1, b) is
    taken as (b+1) C(n, b+1): it vanishes at n = 0 and for b >= n, so
    the boundary values come out of the factors themselves.  As a
    polynomial in n it has degree sum(I) + sum(J) + #I.  The dimension
    is an int: a remainder in the division raises ConsistencyError.
    """
    I, J = check_same_size(I, J, "a_value")
    if n < 0:
        raise ValueError(f"a_value: need n >= 0, got {n}")
    value, remainder = divmod(_a_left(I, n) * _a_right(J, n), _cauchy(I, J))
    if remainder:
        raise ConsistencyError(f"a_value{I},{J} at n={n}: the Cauchy product does not divide")
    return value


# -------------------------------------------------------------------- sums

def phi_sym(n, d):
    """Degree count for symmetric inverses: weighted rank sum over n."""
    return _rank_sum("sym", n, d)


def phi_type_a(n, d):
    """Degree count for square-matrix inverses."""
    return _rank_sum("a", n, d)


def phi_type_d(n, d):
    """Degree count for skew inverses (half-size n)."""
    return _rank_sum("d", n, d)


# Roles, for each type:
#   partial(n, items)     direct sum over some terms of direct_terms
#   nrs_partial(n, items) closed-form sum over some terms of nrs_terms
#   phi(n, d)             the rank-weighted degree count
# Entries stay plain functions, not records: perfbench/spans.py traces
# each layer by rebinding callables found as module-level dict values.
TYPE_TABLE = {
    ("sym", "partial"): delta_sym_partial,
    ("sym", "nrs_partial"): delta_sym_nrs_partial,
    ("sym", "phi"): phi_sym,
    ("a", "partial"): delta_type_a_partial,
    ("a", "nrs_partial"): delta_type_a_nrs_partial,
    ("a", "phi"): phi_type_a,
    ("d", "partial"): delta_type_d_partial,
    ("d", "nrs_partial"): delta_type_d_nrs_partial,
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
    """Inclusive feasibility window (w(n - r), w(n) - w(r)) for m at
    rank r; degrees vanish outside.

    Windows match the support of the defining sums, which is also what
    the duality and closed-form equality tests pin down.
    """
    if not 0 < r < n:
        raise ValueError(f"window defined for ranks 0 < r < n only, got n={n}, r={r}")
    kind = canonical_type(matrix_type)
    return ambient_dim(kind, n - r), ambient_dim(kind, n) - ambient_dim(kind, r)


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
    items = direct_terms(kind, m, n, r)
    return _pooled_sum(kind, "partial", n, items, jobs), len(items)


def delta_nrs_info(matrix_type, m, n, r, jobs=1):
    """Closed-form value of the rank-r degree and its number of terms.

    The sums run over corank s = n - r, and the total divides exactly by
    base^(top + size): 2^m for sym, 2^(m + 2s) for skew and 1 for
    square.  A remainder means a formula path is broken.
    """
    kind = canonical_type(matrix_type)
    if n <= 0:
        raise ValueError(f"need n > 0, got {n}")
    items = nrs_terms(kind, m, n - r)
    total = _pooled_sum(kind, "nrs_partial", n, items, jobs)
    _, scale, diagonal, base = SHAPES[kind]
    size = scale * (n - r)
    denominator = base ** (m - diagonal * size + size)
    value, remainder = divmod(total, denominator)
    if remainder:
        raise ConsistencyError(f"closed-form sum is not an integer at (type={kind}, m={m}, "
                               f"n={n}, r={r}): {total} / {denominator}")
    return value, len(items)


def _rank_sum(kind, n, d):
    """Corank-weighted sum of the degrees at m = d, divided by n.

    Corank s has no terms once its window starts past d, at w(s) > d,
    and w grows with s, so the loop stops at the first such corank.
    """
    if n <= 0 or d <= 0:
        raise ValueError(f"need n > 0 and d > 0, got n={n}, d={d}")
    total = 0
    for s in range(1, n + 1):
        if ambient_dim(kind, s) > d:
            break
        total += s * delta_direct_info(kind, d, n, n - s)[0]
    if total % n:
        raise ConsistencyError(f"rank-weighted sum {total} not divisible by n={n}")
    return total // n


def phi_value(matrix_type, n, d):
    return TYPE_TABLE[(canonical_type(matrix_type), "phi")](n, d)
