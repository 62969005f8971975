"""Polynomials in the size parameter, as forward-difference tables.

Every family here has a proven degree D in n and an int point route,
the Q values in the unit of qschur.  A fit is the tuple of its
coefficients in the basis C(t, k), t the node index of its grid
start + step*t, with no trailing zeros: the forward differences of
D + 6 values, the top five of which must vanish.  Each family checks
its arguments and makes one call to _fit, the one cache of the fits;
phi_poly alone fits uncached, as its route is a whole degree sum, and
alone converts to monomial coefficients, for printing.  The skew
complement family is a pair of fits, one per parity of its argument.  A missed point, a wrong
leading coefficient or a nonzero residual of the recurrence
certificates at the bottom means a formula path is broken.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .degrees import canonical_type, phi_value
from .exact import ConsistencyError
from .indexsets import check_indexset, check_same_size
from .lascoux import alpha_complement, d_a_complement, psi_complement
from .qschur import b_value


def interpolate(values):
    """Forward differences of values at the first node, orders 0, 1, ...:
    the coefficients, in the basis C(t, k), of the polynomial through
    values[t] at the node indices t.  Int values give int coefficients."""
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return diffs


def evaluate(coeffs, t):
    """The value at node index t >= 0 of a fit: sum of c_k C(t, k)."""
    return sum(c * math.comb(t, k) for k, c in enumerate(coeffs))


def combine(terms):
    """Sum of weight * coeffs over (weight, coeffs) terms on one grid, as
    a fit: a tuple without trailing zeros."""
    total = []
    for weight, coeffs in terms:
        total += [0] * (len(coeffs) - len(total))
        for k, c in enumerate(coeffs):
            total[k] += weight * c
    while total and not total[-1]:
        total.pop()
    return tuple(total)


def _fit_route(label, route, args, degree, start=0, step=1):
    """Fit route(*args, x) at a proven degree on the grid start + step*t.

    The degree + 1 first nodes fix the polynomial.  The first nonzero
    difference of order degree + 1 + j, j < 5, means the node of that
    index is the first of the five after them to miss the fit.
    """
    grid = [start + step * t for t in range(degree + 6)]
    diffs = interpolate([route(*args, x) for x in grid])
    for x, diff in zip(grid[degree + 1:], diffs[degree + 1:]):
        if diff:
            call = ", ".join(map(repr, args))
            raise ConsistencyError(f"{label}({call}): degree-{degree} fit misses the value at {x}")
    return combine([(1, diffs[: degree + 1])])


# The one cache of the fits, keyed by the route itself as well as its
# arguments, degree and grid, so a route rebound in this module is
# fitted anew; what the route calls in turn is not in the key.
_fit = functools.cache(_fit_route)


def lp_leading_coeff(I):
    """Closed-form leading coefficient of the complement-value polynomial."""
    I = check_indexset(I)
    num = 1
    den = 1
    for a in I:
        den *= math.factorial(a) * (a + 1)
    for b in range(len(I)):
        for a in range(b):
            num *= I[b] - I[a]
            den *= I[b] + I[a] + 2
    return Fraction(num, den)


def lp_poly(I):
    """Fit matching psi_complement(I, n) at every integer n >= 0.

    The zero tail below n = max(I) + 1 is part of the data, so nodes
    start at n = 0.  Degree is sum(I) + len(I) = D exactly, and the top
    coefficient is D! times the closed-form leading coefficient; either
    failing is a formula-path bug, not an input error.
    """
    I = check_indexset(I)
    degree = sum(I) + len(I)
    poly = _fit("lp_poly", psi_complement, (I,), degree)
    if len(poly) != degree + 1 or poly[-1] != math.factorial(degree) * lp_leading_coeff(I):
        raise ConsistencyError(f"leading coefficient certificate failed for {I}")
    return poly


def lp_a_poly(I, J):
    """Fit through the two-set complement entries at n >= 0.

    Its degree is at most sum(I) + sum(J) + len(I): the entry is a
    signed sum over L <= I of s_ij(I, L) degrees.a_value(L, J, n), a
    polynomial in n of degree sum(L) + sum(J) + len(L).
    """
    I, J = check_same_size(I, J, "lp_a_poly")
    return _fit("lp_a_poly", d_a_complement, (I, J), sum(I) + sum(J) + len(I))


def lp_d_quasipoly(I):
    """(even, odd) fits through alpha_complement(I, k) at even and at
    odd k, each of degree at most sum(I) in the node index k // 2: the
    value is a signed sum of d_value(J, k) over J <= I, and on one
    parity of k each d_value(J, k) is 0 or a polynomial of degree sum(J).
    """
    I = check_indexset(I)
    return tuple(_fit("lp_d_quasipoly", alpha_complement, (I,), sum(I), start=parity, step=2)
                 for parity in (0, 1))


def b_poly(I):
    """Fit through the Q specialization b_value(I, n) at every integer
    n >= 0, of degree sum(I) + len(I) exactly."""
    I = check_indexset(I)
    degree = sum(I) + len(I)
    poly = _fit("b_poly", b_value, (I,), degree)
    if len(poly) != degree + 1:
        raise ConsistencyError(f"b_poly{I}: fit has degree {len(poly) - 1}, not {degree}")
    return poly


def _phi_at(kind, d, n):
    return phi_value(kind, n, d)


class Monomials(tuple):
    """Fraction coefficients in n, lowest degree first: a tuple, which
    perfbench/make_reference.py also evaluates at n and reads as .coeffs."""

    @property
    def coeffs(self):
        return tuple(self)

    def __call__(self, n):
        return sum(c * n ** k for k, c in enumerate(self))


def to_monomials(coeffs, start):
    """Monomial coefficients of the fit coeffs on the grid start + t,
    the sum of c_k C(n - start, k), from the falling products
    (n - start)(n - start - 1)...(n - start - k + 1) = k! C(n - start, k)."""
    out = [Fraction(0)] * len(coeffs)
    falling = [1]
    for k, c in enumerate(coeffs):
        for j, f in enumerate(falling):
            out[j] += Fraction(c * f, math.factorial(k))
        falling = [a - (start + k) * b for a, b in zip([0] + falling, falling + [0])]
    return Monomials(out)


def phi_poly(matrix_type, d):
    """Inverse-variety degree as a polynomial in the size, at fixed d.

    Degree d - 1 through nodes n = 1..d, then five checked points.  It
    is fitted on every call, so a rebound kernel of the degree sum is
    what the fit reads, and returned as monomial coefficients.
    """
    kind = canonical_type(matrix_type)
    if d <= 0:
        raise ValueError(f"phi_poly: need d > 0, got {d}")
    return to_monomials(_fit_route("phi_poly", _phi_at, (kind, d), d - 1, start=1), 1)


def _residual_family(label, sets):
    """The checked sets, their polynomial family and its lift weight:
    lp_poly, weight 2, for one set; lp_a_poly, weight 1, for two sets
    of one size."""
    if len(sets) == 1:
        return (check_indexset(*sets),), lp_poly, 2
    return check_same_size(*sets, label), lp_a_poly, 1


def lp_lift_residual(*sets):
    """Zero iff the 0-dropping recurrence holds at one set or two sets
    of one size, 0 in each.

    With r the size and rest(S) the set S without its 0:
      value(sets) = (n - r + 1) * value(rest of each set)
                    - weight * sum over one set S, e in rest(S), e + 1 not in S,
                               of value(the rests, e raised to e + 1 in rest(S))
    """
    sets, poly, weight = _residual_family("lp_lift_residual", sets)
    if not sets[0] or any(S[0] != 0 for S in sets):
        raise ValueError(f"lp_lift_residual: not every set of {sets} contains 0")
    rests = tuple(S[1:] for S in sets)
    terms = [(1, poly(*sets)), (-1, _times_n_plus(poly(*rests), 1 - len(sets[0])))]
    for k, rest in enumerate(rests):
        for i, e in enumerate(rest):
            if e + 1 not in rest:
                bumped = rest[:i] + (e + 1,) + rest[i + 1:]
                terms.append((weight, poly(*rests[:k], bumped, *rests[k + 1:])))
    return combine(terms)


def _times_n_plus(p, c):
    """(n + c) p(n) from the fit p on the grid of every n, by
    (n + c) C(n, k) = (k + 1) C(n, k + 1) + (k + c) C(n, k)."""
    return [(k + c) * a + k * b for k, (a, b) in enumerate(zip(p + (0,), (0,) + p))]


def _at_n_minus_1(p):
    """p(n) in the basis C(n - 1, k) from the fit p on the grid of every
    n, by C(n, k) = C(n - 1, k) + C(n - 1, k - 1)."""
    return [a + b for a, b in zip(p, p[1:] + (0,))]


def _decrements(S):
    """Every set made from S by lowering any choice of entries by one,
    the empty choice included, skipping choices that collide."""
    for eps in itertools.product((0, 1), repeat=len(S)):
        D = tuple(v - e for v, e in zip(S, eps))
        if len(set(D)) == len(D):
            yield D


def lp_shift_residual(*sets):
    """Zero iff the unit-shift recurrence holds at one set or two sets
    of one size, 0 in none.

    value(sets)(n) - value(sets)(n-1) collects value(D)(n-1) over every
    D obtained by decrementing a nonempty choice of entries on any side,
    skipping decrements that collide.  So the residual, in the basis
    C(n - 1, k), is value(sets)(n) less the sum over every choice, the
    empty one included.
    """
    sets, poly, _ = _residual_family("lp_shift_residual", sets)
    if any(0 in S for S in sets):
        raise ValueError(f"lp_shift_residual: a set of {sets} contains 0")
    return combine([(1, _at_n_minus_1(poly(*sets)))]
                   + [(-1, poly(*D)) for D in itertools.product(*map(_decrements, sets))])


def lp_d_parity_residuals(I):
    """Residual pair for the skew family with 0 present: the branch with
    argument minus size even must drop the 0, the other branch must die."""
    I = check_indexset(I)
    if not I or I[0] != 0:
        raise ValueError(f"lp_d_parity_residuals: {I} does not contain 0")
    q = lp_d_quasipoly(I)
    sub = lp_d_quasipoly(I[1:])
    keep = len(I) % 2
    return tuple(combine([(1, q[p]), (-1, sub[p])]) if p == keep else q[p] for p in (0, 1))
