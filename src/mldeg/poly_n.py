"""Polynomials in the size parameter, recovered by exact interpolation.

Every family here has a proven degree in n, so each is fitted once at
that degree from an int point route, and five more evaluation points
must land on the fit.  Each family checks its arguments and makes one
call to _fit, the one cache of the fits, keyed by the route, its
arguments, the degree and the grid.  phi_poly alone fits through the
uncached body, _fit_route: its route is a whole degree sum, whose
kernels a cache key could not name.  The skew complement family is a
pair of polynomials, one per parity of its argument; the
complement-value family also carries a closed-form leading coefficient
that the fit has to reproduce.  A missed point, a wrong leading
coefficient or a nonzero residual of the recurrence certificates at
the bottom means a formula path is broken.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .degrees import canonical_type, phi_value
from .exact import ConsistencyError, PolyQ
from .indexsets import check_indexset, check_same_size
from .lascoux import alpha_complement, d_a_complement, psi_complement
from .qschur import b_value


def interpolate(points):
    """Newton-form interpolation through points with distinct abscissae."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if not pts or len(set(xs)) != len(xs):
        raise ValueError("interpolate: need points with distinct abscissae")
    dd = [y for _, y in pts]
    for j in range(1, len(pts)):
        for i in range(len(pts) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    poly = PolyQ((dd[-1],))
    for k in range(len(pts) - 2, -1, -1):
        poly = poly * PolyQ((-xs[k], Fraction(1))) + dd[k]
    return poly


def _fit_route(label, route, args, degree, start=0, step=1):
    """Interpolate route(*args, x) at a proven degree on an arithmetic grid.

    The degree + 1 nodes fix the polynomial; the five grid points after
    them must land on it, or the values are not that polynomial.
    """
    grid = [start + step * t for t in range(degree + 6)]
    poly = interpolate([(x, route(*args, x)) for x in grid[: degree + 1]])
    for x in grid[degree + 1:]:
        if poly(x) != route(*args, x):
            call = ", ".join(map(repr, args))
            raise ConsistencyError(f"{label}({call}): degree-{degree} fit misses the value at {x}")
    return poly


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
    """Polynomial matching psi_complement(I, n) at every integer n >= 0.

    The zero tail below n = max(I) + 1 is part of the data, so nodes
    start at n = 0.  Degree is sum(I) + len(I) exactly, and the leading
    coefficient must reproduce the closed form; either failing is a
    formula-path bug, not an input error.
    """
    I = check_indexset(I)
    degree = sum(I) + len(I)
    poly = _fit("lp_poly", psi_complement, (I,), degree)
    if poly.degree != degree or poly.coeffs[-1] != lp_leading_coeff(I):
        raise ConsistencyError(f"leading coefficient certificate failed for {I}")
    return poly


def lp_a_poly(I, J):
    """Polynomial through the two-set complement entries at n >= 0.

    Its degree is at most sum(I) + sum(J) + len(I): the entry is a
    signed sum over L <= I of s_ij(I, L) degrees.a_value(L, J, n), a
    polynomial in n of degree sum(L) + sum(J) + len(L).
    """
    I, J = check_same_size(I, J, "lp_a_poly")
    return _fit("lp_a_poly", d_a_complement, (I, J), sum(I) + sum(J) + len(I))


def lp_d_quasipoly(I):
    """(even, odd) polynomials through alpha_complement(I, k) at even
    and at odd k, each of degree at most sum(I): the value is a signed
    sum of d_value(J, k) over J <= I, and on one parity of k each
    d_value(J, k) is 0 or a polynomial of degree sum(J).
    """
    I = check_indexset(I)
    return tuple(_fit("lp_d_quasipoly", alpha_complement, (I,), sum(I), start=parity, step=2)
                 for parity in (0, 1))


def b_poly(I):
    """Polynomial through the Q specialization b_value(I, n) at every
    integer n >= 0, of degree sum(I) + len(I) exactly."""
    I = check_indexset(I)
    degree = sum(I) + len(I)
    poly = _fit("b_poly", b_value, (I,), degree)
    if poly.degree != degree:
        raise ConsistencyError(f"b_poly{I}: fit has degree {poly.degree}, not {degree}")
    return poly


def _phi_at(kind, d, n):
    return phi_value(kind, n, d)


def phi_poly(matrix_type, d):
    """Inverse-variety degree as a polynomial in the size, at fixed d.

    Degree d - 1 through nodes n = 1..d, then five checked points.
    It is fitted on every call, so a rebound kernel of the degree sum
    is what the fit reads.
    """
    kind = canonical_type(matrix_type)
    if d <= 0:
        raise ValueError(f"phi_poly: need d > 0, got {d}")
    return _fit_route("phi_poly", _phi_at, (kind, d), d - 1, start=1)


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
    rhs = PolyQ((1 - len(sets[0]), 1)) * poly(*rests)
    for k, rest in enumerate(rests):
        for i, e in enumerate(rest):
            if e + 1 not in rest:
                bumped = rest[:i] + (e + 1,) + rest[i + 1:]
                rhs = rhs - weight * poly(*rests[:k], bumped, *rests[k + 1:])
    return poly(*sets) - rhs


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
    skipping decrements that collide.  The shift is linear, so the sum
    over every choice, the empty one included, is shifted once.
    """
    sets, poly, _ = _residual_family("lp_shift_residual", sets)
    if any(0 in S for S in sets):
        raise ValueError(f"lp_shift_residual: a set of {sets} contains 0")
    total = sum((poly(*D) for D in itertools.product(*map(_decrements, sets))), PolyQ(()))
    return poly(*sets) - total.shift_arg(-1)


def lp_d_parity_residuals(I):
    """Residual pair for the skew family with 0 present: the branch with
    argument minus size even must drop the 0, the other branch must die."""
    I = check_indexset(I)
    if not I or I[0] != 0:
        raise ValueError(f"lp_d_parity_residuals: {I} does not contain 0")
    q = lp_d_quasipoly(I)
    sub = lp_d_quasipoly(I[1:])
    keep = len(I) % 2
    return tuple(q[p] - sub[p] if p == keep else q[p] for p in (0, 1))
