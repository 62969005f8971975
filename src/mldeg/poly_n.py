"""Polynomials in the size parameter, recovered by exact interpolation.

Every family here has a proven degree in n, so each is fitted once at
that degree, and five more evaluation points must land on the fit.  The
skew complement family is a pair of polynomials, one per parity of its
argument; the complement-value family also carries a closed-form
leading coefficient that the fit has to reproduce.  A missed point, a
wrong leading coefficient or a nonzero residual of the recurrence
certificates at the bottom means a formula path is broken.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .degrees import canonical_type, delta_direct_info, phi_value
from .exact import ConsistencyError, PolyQ
from .indexsets import check_indexset, check_same_size
from .lascoux import alpha_complement, d_a_complement, psi_complement


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


def _fit(label, value_at, degree, start=0, step=1):
    """Interpolate at a proven degree on an arithmetic grid.

    The degree + 1 nodes fix the polynomial; the five grid points after
    them must land on it, or the values are not that polynomial.
    """
    grid = [start + step * t for t in range(degree + 6)]
    poly = interpolate([(x, value_at(x)) for x in grid[: degree + 1]])
    for x in grid[degree + 1:]:
        if poly(x) != value_at(x):
            raise ConsistencyError(f"{label}: degree-{degree} fit misses the value at {x}")
    return poly


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
    return _lp_poly(check_indexset(I))


@functools.cache
def _lp_poly(I):
    degree = sum(I) + len(I)
    poly = _fit(f"lp_poly{I}", lambda n: psi_complement(I, n), degree)
    if poly.degree != degree or poly.coeffs[-1] != lp_leading_coeff(I):
        raise ConsistencyError(f"leading coefficient certificate failed for {I}")
    return poly


def lp_a_poly(I, J):
    """Polynomial through the two-set complement entries at n >= 0.

    Its degree is at most sum(I) + sum(J) + len(I): the entry is a
    signed sum over L <= I of s_ij(I, L) a_ij_poly(L, J), and that
    product N^r prod C(N+a, a) prod C(N-1, b) has degree
    sum(L) + sum(J) + len(L).
    """
    return _lp_a_poly(*check_same_size(I, J, "lp_a_poly"))


@functools.cache
def _lp_a_poly(I, J):
    return _fit(f"lp_a_poly{I},{J}", lambda n: d_a_complement(I, J, n),
                sum(I) + sum(J) + len(I))


def lp_d_quasipoly(I):
    """(even, odd) polynomials through alpha_complement(I, k) at even
    and at odd k, each of degree at most sum(I): the value is a signed
    sum of d_value(J, k) over J <= I, and on one parity of k each
    d_value(J, k) is 0 or d_poly(J), of degree sum(J).
    """
    return _lp_d_quasipoly(check_indexset(I))


@functools.cache
def _lp_d_quasipoly(I):
    return tuple(
        _fit(f"lp_d_quasipoly{I}[{parity}]", lambda k: alpha_complement(I, k),
             sum(I), start=parity, step=2)
        for parity in (0, 1))


def delta_poly(matrix_type, m, s):
    """Dual degree as a polynomial in the size, at fixed m and corank s.

    Every type has degree m: each term of the direct sum is a
    coefficient times a complement polynomial of degree m, the skew one
    taken on its even branch at k = 2n.
    """
    kind = canonical_type(matrix_type)
    if m <= 0 or s <= 0:
        raise ValueError(f"delta_poly: need m > 0 and s > 0, got m={m}, s={s}")
    return _fit(f"delta_poly({kind},{m},{s})",
                lambda n: delta_direct_info(kind, m, n, n - s)[0], m)


def phi_poly(matrix_type, d):
    """Inverse-variety degree as a polynomial in the size, at fixed d.

    Degree d - 1 through nodes n = 1..d, then five checked points.
    """
    mt = canonical_type(matrix_type)
    if d <= 0:
        raise ValueError(f"phi_poly: need d > 0, got {d}")
    return _fit(f"phi_poly({mt},{d})", lambda n: phi_value(mt, n, d), d - 1, start=1)


def _bump_set(I, e):
    """Remove e, insert e + 1 (the caller guarantees e + 1 is absent)."""
    return tuple(sorted((set(I) - {e}) | {e + 1}))


def lp_lift_residual(I):
    """Zero iff the 0-dropping recurrence holds for the complement family.

    With 0 present and r = len(I):
      value(I) = (n - r + 1) * value(I without 0)
                 - 2 * sum over e in I, e > 0, e + 1 not in I
                       of value(I with 0 and e removed, e + 1 added)
    """
    I = check_indexset(I)
    if not I or I[0] != 0:
        raise ValueError(f"lp_lift_residual: {I} does not contain 0")
    r = len(I)
    rest = I[1:]
    rhs = PolyQ((1 - r, 1)) * lp_poly(rest)
    for e in rest:
        if e + 1 not in I:
            rhs = rhs - 2 * lp_poly(_bump_set(rest, e))
    return lp_poly(I) - rhs


def lp_shift_residual(I):
    """Zero iff the unit-shift recurrence holds when 0 is absent.

    value(I)(n) - value(I)(n-1) collects value(J)(n-1) over every J
    obtained by decrementing a nonempty subset of the entries, skipping
    decrements that collide.
    """
    I = check_indexset(I)
    if 0 in I:
        raise ValueError(f"lp_shift_residual: {I} contains 0")
    lhs = lp_poly(I) - lp_poly(I).shift_arg(-1)
    rhs = PolyQ(())
    for eps in itertools.product((0, 1), repeat=len(I)):
        if not any(eps):
            continue
        J = tuple(v - e for v, e in zip(I, eps))
        if len(set(J)) != len(J):
            continue
        rhs = rhs + lp_poly(J).shift_arg(-1)
    return lhs - rhs


def lp_a_lift_residual(I, J):
    """Two-set analogue of lp_lift_residual; the correction terms come
    without the factor 2, one sum per side."""
    I, J = check_same_size(I, J, "lp_a_lift_residual")
    if not I or I[0] != 0 or J[0] != 0:
        raise ValueError(f"lp_a_lift_residual: {I}, {J} do not both contain 0")
    r = len(I)
    ri, rj = I[1:], J[1:]
    rhs = PolyQ((1 - r, 1)) * lp_a_poly(ri, rj)
    for e in ri:
        if e + 1 not in I:
            rhs = rhs - lp_a_poly(_bump_set(ri, e), rj)
    for e in rj:
        if e + 1 not in J:
            rhs = rhs - lp_a_poly(ri, _bump_set(rj, e))
    return lp_a_poly(I, J) - rhs


def lp_a_shift_residual(I, J):
    """Two-set analogue of lp_shift_residual: decrement any nonempty
    choice of entries on either side, skipping collisions."""
    I, J = check_same_size(I, J, "lp_a_shift_residual")
    if 0 in I or 0 in J:
        raise ValueError(f"lp_a_shift_residual: {I} or {J} contains 0")
    lhs = lp_a_poly(I, J) - lp_a_poly(I, J).shift_arg(-1)
    rhs = PolyQ(())
    for eps in itertools.product((0, 1), repeat=len(I)):
        for mu in itertools.product((0, 1), repeat=len(J)):
            if not any(eps) and not any(mu):
                continue
            A = tuple(v - e for v, e in zip(I, eps))
            B = tuple(v - e for v, e in zip(J, mu))
            if len(set(A)) != len(A) or len(set(B)) != len(B):
                continue
            rhs = rhs + lp_a_poly(A, B).shift_arg(-1)
    return lhs - rhs


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
