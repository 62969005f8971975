"""Polynomials in the size parameter, recovered by exact interpolation.

Each family here is pinned by more data than the fit consumes: extra
evaluation points must land on the interpolated polynomial, degree
guesses escalate only when the data forces them to, and the
complement-value family additionally carries a closed-form leading
coefficient that the fit has to reproduce.  The recurrence residuals
at the bottom are exact polynomial certificates; a nonzero residual
means a formula path is broken.
"""

from __future__ import annotations

import itertools
import logging
import math
from fractions import Fraction

from .degrees import (
    canonical_type,
    delta_sym,
    delta_type_a,
    delta_type_d,
    phi_value,
)
from .exact import ConsistencyError, PolyQ, binom
from .indexsets import check_indexset
from .lascoux import alpha_complement, d_a_complement, psi_complement

log = logging.getLogger(__name__)

_lp_memo = {}
_lp_a_memo = {}
_lp_d_memo = {}


class QuasiPolyQ:
    """Finite family of polynomials indexed by residue of the argument.

    branches[k] answers arguments congruent to k modulo the period.  A
    family whose branches all agree is a polynomial in disguise;
    collapse() hands that polynomial back.
    """

    __slots__ = ("branches",)

    def __init__(self, branches):
        branches = tuple(branches)
        assert branches, "QuasiPolyQ needs at least one branch"
        assert all(isinstance(b, PolyQ) for b in branches)
        object.__setattr__(self, "branches", branches)

    def __setattr__(self, name, value):
        raise AttributeError("QuasiPolyQ is immutable")

    @property
    def period(self):
        return len(self.branches)

    def __call__(self, n):
        return self.branches[n % self.period](n)

    def collapse(self):
        first = self.branches[0]
        if all(b == first for b in self.branches):
            return first
        return self

    def __eq__(self, other):
        if isinstance(other, QuasiPolyQ):
            return self.branches == other.branches
        return NotImplemented

    def __hash__(self):
        return hash(self.branches)

    def __repr__(self):
        return f"QuasiPolyQ({list(self.branches)!r})"


def interpolate(points):
    """Newton-form interpolation through points with distinct abscissae."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    assert pts, "interpolate: need at least one point"
    xs = [x for x, _ in pts]
    assert len(set(xs)) == len(xs), "interpolate: repeated abscissa"
    dd = [y for _, y in pts]
    for j in range(1, len(pts)):
        for i in range(len(pts) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    poly = PolyQ((dd[-1],))
    for k in range(len(pts) - 2, -1, -1):
        poly = poly * PolyQ((-xs[k], Fraction(1))) + dd[k]
    return poly


def _fit(value_at, degree, start=0, step=1, extra=5):
    """Interpolate on an arithmetic grid; None when extra points disagree."""
    assert degree >= 0 and step >= 1
    grid = [start + step * t for t in range(degree + 1 + extra)]
    poly = interpolate([(x, value_at(x)) for x in grid[: degree + 1]])
    for x in grid[degree + 1:]:
        if poly(x) != value_at(x):
            return None
    return poly


def _fit_escalating(label, value_at, degree, start=0, step=1, extra=5, limit=None):
    """Fit with an automatically raised degree bound, loudly when raised."""
    if limit is None:
        limit = degree + 12
    guess = degree
    while guess <= limit:
        poly = _fit(value_at, guess, start=start, step=step, extra=extra)
        if poly is not None:
            if guess != degree:
                log.info("%s: degree bound %d too low, fit at %d", label, degree, guess)
            return poly
        guess += 2
    raise ConsistencyError(f"{label}: no polynomial of degree <= {limit} fits the data")


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
    if I in _lp_memo:
        return _lp_memo[I]
    degree = sum(I) + len(I)
    poly = _fit(lambda n: psi_complement(I, n), degree)
    if poly is None:
        raise ConsistencyError(f"complement values of {I} missed the degree-{degree} fit")
    if poly.degree != degree or poly.coeffs[-1] != lp_leading_coeff(I):
        raise ConsistencyError(f"leading coefficient certificate failed for {I}")
    _lp_memo[I] = poly
    return poly


def lp_a_poly(I, J):
    """Polynomial through the two-set complement entries at n >= 0.

    No proven degree bound is available, so sum(I) + sum(J) + len(I)
    is a starting guess, over-determined by extra points and escalated
    when they disagree.
    """
    I = check_indexset(I)
    J = check_indexset(J)
    assert len(I) == len(J), "lp_a_poly: size mismatch"
    key = (I, J)
    if key in _lp_a_memo:
        return _lp_a_memo[key]
    degree = sum(I) + sum(J) + len(I)
    poly = _fit_escalating(
        f"lp_a_poly{I},{J}", lambda n: d_a_complement(I, J, n), degree)
    _lp_a_memo[key] = poly
    return poly


def lp_d_quasipoly(I):
    """Period-2 family through the skew complement values."""
    I = check_indexset(I)
    if I in _lp_d_memo:
        return _lp_d_memo[I]
    degree = sum(I) + len(I)
    branches = []
    for parity in (0, 1):
        branches.append(_fit_escalating(
            f"lp_d_quasipoly{I}[{parity}]",
            lambda k: alpha_complement(I, k),
            degree, start=parity, step=2))
    result = QuasiPolyQ(branches)
    _lp_d_memo[I] = result
    return result


def delta_poly(matrix_type, m, s):
    """Dual degree as a polynomial in the size, at fixed m and corank s.

    The symmetric family has proven degree m and vanishes at 0, so the
    fit is rigid there.  The square and skew families get the same
    starting guess with escalation; the skew family falls back to a
    period-2 pair of branches if no single polynomial fits.
    """
    mt = canonical_type(matrix_type)
    assert m > 0 and s > 0
    if mt == "sym":
        if binom(s + 1, 2) > m:
            return PolyQ(())
        poly = _fit(lambda n: delta_sym(m, n, n - s), m)
        if poly is None:
            raise ConsistencyError(f"degree-{m} fit failed at (sym, m={m}, s={s})")
        if poly(0) != 0:
            raise ConsistencyError(f"(sym, m={m}, s={s}) fit has nonzero value at 0")
        return poly
    if mt == "a":
        return _fit_escalating(
            f"delta_poly(a,{m},{s})", lambda n: delta_type_a(m, n, n - s), m)
    try:
        return _fit_escalating(
            f"delta_poly(d,{m},{s})", lambda n: delta_type_d(m, n, n - s), m)
    except ConsistencyError:
        log.info("delta_poly(d,%d,%d): splitting into period-2 branches", m, s)
        branches = [
            _fit_escalating(
                f"delta_poly(d,{m},{s})[{parity}]",
                lambda n: delta_type_d(m, n, n - s), m, start=parity, step=2)
            for parity in (0, 1)
        ]
        return QuasiPolyQ(branches)


def phi_poly(matrix_type, d):
    """Inverse-variety degree as a polynomial in the size, at fixed d.

    Degree d - 1 through nodes n = 1..d, then five checked points.
    """
    mt = canonical_type(matrix_type)
    assert d > 0
    poly = _fit(lambda n: phi_value(mt, n, d), d - 1, start=1)
    if poly is None:
        raise ConsistencyError(f"degree-{d - 1} fit failed at ({mt}, d={d})")
    return poly


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
    assert I and I[0] == 0
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
    assert 0 not in I
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
    I = check_indexset(I)
    J = check_indexset(J)
    assert len(I) == len(J), "lp_a_lift_residual: size mismatch"
    assert I and J and I[0] == 0 and J[0] == 0
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
    I = check_indexset(I)
    J = check_indexset(J)
    assert len(I) == len(J), "lp_a_shift_residual: size mismatch"
    assert 0 not in I and 0 not in J
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
    assert I and I[0] == 0
    q = lp_d_quasipoly(I)
    sub = lp_d_quasipoly(I[1:])
    keep = len(I) % 2
    out = []
    for parity in (0, 1):
        if parity == keep:
            out.append(q.branches[parity] - sub.branches[parity])
        else:
            out.append(q.branches[parity] - PolyQ(()))
    return tuple(out)
