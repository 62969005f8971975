"""Half-argument specializations of Schur Q- and P-functions.

Setting every variable to 1/2 turns Q_lambda(x_1..x_n) into a
polynomial in n.  One-row values come from the coefficient recurrence
of ((1+t/2)/(1-t/2))^n, two-row values from the classical reduction,
and general strict shapes from Schur's Pfaffian of the two-row values,
expanded by exact.expand_pfaffian over the parts as labels.  Both
exact polynomials in n and fast point values at integer n are
provided; the point route is what the degree sweeps hit.

The point route runs on ints: 2^|lambda| Q_lambda(1/2, ..., 1/2) is an
integer, because the coefficients of ((1+u)/(1-u))^n are.  Only the
public values divide by the power of two, once.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exact import ConsistencyError, N, PolyQ, expand_pfaffian
from .indexsets import check_indexset

_onerow_tables = {}


def q_onerow(a):
    """Coefficient of t^a in ((1+t/2)/(1-t/2))^n as a PolyQ in n.

    The generating function is exp(n*L) with L = log((1+t/2)/(1-t/2))
    = sum over odd j of t^j/(j*2^(j-1)); differentiating gives the
    recurrence a*F_a = n * sum over odd j <= a of F_(a-j)/2^(j-1).
    """
    if a < 0:
        raise ValueError(f"q_onerow: negative index {a}")
    return _q_onerow(a)


@functools.cache
def _q_onerow(a):
    if a == 0:
        return PolyQ((1,))
    acc = PolyQ()
    for j in range(1, a + 1, 2):
        acc = acc + _q_onerow(a - j) * Fraction(1, 1 << (j - 1))
    return N * acc * Fraction(1, a)


def q_onerow_at(a, n):
    """Value of q_onerow(a) at integer n."""
    if a < 0:
        raise ValueError(f"q_onerow_at: negative index {a}")
    return Fraction(_onerow_ints(a, n)[a], 1 << a)


def _onerow_ints(a, n):
    """[G_0, ..., G_a] at least, G_k = 2^k q_onerow_at(k, n).

    G_k is the coefficient of u^k in ((1+u)/(1-u))^n.  The list for n
    grows bottom-up from k*G_k = 2n * (G_(k-1) + G_(k-3) + ...), whose
    inner sums are kept alongside.  The division by k is exact; a
    remainder means a corrupted table.
    """
    if n not in _onerow_tables:
        _onerow_tables[n] = ([1], [0])
    values, odd_sums = _onerow_tables[n]
    for k in range(len(values), a + 1):
        odd_sum = values[k - 1] + (odd_sums[k - 2] if k > 1 else 0)
        value, rem = divmod(2 * n * odd_sum, k)
        if rem:
            raise ConsistencyError(f"one-row value ({k}, n={n}) is not an integer")
        values.append(value)
        odd_sums.append(odd_sum)
    return values


def q_tworow(a, b):
    """Two-row specialization via the classical reduction to one-row."""
    if not a > b >= 0:
        raise ValueError(f"q_tworow: need a > b >= 0, got ({a}, {b})")
    if b == 0:
        return q_onerow(a)
    acc = q_onerow(a) * q_onerow(b)
    for k in range(1, b + 1):
        term = q_onerow(a + k) * q_onerow(b - k)
        acc = acc - 2 * term if k % 2 else acc + 2 * term
    return acc


@functools.cache
def _tworow_at(a, b, n):
    """2^(a+b) times the two-row value at integer n."""
    g = _onerow_ints(a + b, n)
    acc = g[a] * g[b]
    for k in range(1, b + 1):
        term = 2 * g[a + k] * g[b - k]
        acc = acc - term if k % 2 else acc + term
    return acc


def _check_strict(parts):
    parts = tuple(parts)
    if any(p <= 0 for p in parts) or any(a <= b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"not a strict partition of positive parts: {parts}")
    return parts


@functools.cache
def _pf_q(mask):
    """Schur's Pfaffian over the labels of mask, exact polynomials."""
    return expand_pfaffian(mask, mask, q_onerow, lambda a, b: q_tworow(b, a),
                           _pf_q) * PolyQ((1,))


@functools.cache
def _pf_q_at(mask, n):
    """Schur's Pfaffian with scalar values at n; the sweep workhorse.

    Returns 2^(sum of the labels) times the value, an int.  Cached on
    the mask of the labels, so sub-Pfaffians are shared across all index
    sets of a sweep.
    """
    return expand_pfaffian(mask, mask, lambda a: _onerow_ints(a, n)[a],
                           lambda a, b: _tworow_at(b, a, n), lambda k: _pf_q_at(k, n))


def _mask(labels):
    return sum(1 << a for a in labels)


def q_strict(parts):
    """Q specialization of a strict partition as a PolyQ in n."""
    return _pf_q(_mask(_check_strict(parts)))


def b_poly(I):
    """Shift every element of I up by one and specialize; degree ΣI + #I."""
    I = check_indexset(I)
    return _pf_q(_mask(i + 1 for i in I))


def b_value(I, n):
    I = check_indexset(I)
    return Fraction(_pf_q_at(_mask(i + 1 for i in I), n), 1 << (sum(I) + len(I)))


def d_poly(I):
    """P specialization: Q of the nonzero elements over 2 per nonzero part.

    A member 0 contributes no part and no factor of 2: as a label it is
    the pad row, since its one-row value is 1 and its two-row values are
    the one-row values of the other part.
    """
    I = check_indexset(I)
    return _pf_q(_mask(I)) * Fraction(1, 1 << (len(I) - (0 in I)))


def d_value(I, n):
    """Point value of the set-indexed P specialization at integer n.

    When 0 is a member, the value is the d_poly evaluation only for
    n = #I mod 2 and vanishes for the opposite parity.  (The skew NRS
    sum never sees the vanishing branch: it evaluates at even argument
    with even-size sets.)
    """
    I = check_indexset(I)
    if I and I[0] == 0 and (n - len(I)) % 2:
        return Fraction(0)
    return Fraction(_pf_q_at(_mask(I), n), 1 << (sum(I) + len(I) - (0 in I)))
