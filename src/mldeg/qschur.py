"""Half-argument specializations of Schur Q- and P-functions.

Setting every variable to 1/2 turns Q_lambda(x_1..x_n) into a
polynomial in n.  One-row values come from the coefficient recurrence
of ((1+t/2)/(1-t/2))^n, two-row values from the classical reduction,
and general strict shapes from the Pfaffian expansion over pairs of
parts.  Both exact polynomials in n and fast point values at integer n
are provided; the point route is what the degree sweeps hit.

The point route runs on ints: 2^|lambda| Q_lambda(1/2, ..., 1/2) is an
integer, because the coefficients of ((1+u)/(1-u))^n are.  Only the
public values divide by the power of two, once.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exact import ConsistencyError, N, PolyQ
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


def _pad(parts):
    return parts if len(parts) % 2 == 0 else parts + (0,)


@functools.cache
def _qpf(parts):
    """Pfaffian expansion along the first row, exact polynomials."""
    if not parts:
        return PolyQ((1,))
    first = parts[0]
    acc = PolyQ()
    for j in range(1, len(parts)):
        rest = parts[1:j] + parts[j + 1:]
        second = parts[j]
        term = (q_onerow(first) if second == 0 else q_tworow(first, second)) * _qpf(rest)
        acc = acc - term if j % 2 == 0 else acc + term
    return acc


@functools.cache
def _qpf_at(parts, n):
    """Pfaffian expansion with scalar values; the sweep workhorse.

    Returns 2^sum(parts) times the value, an int.  Cached on the part
    tuple so sub-Pfaffians are shared across all index sets of a sweep.
    """
    if not parts:
        return 1
    first = parts[0]
    acc = 0
    for j in range(1, len(parts)):
        rest = parts[1:j] + parts[j + 1:]
        term = _tworow_at(first, parts[j], n) * _qpf_at(rest, n)
        acc = acc - term if j % 2 == 0 else acc + term
    return acc


def q_strict(parts):
    """Q specialization of a strict partition as a PolyQ in n."""
    parts = _check_strict(parts)
    return _qpf(_pad(parts))


def b_poly(I):
    """Shift every element of I up by one and specialize; degree ΣI + #I."""
    I = check_indexset(I)
    return q_strict(tuple(i + 1 for i in reversed(I)))


def b_value(I, n):
    I = check_indexset(I)
    parts = tuple(i + 1 for i in reversed(I))
    return Fraction(_qpf_at(_pad(parts), n), 1 << sum(parts))


def _nonzero_parts(I):
    return tuple(i for i in reversed(I) if i > 0)


def d_poly(I):
    """P specialization: Q of the nonzero elements over 2 per nonzero part.

    A member 0 contributes no part and no factor of 2.
    """
    I = check_indexset(I)
    parts = _nonzero_parts(I)
    return q_strict(parts) * Fraction(1, 1 << len(parts))


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
    parts = _nonzero_parts(I)
    return Fraction(_qpf_at(_pad(parts), n), 1 << (sum(parts) + len(parts)))
