"""Half-argument specializations of Schur Q- and P-functions.

Setting every variable to 1/2 turns Q_lambda(x_1..x_n) into a
polynomial in n.  Here it is evaluated at integer n: one-row values
come from a three-term coefficient recurrence of ((1+t/2)/(1-t/2))^n,
two-row values from the classical reduction, and general strict shapes
from Schur's Pfaffian of the two-row values over the parts as labels,
one exact.pfaffian_table per n, which also owns the list of one-row
values at n.  The polynomials in n are poly_n fits of these point
values.

The values run on ints: 2^|lambda| Q_lambda(1/2, ..., 1/2) is an
integer, because the coefficients of ((1+u)/(1-u))^n are.  Only the
public values divide by the power of two, once.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exact import ConsistencyError, pfaffian_table
from .indexsets import check_indexset, mask


def _tworow_at(g, n, b, a):
    """2^(a+b) times the two-row value (a, b), b < a or b = 0, at integer n.

    g is the list [G_0, G_1, ...] for n, grown here to G_(a+b); G_k =
    2^k Q_k(1/2, ..., 1/2) is the coefficient of u^k in F = ((1+u)/(1-u))^n.
    Since (1-u^2) F' = 2n F, k*G_k = 2n*G_(k-1) + (k-2)*G_(k-2).  The
    division by k is exact; a remainder means a corrupted list.  At b = 0
    the value is G_a, the one-row value.
    """
    for k in range(len(g), a + b + 1):
        value, rem = divmod(2 * n * g[k - 1] + (k - 2) * g[k - 2], k)
        if rem:
            raise ConsistencyError(f"one-row value ({k}, n={n}) is not an integer")
        g.append(value)
    acc = g[a] * g[b]
    for k in range(1, b + 1):
        term = 2 * g[a + k] * g[b - k]
        acc = acc - term if k % 2 else acc + term
    return acc


@functools.cache
def _q_table(n):
    """Schur's Pfaffian with scalar values at n; the sweep workhorse.

    The table maps the bitmask of the labels to 2^(sum of the labels)
    times the value, an int, so sub-Pfaffians are shared across all
    index sets of a sweep.  Its entries are the two-row values over one
    list of one-row values, which the table owns: the pad entry of label
    a is the two-row value (a, 0).
    """
    g = [1, 2 * n]
    return pfaffian_table(functools.partial(_tworow_at, g, n, 0),
                          functools.partial(_tworow_at, g, n))


def b_value(I, n):
    """Q specialization of the set shifted up by one, at integer n: the
    labels are i + 1 for i in I, of weight sum(I) + #I, which is also
    the degree in n (poly_n.b_poly)."""
    I = check_indexset(I)
    return Fraction(_q_table(n)(mask(I) << 1), 1 << (sum(I) + len(I)))


def d_value(I, n):
    """Point value of the set-indexed P specialization at integer n.

    It is Q of the nonzero elements over 2 per nonzero part.  A member
    0 contributes no part and no factor of 2: as a label it is the pad
    row, since its one-row value is 1 and its two-row values are the
    one-row values of the other part.  So with 0 a member the value is
    that of I without 0 for n = #I mod 2, and 0 for the opposite parity.
    (The skew NRS sum never sees the vanishing branch: it evaluates at
    even argument with even-size sets.)  On each parity of n it is a
    polynomial of degree sum(I): a fit of d_value on the grid
    start = #I mod 2, step = 2 when 0 is a member, on every n otherwise.
    """
    I = check_indexset(I)
    if I and I[0] == 0 and (n - len(I)) % 2:
        return Fraction(0)
    return Fraction(_q_table(n)(mask(I)), 1 << (sum(I) + len(I) - (0 in I)))
