"""Exact scalar arithmetic and exact linear algebra.

Everything downstream (coefficient tables, degree sums, fits in n)
runs on stdlib ints; only poly_n makes Fractions, for leading
coefficients and printed monomials.  No floats anywhere.
"""

from __future__ import annotations

import math
from collections import defaultdict


class ConsistencyError(RuntimeError):
    """Two routes that must agree disagreed (or a closed form failed)."""


def binom(a, b):
    """Binomial coefficient C(a, b) with the out-of-range convention.

    Returns 0 for b < 0 or b > a.  Negative a is a caller bug, not a
    convention; reject it loudly.
    """
    if a < 0:
        raise ValueError(f"binom: negative upper argument {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def det(rows):
    """Exact determinant of a square matrix, by fraction-free (Bareiss)
    elimination.

    Each update divides exactly by the previous pivot when the entries
    are ints.  Other exact entries get the determinant when every
    division is exact, and ConsistencyError otherwise.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("det: matrix is not square")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * pivot - m[i][k] * m[k][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ConsistencyError("Bareiss exact-division failure")
                m[i][j] = q
        prev = pivot
    return sign * m[n - 1][n - 1]


def pfaffian(rows):
    """Exact Pfaffian of an even-dimensional skew-symmetric matrix, by
    fraction-free Schur-complement elimination.

    Each 2x2 leading block is a pivot.  Once the first 2k rows and
    columns are eliminated, entry (i, j) of the trailing block is the
    Pfaffian of the original matrix on those 2k indices and i, j: the
    Pfaffian Schur complement times the Pfaffian of the leading block.
    So each update divides exactly by the previous pivot when the
    entries are ints, the trailing block stays skew, and the last pivot
    is the Pfaffian.  Other exact entries get the Pfaffian when every
    division is exact, and ConsistencyError otherwise.  The elimination
    updates the upper triangle and mirrors each update, so a matrix that
    is not skew is rejected first.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("pfaffian: matrix is not square")
    if n % 2:
        raise ValueError("pfaffian: odd dimension")
    for i in range(n):
        if rows[i][i] != 0:
            raise ValueError("pfaffian: nonzero diagonal")
        for j in range(i + 1, n):
            if rows[i][j] != -rows[j][i]:
                raise ValueError("pfaffian: matrix is not skew-symmetric")
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        rk, rk1 = m[k], m[k + 1]
        if rk[k + 1] == 0:
            for l in range(k + 2, n):
                if rk[l] != 0:
                    for row in m:
                        row[k + 1], row[l] = row[l], row[k + 1]
                    m[k + 1], m[l] = m[l], m[k + 1]
                    rk1 = m[k + 1]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rk[k + 1]
        for i in range(k + 2, n):
            ri, a, b = m[i], rk1[i], rk[i]
            for j in range(i + 1, n):
                q, rem = divmod(pivot * ri[j] + a * rk[j] - b * rk1[j], prev)
                if rem:
                    raise ConsistencyError("Pfaffian exact-division failure")
                ri[j] = q
                m[j][i] = -q
        prev = pivot
    return sign * prev


# The expansion of a set of size s visits about 1.618**s sub-sets; above
# this size a table eliminates the matrix instead.
_EXPANSION_MAX = 20


def pfaffian_table(single, pair):
    """pf(members): the Pfaffian of the matrix of pair(i, j) entries,
    i < j, on the set bits of the int members, with a front pad row of
    single(j) entries when the set is odd.

    The Pfaffian is expanded along the row of the highest label t:
    pf(S) = sum over k of (-1)^(k+1) e_k pf(S_k), with k counted from 1
    along that row, pad first.  For an odd set e_1 = single(t) and S_1 =
    S minus {t}; the other entries are pair(s, t) for s < t in S, with
    S minus {s, t}.  A zero entry builds no sub-Pfaffian.  Sets above
    _EXPANSION_MAX elements eliminate the matrix instead.

    pf.memo holds every Pfaffian the table has computed, keyed by its
    members, and the expansion reads a sub-Pfaffian there before it
    recurses.  The entries are read lazily into one column per label
    t, keyed by the bit of the other label and 0 for the pad, so each
    of single and pair runs at most once per entry.  pf.cache_clear()
    empties both.
    """
    memo = {}
    columns = defaultdict(dict)

    def read(top, bit):
        column = columns[top]
        value = column.get(bit)
        if value is None:
            value = column[bit] = pair(bit.bit_length() - 1, top) if bit else single(top)
        return value

    def expand(members):
        size = members.bit_count()
        if size > _EXPANSION_MAX:
            result = pfaffian(_pair_matrix(members, lambda t: read(t, 0),
                                           lambda s, t: read(t, 1 << s)))
        elif not size:
            result = 1
        else:
            top = members.bit_length() - 1
            rest = members ^ 1 << top
            column = columns[top]
            result = 0
            negate = False
            if size % 2:
                entry = column.get(0)
                if entry is None:
                    entry = column[0] = single(top)
                if entry:
                    sub = memo.get(rest)
                    result = entry * (expand(rest) if sub is None else sub)
                negate = True
            bits = rest
            while bits:
                bit = bits & -bits
                bits ^= bit
                entry = column.get(bit)
                if entry is None:
                    entry = column[bit] = pair(bit.bit_length() - 1, top)
                if entry:
                    sub = memo.get(rest ^ bit)
                    term = entry * (expand(rest ^ bit) if sub is None else sub)
                    result = result - term if negate else result + term
                negate = not negate
        memo[members] = result
        return result

    def pf(members):
        value = memo.get(members)
        return expand(members) if value is None else value

    def cache_clear():
        memo.clear()
        columns.clear()

    pf.memo = memo
    pf.cache_clear = cache_clear
    return pf


def _pair_matrix(members, single, pair):
    labels = [i for i in range(members.bit_length()) if members >> i & 1]
    if len(labels) % 2:
        labels.insert(0, None)
    m = len(labels)
    rows = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            if labels[a] is None:
                v = single(labels[b])
            else:
                v = pair(labels[a], labels[b])
            rows[a][b] = v
            rows[b][a] = -v
    return rows
