"""Exact scalar arithmetic and exact linear algebra.

Everything downstream (coefficient tables, degree sums, interpolation)
runs on stdlib ints, Fractions, and the PolyQ polynomials defined here.
No floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def format_fraction(x):
    """Render an int or Fraction as 'p' or 'p/q' (q > 0)."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class PolyQ:
    """Univariate polynomial over Q, dense, lowest degree first.

    Immutable.  Coefficients are Fractions with no trailing zeros, so
    two equal polynomials have identical coefficient tuples.  A constant
    polynomial hashes and compares equal to its scalar value.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @staticmethod
    def _coerce(other):
        if isinstance(other, PolyQ):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyQ((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    __radd__ = __add__

    def __neg__(self):
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return PolyQ()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"PolyQ power needs a nonnegative int, got {k!r}")
        result = PolyQ((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, PolyQ):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "PolyQ(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_fraction(c))
            elif i == 1:
                terms.append(f"{format_fraction(c)}*n")
            else:
                terms.append(f"{format_fraction(c)}*n^{i}")
        return "PolyQ(" + " + ".join(terms) + ")"

    @classmethod
    def binomial(cls, k, shift=0):
        """The polynomial n -> C(n + shift, k)."""
        if k < 0:
            return cls()
        p = cls((1,))
        for t in range(k):
            p = p * cls((shift - t, 1))
        return p * Fraction(1, math.factorial(k))

    def shift_arg(self, c):
        """Return q with q(n) = p(n + c)."""
        shifted = PolyQ((c, 1))
        acc = PolyQ()
        for coeff in reversed(self.coeffs):
            acc = acc * shifted + coeff
        return acc


# The formal variable, for building polynomials by arithmetic.
N = PolyQ((0, 1))


def _det_bareiss(rows):
    """Fraction-free determinant for integer matrices."""
    m = [list(r) for r in rows]
    n = len(m)
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


def det(rows):
    """Exact determinant of a square matrix of ints."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("det: matrix is not square")
    if n == 0:
        return 1
    if not all(isinstance(x, int) for r in rows for x in r):
        raise TypeError("det: entries must be int")
    return _det_bareiss(rows)


def _pf_elimination(rows):
    """Schur-complement elimination for int skew matrices.

    Each 2x2 leading block contributes its off-diagonal entry as a
    factor; the trailing block is updated to the Pfaffian Schur
    complement, which stays skew.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for k in range(0, n, 2):
        if m[k][k + 1] == 0:
            for l in range(k + 2, n):
                if m[k][l] != 0:
                    for row in m:
                        row[k + 1], row[l] = row[l], row[k + 1]
                    m[k + 1], m[l] = m[l], m[k + 1]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k + 1]
        result *= pivot
        for i in range(k + 2, n):
            for j in range(k + 2, n):
                m[i][j] += (m[k + 1][i] * m[k][j] - m[k][i] * m[k + 1][j]) / pivot
    return sign * result


def pfaffian(rows):
    """Exact Pfaffian of an even-dimensional skew-symmetric matrix of ints."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("pfaffian: matrix is not square")
    if n % 2:
        raise ValueError("pfaffian: odd dimension")
    if not all(isinstance(x, int) for r in rows for x in r):
        raise TypeError("pfaffian: entries must be int")
    for i in range(n):
        if rows[i][i] != 0:
            raise ValueError("pfaffian: nonzero diagonal")
        for j in range(i + 1, n):
            if rows[i][j] != -rows[j][i]:
                raise ValueError("pfaffian: matrix is not skew-symmetric")
    result = _pf_elimination(rows)
    if result.denominator != 1:
        raise ConsistencyError(f"Pfaffian of an integer matrix came out {result}")
    return int(result)
