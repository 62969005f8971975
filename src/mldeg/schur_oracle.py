"""Definitional oracle: Schur coefficients of complete homogeneous sums.

The coefficient families computed combinatorially elsewhere are defined
as Schur coefficients of h_d evaluated at small sets of linear forms.
This module reads each one off monomial coefficients with Jacobi's
bialternant (Macdonald, Symmetric Functions, I.3): for symmetric F in
r variables and delta = (r-1, ..., 1, 0),

    [s_lambda] F = [x^(lambda+delta)] a_delta F
                 = sum over permutations w of sgn(w) [x^(lambda+delta-w(delta))] F,

and lambda + delta is the index set I itself, largest entry first.
Only the w with w(delta) <= I in every place contribute.  With one
alphabet the monomials come from the product of 1/(1 - x_i - x_j) over
the index pairs i <= j (psi) or i < j (alpha), grown one degree at a
time and checked for symmetry level by level.  With two alphabets they
have a closed form, so no series is built.  Slow but independent of
every fast path it is used to check.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import defaultdict

from .exact import ConsistencyError, binom
from .indexsets import check_indexset, partition_weight


def _add_form(target, poly, i, j):
    """target += poly * (x_i + x_j) on monomial dicts; i == j gives 2 x_i."""
    for mono, c in poly.items():
        for var in (i, j):
            target[mono[:var] + (mono[var] + 1,) + mono[var + 1:]] += c


def check_symmetric(poly):
    """Raise ConsistencyError unless a monomial dict is symmetric.

    Swapping two adjacent exponents of a present monomial must find the
    same coefficient; those swaps generate every permutation.
    """
    present = {mono: c for mono, c in poly.items() if c}
    r = len(next(iter(present), ()))
    for p in range(r - 1):
        swap = operator.itemgetter(*range(p), p + 1, p, *range(p + 2, r))
        for mono, c in present.items():
            if present.get(swap(mono)) != c:
                raise ConsistencyError(f"monomial dict is not symmetric at {mono}")


def alternant_terms(I):
    """(sgn(w), I - w(delta)) for every w with w(delta) <= I in each place.

    The places are filled in ascending order (the identity puts p at
    place p), each with a still-free value no larger than I[p], smallest
    first; taking the k-th smallest free value, from 0, adds k
    inversions.  A stack holds the partial fillings, the smallest choice
    on top.  A set of small weight visits few permutations.
    """
    terms = []
    stack = [(1, (), tuple(range(len(I))))]
    while stack:
        sign, exps, free = stack.pop()
        p = len(exps)
        if p == len(I):
            terms.append((sign, exps))
            continue
        for k in reversed(range(bisect.bisect_right(free, I[p]))):
            stack.append((-sign if k % 2 else sign, exps + (I[p] - free[k],),
                          free[:k] + free[k + 1:]))
    return terms


@functools.cache
def _series_state(family, nvars):
    """(index pairs (i, j) of the forms x_i + x_j, top level of each
    partial product, finished levels) of the series of family in nvars
    variables; _series_level grows the two lists in place."""
    choose = (itertools.combinations_with_replacement if family == "psi"
              else itertools.combinations)
    pairs = list(choose(range(nvars), 2))
    one = {(0,) * nvars: 1}
    return pairs, [one] * len(pairs), [one]


def _series_level(family, nvars, degree):
    """Degree piece of prod 1/(1 - x_i - x_j) over the pairs, memoized.

    With S_k the product over the first k forms, S_k[a] = S_{k-1}[a] +
    f_k S_k[a-1], so one more level needs only the top level of each
    partial product.  Each finished level is checked for symmetry once.
    """
    pairs, tops, levels = _series_state(family, nvars)
    while len(levels) <= degree:
        below = {}
        for k, (i, j) in enumerate(pairs):
            level = defaultdict(int, below)
            _add_form(level, tops[k], i, j)
            tops[k] = below = level
        level = {mono: c for mono, c in below.items() if c}
        check_symmetric(level)
        levels.append(level)
    return levels[degree]


def _one_alphabet(family, I):
    I = check_indexset(I)
    level = _series_level(family, len(I), partition_weight(I))
    return sum(sign * level.get(e, 0) for sign, e in alternant_terms(I))


def psi_oracle(I):
    """Schur coefficient definition of the symmetric-pair coefficients."""
    return _one_alphabet("psi", I)


def alpha_oracle(I):
    """Schur coefficient definition of the off-diagonal-pair coefficients."""
    return _one_alphabet("alpha", I)


def _compositions(total, parts):
    """Every tuple of `parts` nonnegative ints summing to total, in
    lexicographic order: the gaps left by parts - 1 bars placed among
    total + parts - 1 places."""
    if not parts:
        return [()] if total == 0 else []
    places = total + parts - 1
    return [tuple(hi - lo - 1 for lo, hi in zip((-1, *bars), (*bars, places)))
            for bars in itertools.combinations(range(places), parts - 1)]


@functools.cache
def _row_sums(b, rows):
    """Row-sum vector R -> number of rows x len(b) matrices over N with
    column sums b and row sums R; one column at a time."""
    counts = {(0,) * rows: 1}
    for column_sum in b:
        grown = defaultdict(int)
        columns = _compositions(column_sum, rows)
        for R, count in counts.items():
            for col in columns:
                grown[tuple(map(operator.add, R, col))] += count
        counts = grown
    return dict(counts)


def cross_coefficient(a, b):
    """[x^a y^b] of the product of 1/(1 - x_i - y_j), in closed form.

    1/(1 - x_i - y_j) = sum over q of y_j^q (1 - x_i)^-(q+1), so the
    y^b part is a sum over matrices Q with column sums b of the product
    over i of (1 - x_i)^-(R_i + s), R the row sums of Q and s = len(b):

        sum over R of N_b(R) * prod_i C(a_i + R_i + s - 1, a_i).
    """
    return _cross(tuple(sorted(a)), tuple(sorted(b)))


@functools.cache
def _cross(a, b):
    s = len(b)
    total = 0
    for R, count in _row_sums(b, len(a)).items():
        for ai, Ri in zip(a, R):
            power = Ri + s
            count *= binom(ai + power - 1, ai) if power else int(ai == 0)
            if not count:
                break
        total += count
    return total


def d_oracle(I, J):
    """Two-alphabet Schur coefficient defining the square-case entries:
    [s_lambda(I)(x) s_lambda(J)(y)] of h_d at the forms x_i + y_j."""
    I = check_indexset(I)
    J = check_indexset(J)
    y_terms = alternant_terms(J)
    return sum(sx * sy * cross_coefficient(a, b)
               for sx, a in alternant_terms(I) for sy, b in y_terms)

