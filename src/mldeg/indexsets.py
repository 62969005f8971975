"""Index sets, partitions, complements, and constrained enumeration.

An index set is a tuple of strictly increasing nonnegative ints; a
partition is a tuple of weakly decreasing nonnegative ints (trailing
zeros carry length information and are kept).  Everything here is a
plain tuple so values can be dict keys and cross process boundaries.
"""

from __future__ import annotations

from .exact import binom


def check_indexset(I):
    """I as a tuple; ValueError unless its entries are strictly
    increasing nonnegative ints."""
    I = tuple(I)
    for k, v in enumerate(I):
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"bad index entry {v!r}")
        if k and I[k - 1] >= v:
            raise ValueError(f"not strictly increasing: {I}")
    return I


def check_same_size(I, J, label):
    """(I, J) as checked index sets; ValueError naming label unless
    they have the same size."""
    I = check_indexset(I)
    J = check_indexset(J)
    if len(I) != len(J):
        raise ValueError(f"{label}: sets of different sizes {I}, {J}")
    return I, J


def lambda_of(I):
    """Partition of I: subtract the staircase, largest part first.

    Length equals #I; trailing zeros are kept so the size information
    round-trips through index_of.
    """
    I = check_indexset(I)
    r = len(I)
    return tuple(I[r - 1 - k] - (r - 1 - k) for k in range(r))


def index_of(lam):
    """Inverse of lambda_of; the partition length (zeros included) sets the size."""
    lam = tuple(lam)
    r = len(lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or (r and lam[-1] < 0):
        raise ValueError(f"not a partition: {lam}")
    return tuple(lam[r - 1 - k] + k for k in range(r))


def complement(I, n):
    """[n] minus I, ascending; I must sit inside [n] = {0, ..., n-1}."""
    I = check_indexset(I)
    members = set(I)
    if not members.issubset(range(n)):
        raise ValueError(f"complement: {I} is not a subset of [{n}]")
    return tuple(x for x in range(n) if x not in members)


def leq(I, J):
    """Componentwise order on equal-size index sets."""
    I, J = check_same_size(I, J, "leq")
    return all(a <= b for a, b in zip(I, J))


def lower_sets(I):
    """Every strictly increasing J of the size of I with J[k] <= I[k],
    in lexicographic order."""
    def rec(prefix, k, lo):
        if k == len(I):
            yield prefix
            return
        for v in range(lo, I[k] + 1):
            yield from rec(prefix + (v,), k + 1, v + 1)

    yield from rec((), 0, 0)


def enumerate_indexsets(size, total, bound=None):
    """Yield every strictly increasing set with the given size and sum.

    Elements are < bound when bound is given.  Lexicographic order, so
    downstream sums and emitted files are reproducible.
    """
    if size < 0:
        raise ValueError(f"enumerate_indexsets: negative size {size}")

    def rec(prefix, remaining, lo, slots):
        if slots == 0:
            if remaining == 0:
                yield prefix
            return
        # remaining must cover lo + (lo+1) + ... for the slots left
        hi = bound if bound is not None else remaining + 1
        for v in range(lo, hi):
            tail_min = (slots - 1) * v + slots * (slots - 1) // 2
            rest = remaining - v
            if rest < tail_min:
                break
            yield from rec(prefix + (v,), rest, v + 1, slots - 1)

    if total < 0:
        return
    yield from rec((), total, 0, size)


def format_indexset(I):
    return "{" + ",".join(str(x) for x in I) + "}"


def partition_weight(I):
    """|lambda(I)| = sum(I) - C(#I, 2)."""
    I = check_indexset(I)
    return sum(I) - binom(len(I), 2)
