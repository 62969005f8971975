"""Index sets, their bitmasks, complements, and constrained enumeration.

An index set is a tuple of strictly increasing nonnegative ints, so
values can be dict keys and cross process boundaries.  A set is checked
once: check_indexset and enumerate_indexsets return it as an IndexSet,
a tuple subclass that check_indexset then returns as it is.  Its
bitmask, one bit per element, is the key every Pfaffian table in the
package is stored under.
"""

from __future__ import annotations

from .exact import binom


class IndexSet(tuple):
    """A tuple of strictly increasing nonnegative ints.  Only
    check_indexset and enumerate_indexsets build one."""

    __slots__ = ()


def check_indexset(I):
    """I as an IndexSet; ValueError unless its entries are strictly
    increasing nonnegative ints.  An IndexSet comes back as it is."""
    if type(I) is IndexSet:
        return I
    I = tuple(I)
    for k, v in enumerate(I):
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"bad index entry {v!r}")
        if k and I[k - 1] >= v:
            raise ValueError(f"not strictly increasing: {I}")
    return IndexSet(I)


def check_same_size(I, J, label):
    """(I, J) as checked index sets; ValueError naming label unless
    they have the same size."""
    I = check_indexset(I)
    J = check_indexset(J)
    if len(I) != len(J):
        raise ValueError(f"{label}: sets of different sizes {I}, {J}")
    return I, J


def mask(labels):
    """The bitmask with bit i set for each label i; the labels are taken
    as already checked."""
    m = 0
    for i in labels:
        m |= 1 << i
    return m


def complement(I, n):
    """[n] minus I, ascending; I must sit inside [n] = {0, ..., n-1}."""
    I = check_indexset(I)
    members = set(I)
    if not members.issubset(range(n)):
        raise ValueError(f"complement: {I} is not a subset of [{n}]")
    return tuple(x for x in range(n) if x not in members)


def lower_sets(I):
    """Every strictly increasing J of the size of I with J[k] <= I[k],
    in lexicographic order: each raises the last place of the one before
    still below I, and restarts the places after it one apart."""
    J = list(range(len(I)))
    while True:
        yield tuple(J)
        p = len(J) - 1
        while p >= 0 and J[p] == I[p]:
            p -= 1
        if p < 0:
            return
        J[p:] = range(J[p] + 1, J[p] + 1 + len(J) - p)


def enumerate_indexsets(size, total, bound=None):
    """Yield every strictly increasing set with the given size and sum.

    Elements are < bound when bound is given.  Lexicographic order, so
    downstream sums and emitted files are reproducible.  Each element
    runs only over the values that leave the slots after it a reachable
    sum: at least the sum of the next consecutive values, and, below
    bound, at most the sum of the largest values under it.  The last
    element is what remains.  The sets come out as IndexSets.  A stack
    holds the open prefixes, the smallest on top, so no call nests per
    element.
    """
    if size < 0:
        raise ValueError(f"enumerate_indexsets: negative size {size}")
    if total < 0:
        return
    if size == 0:
        if total == 0:
            yield IndexSet()
    elif size == 1:
        if bound is None or total < bound:
            yield IndexSet((total,))
    else:
        stack = [((), total, 0)]
        while stack:
            prefix, remaining, lo = stack.pop()
            # slots >= 2 elements from lo up, summing to remaining.  After
            # v the other slots - 1 sum to (slots - 1) * v + C(slots, 2) at
            # least and, below bound, to (slots - 1) * bound - C(slots, 2)
            # at most.
            slots = size - len(prefix)
            staircase = slots * (slots - 1) // 2
            if bound is not None:
                lo = max(lo, remaining - (slots - 1) * bound + staircase)
            values = range(lo, (remaining - staircase) // slots + 1)
            if slots == 2:
                for v in values:
                    yield IndexSet(prefix + (v, remaining - v))
            else:
                stack.extend((prefix + (v,), remaining - v, v + 1) for v in reversed(values))


def format_indexset(I):
    return "{" + ",".join(str(x) for x in I) + "}"


def partition_weight(I):
    """|lambda(I)| = sum(I) - C(#I, 2)."""
    I = check_indexset(I)
    return sum(I) - binom(len(I), 2)
