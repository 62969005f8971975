import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mldeg.indexsets import (
    IndexSet,
    check_indexset,
    complement,
    enumerate_indexsets,
    format_indexset,
    lower_sets,
    mask,
    partition_weight,
)
from mldeg.lascoux import psi
from references import index_of, lambda_of


def test_check_indexset_raises_under_optimize():
    assert check_indexset([0, 2]) == (0, 2)
    for bad in ((3, 1), (1, 1), (-1,), (0.5,)):
        with pytest.raises(ValueError):
            check_indexset(bad)
    # No assert does the checking, so -O still rejects the set.
    script = ("from mldeg.indexsets import check_indexset\n"
              "try:\n    check_indexset((3, 1))\n"
              "except ValueError as exc:\n    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "not strictly increasing: (3, 1)\n"


def test_mask():
    assert mask(()) == 0
    assert mask((0, 2, 5)) == 0b100101


def test_lambda_of_examples():
    assert lambda_of(range(4)) == (0, 0, 0, 0)
    assert lambda_of((0, 3)) == (2, 0)
    assert lambda_of((1, 4)) == (3, 1)
    assert lambda_of(()) == ()


def test_index_of_examples():
    assert index_of((0, 0)) == (0, 1)
    assert index_of((3, 1)) == (1, 4)
    assert index_of((2,)) == (2,)


def test_roundtrip_exhaustive():
    for r in range(7):
        for I in itertools.combinations(range(11), r):
            assert index_of(lambda_of(I)) == I


def test_complement_examples():
    assert complement((1, 3), 4) == (0, 2)
    assert complement((), 3) == (0, 1, 2)
    assert complement((0, 1, 2), 3) == ()
    with pytest.raises(ValueError):
        complement((5,), 4)


def test_complement_involution_and_sum():
    for n in range(9):
        for r in range(n + 1):
            for I in itertools.combinations(range(n), r):
                J = complement(I, n)
                assert complement(J, n) == I
                assert sum(J) == n * (n - 1) // 2 - sum(I)


def test_enumerate_examples():
    assert list(enumerate_indexsets(2, 3)) == [(0, 3), (1, 2)]
    assert list(enumerate_indexsets(1, 5, 4)) == []
    assert list(enumerate_indexsets(0, 0)) == [()]
    assert list(enumerate_indexsets(0, 1)) == []
    assert list(enumerate_indexsets(3, 2)) == []
    # A set of 1100 elements is past the recursion limit; the stack of
    # open prefixes is a list.
    assert list(enumerate_indexsets(1100, 1100 * 1099 // 2)) == [tuple(range(1100))]


def test_lower_sets_are_lexicographic_and_complete():
    # The reference keeps the combinations of the same size that lie
    # below I in every place, in the order of combinations.
    for size in range(6):
        for I in itertools.combinations(range(10), size):
            want = [J for J in itertools.combinations(range(10), size)
                    if all(j <= i for j, i in zip(J, I))]
            assert list(lower_sets(I)) == want, I
    deep = tuple(range(1100))
    assert list(lower_sets(deep)) == [deep]


def _combinations_by_sum(universe, size, top):
    """itertools.combinations of range(universe), kept in their order,
    grouped by sum for the sums up to top."""
    by_sum = {}
    for I in itertools.combinations(range(universe), size):
        if sum(I) <= top:
            by_sum.setdefault(sum(I), []).append(I)
    return by_sum


def test_checked_sets_are_checked_once():
    I = check_indexset([0, 2])
    assert type(I) is IndexSet and I == (0, 2)
    assert check_indexset(I) is I
    for J in enumerate_indexsets(3, 7, 6):
        assert check_indexset(J) is J
    # Input that is not an IndexSet gets the full check and its texts.
    for bad, text in (((3, 1), "not strictly increasing: (3, 1)"),
                      ([0, 2, 2], "not strictly increasing: (0, 2, 2)"),
                      ((-1,), "bad index entry -1"),
                      ((0, 0.5), "bad index entry 0.5"),
                      (("1",), "bad index entry '1'")):
        with pytest.raises(ValueError) as info:
            check_indexset(bad)
        assert str(info.value) == text
        # The public functions check the same way.
        with pytest.raises(ValueError) as info:
            psi(bad)
        assert str(info.value) == text


def test_enumerate_is_lexicographic_and_complete():
    # The reference is the plain filter, in the order of combinations,
    # which is lexicographic.
    # Without a bound, a set of size s summing to at most 40 has its
    # elements below 41 - C(s-1, 2).
    top = 40
    for size in range(8):
        for bound in [None, *range(14)]:
            universe = bound if bound is not None else top + 1 - (size - 1) * (size - 2) // 2
            by_sum = _combinations_by_sum(universe, size, top)
            for total in range(-1, top + 1):
                got = list(enumerate_indexsets(size, total, bound))
                assert got == by_sum.get(total, []), (size, total, bound)
                assert all(type(I) is IndexSet for I in got)


def _count_partitions(total, max_parts, part_bound=None):
    if total == 0:
        return 1
    if max_parts == 0 or total < 0:
        return 0
    bound = total if part_bound is None else min(total, part_bound)
    count = 0
    for first in range(bound, 0, -1):
        count += _count_partitions_below(total - first, max_parts - 1, first)
    return count


def _count_partitions_below(total, max_parts, cap):
    if total == 0:
        return 1
    if max_parts == 0:
        return 0
    count = 0
    for first in range(min(cap, total), 0, -1):
        count += _count_partitions_below(total - first, max_parts - 1, first)
    return count


def test_enumeration_count_matches_partition_counter():
    for size in range(5):
        staircase = size * (size - 1) // 2
        for total in range(21):
            got = len(list(enumerate_indexsets(size, total)))
            assert got == _count_partitions(total - staircase, size) if total >= staircase else got == 0
            bound = 8
            got_b = len(list(enumerate_indexsets(size, total, bound)))
            want_b = (
                _count_partitions(total - staircase, size, bound - size)
                if total >= staircase and size <= bound
                else 0
            )
            assert got_b == want_b


def test_text_roundtrip():
    assert format_indexset((0, 2, 5)) == "{0,2,5}"
    assert format_indexset(()) == "{}"


def test_partition_weight():
    assert partition_weight((0, 3)) == 2
    assert partition_weight(()) == 0
    assert partition_weight((2,)) == 2


@given(st.sets(st.integers(min_value=0, max_value=12), max_size=6))
@settings(max_examples=80)
def test_lambda_roundtrip_property(s):
    I = tuple(sorted(s))
    lam = lambda_of(I)
    assert len(lam) == len(I)
    assert all(a >= b for a, b in zip(lam, lam[1:]))
    assert index_of(lam) == I
    assert sum(lam) == partition_weight(I)
