import itertools
import math
import random
from collections import defaultdict

import pytest

from mldeg import cli, degrees, exact, indexsets, lascoux, qschur
from mldeg.exact import det, pfaffian
from mldeg.indexsets import complement, enumerate_indexsets, lower_sets
from mldeg.lascoux import (
    alpha,
    alpha_complement,
    alpha_recursion,
    d_a,
    d_a_complement,
    d_a_recursion,
    psi,
    psi_complement,
    psi_pair,
    psi_pascal,
    psi_recursion,
    s_ij,
)
from mldeg.qschur import b_value, d_value
from mldeg.schur_oracle import (
    alpha_oracle,
    d_oracle,
    psi_oracle,
)
from references import lambda_of, schur_full, sij_row_oracle
from test_schur_oracle import hom_full


def test_psi_anchor_values():
    assert psi(()) == 1
    assert psi((4,)) == 16
    assert psi((0, 2)) == 3
    assert psi((0, 3)) == 7
    assert psi((1, 2)) == 3
    assert psi((1, 3)) == 10
    assert psi((2, 3)) == 10
    assert psi((0, 2, 3)) == 6
    assert psi((0, 1, 3)) == 4
    assert tuple(psi(tuple(range(r))) for r in range(6)) == (1,) * 6


def test_psi_pascal_examples():
    assert psi_pascal((2,)) == 4
    assert psi_pascal((0, 3)) == 7
    assert psi_pascal(()) == 1


def test_psi_recursion_examples():
    assert psi_recursion((2, 3)) == 3 * 6 - 2 * 4
    assert psi_recursion((5,)) == 32
    assert psi_recursion(()) == 1
    assert psi_recursion((0, 2, 3)) == 6


def test_psi_four_paths_agree():
    sets = [I for r in range(4) for I in itertools.combinations(range(7), r)]
    sets += list(itertools.combinations(range(8), 4))[:20]
    for I in sets:
        v = psi(I)
        assert psi_pascal(I) == v, I
        assert psi_recursion(I) == v, I
    small = [I for r in range(4) for I in itertools.combinations(range(6), r)]
    for I in small:
        assert psi_oracle(I) == psi(I), I


def test_psi_complement_routes():
    # The complement value is also the Pfaffian, over the labels of I
    # (padded when odd), of the complement values of its pairs and
    # singletons.
    for n in range(1, 9):
        for r in range(7):
            for I in itertools.combinations(range(n), r):
                value = psi_complement(I, n)
                assert value == psi(complement(I, n)), (I, n)
                labels = (None,) + I if r % 2 else I
                rows = [[0] * len(labels) for _ in labels]
                for a, b in itertools.combinations(range(len(labels)), 2):
                    pair = tuple(x for x in (labels[a], labels[b]) if x is not None)
                    rows[a][b] = psi_complement(pair, n)
                    rows[b][a] = -rows[a][b]
                assert pfaffian(rows) == value, (I, n)
    assert psi_complement((9,), 4) == 0
    assert psi_complement(tuple(range(5)), 5) == 1


def test_psi_complement_closed_form_entries():
    # The entries of the complement Pfaffian: C(n, i+1) for a singleton,
    # a hockey-stick sum for a pair.
    for n in range(16):
        for i in range(n):
            assert psi_complement((i,), n) == math.comb(n, i + 1) == psi(complement((i,), n))
            for j in range(i + 1, n):
                expected = sum(
                    math.comb(w, j) * (math.comb(w, i + 1) + math.comb(w + 1, i + 1)
                                       - math.comb(n, i + 1))
                    for w in range(j, n))
                assert psi(complement((i, j), n)) == expected, (i, j, n)
                assert psi_complement((i, j), n) == expected, (i, j, n)


def test_psi_pair_complement_from_square_pair_entries():
    # The hockey-stick sum over w in [j, n), kept here as the reference
    # for the form through two square pair entries.
    def hockey_stick(i, j, n):
        comb = math.comb
        return (sum(comb(w, j) * (comb(w, i + 1) + comb(w + 1, i + 1)) for w in range(j, n))
                - comb(n, i + 1) * comb(n, j + 1))

    pairs = [(i, j, n) for n in range(41) for i, j in itertools.combinations(range(n), 2)]
    pairs += [(i, j, n) for n in (97, 200, 400) for i in range(0, n - 1, 7)
              for j in sorted({i + 1, (i + n) // 2, n - 1})]
    for i, j, n in pairs:
        assert lascoux._psi_pair_complement(n, i, j) == hockey_stick(i, j, n), (i, j, n)


def _pair_matrix_of_range(n):
    """Pair matrix of [n], with a front pad row of singletons when n is odd."""
    labels = (None,) + tuple(range(n)) if n % 2 else tuple(range(n))
    rows = [[0] * len(labels) for _ in labels]
    for a, b in itertools.combinations(range(len(labels)), 2):
        i, j = labels[a], labels[b]
        rows[a][b] = 2 ** j if i is None else psi_pair(i, j)
        rows[b][a] = -rows[a][b]
    return rows


def test_pair_matrix_is_pascal_congruent_to_ones():
    # M = P Omega P^T, with P the Pascal matrix C(a, b) (shifted behind a
    # unit pad entry when n is odd) and Omega the skew matrix of ones
    # above the diagonal; its inverse is D P^T Omega P D, D = diag((-1)^a).
    def mul(A, B):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]

    for n in range(1, 13):
        pad = n % 2
        m = n + pad
        P = [[math.comb(a - pad, b - pad) if a >= pad and b >= pad else int(a == b)
              for b in range(m)] for a in range(m)]
        PT = [list(col) for col in zip(*P)]
        omega = [[(a < b) - (a > b) for b in range(m)] for a in range(m)]
        D = [[(-1) ** a * (a == b) for b in range(m)] for a in range(m)]
        M = _pair_matrix_of_range(n)
        assert mul(mul(P, omega), PT) == M, n
        inverse = mul(mul(mul(mul(D, PT), omega), P), D)
        assert mul(M, inverse) == [[int(a == b) for b in range(m)] for a in range(m)], n


def test_complements_reject_negative_n():
    for call in (lambda: psi_complement((), -1), lambda: alpha_complement((), -1),
                 lambda: d_a_complement((), (), -1)):
        with pytest.raises(ValueError, match="-1"):
            call()


def test_psi_matches_padded_pair_matrix_pfaffian():
    for r in range(8):
        for I in itertools.combinations(range(11), r):
            labels = (None,) + I if r % 2 else I
            rows = [[0] * len(labels) for _ in labels]
            for a, b in itertools.combinations(range(len(labels)), 2):
                i, j = labels[a], labels[b]
                if i is None:
                    rows[a][b] = 2 ** j
                else:
                    rows[a][b] = sum(math.comb(i + j, k) for k in range(i + 1, j + 1))
                rows[b][a] = -rows[a][b]
            assert psi(I) == pfaffian(rows), I


def test_psi_large_sets_eliminate(monkeypatch):
    # Above the expansion cap psi and psi_complement eliminate the matrix;
    # both routes agree.  The expansion values are recorded first, and
    # the eliminations run on cleared tables, so neither route reads the
    # other's entries.
    sets = [I for r in range(4, 8) for I in itertools.combinations(range(9), r)]
    expanded = {I: psi(I) for I in sets}
    complements = {(I, n): psi_complement(I, n) for I in sets for n in (9, 12)}
    lascoux._pf.cache_clear()
    lascoux._psi_complement_table.cache_clear()
    monkeypatch.setattr(exact, "_EXPANSION_MAX", 3)
    for I in sets:
        assert psi(I) == expanded[I], I
    for (I, n), value in complements.items():
        assert psi_complement(I, n) == value, (I, n)
    # Only the sets themselves were kept: no sub-Pfaffian was expanded.
    assert len(lascoux._pf.memo) == len(sets)
    assert sum(len(lascoux._psi_complement_table(n).memo) for n in (9, 12)) == len(complements)
    monkeypatch.undo()
    lascoux._pf.cache_clear()
    lascoux._psi_complement_table.cache_clear()
    assert psi(tuple(range(40))) == 1
    assert psi_complement((0,), 40) == psi_recursion(tuple(range(1, 40)))
    assert psi_complement(tuple(range(1, 40)), 40) == psi((0,)) == 1


def test_psi_pair_wide_gap():
    # psi((0, j)) sums row j but for C(j, 0), so it is 2^j - 1; with one
    # math.comb per term this set took past a minute.
    assert psi((0, 20000)) == 2 ** 20000 - 1


def test_cached_recursions_handle_deep_sets():
    # Each lifting and box step is one cached call; a wide gap must not
    # nest them past the recursion limit.
    assert psi_recursion((1500,)) == 2 ** 1500
    assert alpha_recursion((0, 5000)) == alpha((0, 5000)) == 1


def test_pair_matrix_jacobi_cofactor():
    # the full pair matrix has unit determinant and unit Pfaffian, and
    # deleting two rows/columns yields the complement values
    for n in (4, 6, 8):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = psi_pair(i, j)
                rows[j][i] = -rows[i][j]
        assert det(rows) == 1
        assert pfaffian(rows) == 1
        for i in range(n):
            for j in range(i + 1, n):
                keep = [k for k in range(n) if k not in (i, j)]
                minor = [[rows[a][b] for b in keep] for a in keep]
                assert pfaffian(minor) == psi_complement((i, j), n)


def _pfaff_rec_terms(I, n):
    """Signed pair expansion of the complement value over pairs of I."""
    r = len(I)
    if r % 2 == 0:
        total = 0
        for k in range(r):
            for l in range(k + 1, r):
                rest = tuple(x for x in I if x not in (I[k], I[l]))
                sign = -1 if (k + l) % 2 == 0 else 1
                total += sign * psi_complement((I[k], I[l]), n) * psi_complement(rest, n)
        return 2 * total, r
    labels = (None,) + I
    total = 0
    for k in range(r + 1):
        for l in range(k + 1, r + 1):
            sign = -1 if (k + l) % 2 == 0 else 1
            if labels[k] is None:
                first = psi_complement((labels[l],), n)
                rest = tuple(x for x in I if x != labels[l])
            else:
                first = psi_complement((labels[k], labels[l]), n)
                rest = tuple(x for x in I if x not in (labels[k], labels[l]))
            total += sign * first * psi_complement(rest, n)
    return 2 * total, r + 1


def test_complement_pair_expansion():
    assert _pfaff_rec_terms((0, 1, 2), 4) == (4 * psi((3,)), 4)
    for n in range(4, 9):
        for r in (2, 3, 4):
            for I in itertools.combinations(range(n), r):
                lhs, factor = _pfaff_rec_terms(I, n)
                assert lhs == factor * psi_complement(I, n), (I, n)


def test_alpha_values_and_oracle():
    assert alpha(()) == 1
    assert alpha((1,)) == 0
    assert alpha((0, 1)) == 1
    assert alpha((1, 2)) == 1
    assert alpha((1, 3)) == 2
    assert alpha((2, 3)) == 2
    assert alpha((0, 2, 3)) == 2
    assert alpha((1, 2, 3, 4)) == 1
    for k in range(6):
        assert alpha(tuple(range(k))) == 1
    for r in range(4):
        for I in itertools.combinations(range(7), r):
            assert alpha(I) == alpha_oracle(I), I


def test_alpha_is_pfaffian_of_its_pair_values():
    # Like psi, alpha is the Pfaffian of its pair values; an odd set is
    # padded with the singleton values alpha((i,)) = [i == 0].
    for r in range(2, 7):
        for I in itertools.combinations(range(9), r):
            labels = (None,) + I if r % 2 else I
            rows = [[0] * len(labels) for _ in labels]
            for a, b in itertools.combinations(range(len(labels)), 2):
                i, j = labels[a], labels[b]
                rows[a][b] = int(j == 0) if i is None else alpha((i, j))
                rows[b][a] = -rows[a][b]
            assert alpha(I) == pfaffian(rows), I
    # The pair values in closed form; (0, 1) alone has i + j - 2 < 0.
    assert alpha((0, 1)) == 1
    for i, j in itertools.combinations(range(16), 2):
        if (i, j) != (0, 1):
            expected = math.comb(i + j - 2, i) - (math.comb(i + j - 2, i - 2) if i >= 2 else 0)
            assert alpha((i, j)) == expected, (i, j)


def test_alpha_complement():
    assert alpha_complement((), 2) == 1
    assert alpha_complement((1,), 4) == alpha((0, 2, 3))
    assert alpha_complement((9,), 3) == 0


def test_alpha_pfaffian_matches_box_walk():
    for r in range(8):
        for I in itertools.combinations(range(11), r):
            assert alpha(I) == alpha_recursion(I), I


def test_alpha_complement_label_route():
    # The complement is a Pfaffian over the labels of I: it matches the
    # box walk of the complement set.
    for k in range(15):
        for r in range(6):
            for I in itertools.combinations(range(k), r):
                assert alpha_complement(I, k) == alpha_recursion(complement(I, k)), (I, k)


def test_alpha_complement_closed_form_entries():
    def reference(I, k):
        return alpha_recursion(complement(I, k))

    for k in range(1, 30):
        assert alpha_complement((0,), k) == k % 2 == reference((0,), k), k
        for i in range(1, k):
            expected = sum(math.comb(w, i - 1) for w in range(k - 1) if w % 2 == k % 2)
            assert alpha_complement((i,), k) == expected == reference((i,), k), (i, k)
        # The parity rule of lp_d_parity_residuals: a pair with 0 keeps
        # the singleton value at even k and vanishes at odd k.
        for j in range(1, k):
            expected = alpha_complement((j,), k) if k % 2 == 0 else 0
            assert alpha_complement((0, j), k) == expected == reference((0, j), k), (j, k)
    # Past the pairs with 0, each entry is the sum over w in [j, k) of
    # its unit-shift decrements (i-1, j), (i, j-1) and (i-1, j-1) at w.
    for k in range(40):
        for i, j in itertools.combinations(range(1, k), 2):
            decrements = [(i - 1, j), (i - 1, j - 1)] + ([(i, j - 1)] if i < j - 1 else [])
            expected = sum(alpha_complement(pair, w) for w in range(j, k) for pair in decrements)
            assert alpha_complement((i, j), k) == expected, (i, j, k)


def test_alpha_complement_builds_no_complement_sets(monkeypatch):
    def refuse(*args):
        raise AssertionError("the skew complement built a complement set")

    cases = [(I, k) for k in range(9) for r in range(5)
             for I in itertools.combinations(range(k), r)]
    expected = {(I, k): alpha_recursion(complement(I, k)) for I, k in cases}
    items = degrees.direct_terms("d", 14, 5, 3)
    total = sum(weight * alpha_recursion(I) * alpha_recursion(complement(I, 10))
                for weight, (I,) in items)
    lascoux._pf_alpha.cache_clear()
    lascoux._alpha_complement_table.cache_clear()
    monkeypatch.setattr(lascoux, "complement", refuse, raising=False)
    monkeypatch.setattr(indexsets, "complement", refuse)
    monkeypatch.setattr(lascoux, "_alpha_recursion", refuse)
    for (I, k), value in expected.items():
        assert alpha_complement(I, k) == value, (I, k)
    assert degrees.delta_type_d_partial(5, items) == total != 0


def test_tables_keep_each_n_apart():
    # The complement and Q tables are one per n, keyed by the bitmask of
    # the set alone.  Read over n in a shuffled order, repeats included,
    # each value matches an independent one: the Pfaffian or recursion of
    # the complement set, and for the Q values the same call made on
    # cleared tables one n at a time.
    rng = random.Random(25)
    sets = [I for r in range(6) for I in itertools.combinations(range(8), r)]
    ns = range(11)
    points = {}
    for n in ns:
        qschur._q_table.cache_clear()
        points.update({(I, n): (b_value(I, n), d_value(I, n)) for I in sets})
    lascoux._psi_complement_table.cache_clear()
    lascoux._alpha_complement_table.cache_clear()
    qschur._q_table.cache_clear()
    order = [*ns, *ns, *rng.sample(ns, 5)]
    calls = [(I, n) for I in sets for n in order]
    rng.shuffle(calls)
    for I, n in calls:
        inside = not I or I[-1] < n
        assert psi_complement(I, n) == (psi(complement(I, n)) if inside else 0), (I, n)
        assert alpha_complement(I, n) == (alpha_recursion(complement(I, n)) if inside else 0), \
            (I, n)
        assert (b_value(I, n), d_value(I, n)) == points[I, n], (I, n)


def test_each_entry_is_computed_once_per_table(monkeypatch, capsys):
    # Over a whole phi query, each table reads every entry it meets once
    # from its entry function: the psi table from psi_pair, the alpha
    # table from _alpha_pair, and the complement tables of n from
    # _psi_pair_complement and _alpha_pair_complement at n.  The tables'
    # columns are the only store of the entries, so no entry function
    # keeps a cache of its own.
    entries = (psi_pair, lascoux._alpha_pair, lascoux._psi_pair_complement,
               lascoux._alpha_pair_complement, lascoux._alpha_single_complement)
    assert not [fn for fn in entries if hasattr(fn, "cache_info")]
    calls = defaultdict(int)

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__, args] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lascoux, "_pf", exact.pfaffian_table(lascoux.psi_single,
                                                             counting(psi_pair)))
    monkeypatch.setattr(lascoux, "_pf_alpha",
                        exact.pfaffian_table(lascoux._alpha_single,
                                             counting(lascoux._alpha_pair)))
    for name in ("_psi_pair_complement", "_alpha_pair_complement"):
        monkeypatch.setattr(lascoux, name, counting(getattr(lascoux, name)))
    tables = (lascoux._psi_complement_table, lascoux._alpha_complement_table)
    for table in tables:
        table.cache_clear()
    try:
        assert cli.main(["phi", "--type", "sym", "-n", "9", "-d", "20", "--unsafe-range"]) == 0
        assert cli.main(["phi", "--type", "d", "-n", "4", "-d", "12"]) == 0
    finally:
        for table in tables:
            table.cache_clear()
    assert capsys.readouterr().out
    assert {name for name, _ in calls} == {"psi_pair", "_alpha_pair", "_psi_pair_complement",
                                           "_alpha_pair_complement"}
    assert max(calls.values()) == 1


def test_s_ij_values():
    assert s_ij((1, 3), (0, 1)) == 2
    assert s_ij((0, 2), (0, 2)) == 1
    assert s_ij((2, 4), (2, 4)) == 1
    assert s_ij((1, 2), (0, 3)) == 0
    with pytest.raises(ValueError):
        s_ij((1,), (0, 1))


def test_s_ij_against_oracle_rows():
    for r in (1, 2):
        for I in itertools.combinations(range(6), r):
            row = sij_row_oracle(I)
            for J in itertools.combinations(range(6), r):
                assert s_ij(I, J) == row.get(J, 0), (I, J)


def test_s_ij_inverse_pair():
    sets = list(itertools.combinations(range(7), 2))
    for I in sets:
        for K in sets:
            total = sum(
                s_ij(I, J) * (-1) ** (sum(J) - sum(K)) * s_ij(J, K)
                for J in sets
            )
            assert total == (1 if I == K else 0), (I, K)


def test_d_a_values():
    assert d_a((0,), (0,)) == 1
    assert d_a((1,), (1,)) == 2
    assert d_a((0, 2), (1, 2)) == 3
    assert d_a((0, 2), (1, 3)) == 7
    assert d_a((1,), (2,)) == 3
    assert d_a((0,), (0, 2)) == 1
    assert d_a((1,), (0, 1)) == 2
    assert d_a((1, 2), (1, 2)) == 3
    assert d_a((1,), (1, 2)) == 0
    assert d_a((1,), (0, 2)) == 3
    assert d_a((1, 3), (1, 2)) == 8
    assert d_a((), ()) == 1


def _cauchy_binet(I, J, lower):
    """d_a(I, J) for sets of one size by Cauchy-Binet: C(i+j, i) is the
    sum over k of C(i, k) C(j, k), so the minor is the sum of
    s_ij(I, K) s_ij(J, K) over the sets K below both.  lower maps a set
    to {K: s_ij(set, K)} over its lower sets."""
    below_J = lower[J]
    return sum(c * below_J[K] for K, c in lower[I].items() if K in below_J)


def _lower_minors(sets):
    return {S: {K: s_ij(S, K) for K in lower_sets(S)} for S in sets}


def test_d_a_is_the_binomial_determinant():
    subsets = {r: list(itertools.combinations(range(8), r)) for r in range(6)}
    lower = _lower_minors(S for r in range(5) for S in subsets[r])
    for r in range(5):
        for I in subsets[r]:
            for J in subsets[r]:
                assert d_a(I, J) == _cauchy_binet(I, J, lower), (I, J)
    # Sizes that differ by t: the segment rule, 0 unless the larger set
    # starts with [t], and then the equal-size value with [t] dropped.
    for r in range(4):
        for t in (1, 2):
            for I in subsets[r]:
                for J in subsets[r + t]:
                    if J[:t] == tuple(range(t)):
                        expected = _cauchy_binet(I, J[t:], lower)
                    else:
                        expected = 0
                    assert d_a(I, J) == d_a(J, I) == expected, (I, J)


def test_d_a_of_five_rows():
    I, J = tuple(range(0, 10, 2)), tuple(range(1, 15, 3))
    lower = _lower_minors((I, J))
    expected = _cauchy_binet(I, J, lower)
    assert d_a(I, J) == expected > 0
    assert d_a(I, (0,) + J) == d_a((0,) + J, I) == expected
    assert d_a(I, J + (20,)) == 0


def test_a_wide_pair_computes_one_entry(monkeypatch):
    # The expansion reads the entries of the highest row one at a time,
    # so a set {0, t} computes the single pair entry (0, t), not the
    # row below t.
    for name, single, pair, value in (("_pf", lascoux.psi_single, psi_pair, psi),
                                      ("_pf_alpha", lascoux._alpha_single,
                                       lascoux._alpha_pair, alpha)):
        calls = []

        def counting(i, j):
            calls.append((i, j))
            return pair(i, j)

        pf = exact.pfaffian_table(single, counting)
        monkeypatch.setattr(lascoux, name, pf)
        value((0, 20000))
        assert calls == [(0, 20000)], name
        assert len(pf.memo) == 2, name


def test_d_a_symmetry_and_unequal_oracle():
    for I in itertools.combinations(range(5), 1):
        for J in itertools.combinations(range(5), 2):
            assert d_a(I, J) == d_a(J, I)
            assert d_a(I, J) == d_oracle(I, J), (I, J)
    # The segment rule of d_a against the oracle, which does not use it.
    for a, b in ((1, 2), (1, 3), (2, 3)):
        for I in itertools.combinations(range(6), a):
            for J in itertools.combinations(range(6), b):
                assert d_a(I, J) == d_oracle(I, J), (I, J)


def test_d_a_recursion_matches():
    for r in (0, 1, 2):
        for I in itertools.combinations(range(5), r):
            for J in itertools.combinations(range(5), r):
                assert d_a_recursion(I, J) == d_a(I, J), (I, J)
    for I in itertools.combinations(range(5), 2):
        for J in itertools.combinations(range(5), 2):
            assert d_a(I, J) == d_oracle(I, J), (I, J)


def _d_a_complement_reference(I, J, n):
    """d_a at the complement sets in [n], or 0 when a set pokes out."""
    if not set(I + J) <= set(range(n)):
        return 0
    return d_a(complement(I, n), complement(J, n))


def test_d_a_complement():
    assert d_a_complement((), (), 2) == d_a((0, 1), (0, 1))
    assert d_a_complement((5,), (0,), 3) == 0
    assert d_a_complement((0,), (1,), 3) == d_a((1, 2), (0, 2))
    # Equal and unequal sizes, and sets poking one past [n].
    cases = 0
    for n in range(8):
        sets = [I for r in range(4) for I in itertools.combinations(range(n + 1), r)]
        for I in sets:
            for J in sets:
                if abs(len(I) - len(J)) <= 2:
                    cases += 1
                    expected = _d_a_complement_reference(I, J, n)
                    assert d_a_complement(I, J, n) == expected, (I, J, n)
    assert cases == 15242


def test_d_a_complement_entries_closed_form():
    for n in range(30):
        for i in range(n):
            for j in range(n):
                expected = sum(math.comb(k, i) * math.comb(k, j) for k in range(n))
                assert lascoux._d_a_pair_complement(i, j, n) == expected, (i, j, n)


def test_binomial_matrix_is_pascal_gram():
    # [C(a+b, a)] on [n] is L L^T, with L the Pascal matrix C(a, b), so
    # its determinant is 1 and Jacobi turns complementary minors into
    # minors of the inverse.
    for n in range(1, 13):
        L = [[math.comb(a, b) for b in range(n)] for a in range(n)]
        gram = [[sum(x * y for x, y in zip(row_a, row_b)) for row_b in L] for row_a in L]
        assert gram == [[math.comb(a + b, a) for b in range(n)] for a in range(n)], n


def test_d_a_complement_builds_no_complement_sets(monkeypatch):
    def refuse(*args):
        raise AssertionError("the square complement built a complement set")

    pairs = [(I, J) for I in itertools.combinations(range(6), 2)
             for J in itertools.combinations(range(6), 3)]
    pairs += [(I, J) for I in itertools.combinations(range(6), 3)
              for J in itertools.combinations(range(6), 3)]
    expected = {(I, J): _d_a_complement_reference(I, J, 6) for I, J in pairs}
    items = degrees.direct_terms("a", 12, 6, 3)
    total = sum(weight * d_a(I, J) * _d_a_complement_reference(I, J, 6)
                for weight, (I, J) in items)
    monkeypatch.setattr(lascoux, "complement", refuse, raising=False)
    monkeypatch.setattr(lascoux, "d_a", refuse)
    for (I, J), value in expected.items():
        assert d_a_complement(I, J, 6) == value, (I, J)
    assert (degrees.delta_type_a_partial(6, items) == total
            == degrees.delta_direct_info("a", 12, 6, 3)[0])


def test_completeness_of_expansion():
    # the fast values must reassemble the full homogeneous sums
    for family, fast in (("psi", psi), ("alpha", alpha)):
        for r in (1, 2, 3):
            # x_i + x_j for i <= j (psi) or i < j (alpha), as coefficient vectors
            forms = [tuple(int(k == i) + int(k == j) for k in range(r))
                     for i in range(r) for j in range(i if family == "psi" else i + 1, r)]
            levels = hom_full(forms, 6, r)
            for d in range(7):
                assembled = defaultdict(int)
                staircase = r * (r - 1) // 2
                for I in enumerate_indexsets(r, d + staircase):
                    c = fast(I)
                    if not c:
                        continue
                    for mono, k in schur_full(lambda_of(I), r).items():
                        assembled[mono] += c * k
                assert dict(assembled) == levels[d], (family, r, d)
