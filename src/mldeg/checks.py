"""Named invariant suites over the degree formulas.

Each suite expands to a flat list of small independent tasks.  A task
is a tuple of a module-level function of this module and its primitive
arguments, the type or family first where one function serves several,
so it pickles by reference and can fan out to worker processes;
run_task executes one and reports pass or fail together with a
counterexample dump.  Suites pass only when every task does.
"""

from __future__ import annotations

import functools
import itertools
import sys

from .degrees import (
    SHAPES,
    ambient_dim,
    delta_direct_info,
    delta_nrs_info,
    pataki_window,
    phi_sym,
)
from .exact import binom
from .indexsets import enumerate_indexsets, format_indexset, lower_sets
from .lascoux import (
    alpha,
    alpha_complement,
    alpha_recursion,
    d_a,
    d_a_complement,
    d_a_recursion,
    psi,
    psi_complement,
    psi_pascal,
    psi_recursion,
    s_ij,
)
from .poly_n import (
    b_poly,
    combine,
    evaluate,
    lp_a_poly,
    lp_d_parity_residuals,
    lp_d_quasipoly,
    lp_lift_residual,
    lp_poly,
    lp_shift_residual,
)
from .pool import fork_map
from .qschur import d_value
from .schur_oracle import alpha_oracle, d_oracle, psi_oracle

def _fmt(arg):
    if isinstance(arg, tuple):
        return format_indexset(arg)
    return str(arg)


def task_label(task):
    return " ".join([task[0].__name__, *map(_fmt, task[1:])])


def run_task(task):
    """Execute one task tuple; detail is empty exactly when it passed."""
    detail = task[0](*task[1:])
    return {"task": task_label(task), "ok": detail is None, "detail": detail or ""}


# (family, path) -> the function that takes the family's sets and
# returns its value, and each family's fast path; the other paths check
# it.  The complement at [n] is another quantity, with n as one more
# argument, so it has a table of its own.  Flat dicts, so that
# perfbench/spans.py can rebind their entries.
ROUTES = {
    ("psi", "pfaffian"): psi, ("psi", "pascal"): psi_pascal,
    ("psi", "recursion"): psi_recursion, ("psi", "oracle"): psi_oracle,
    ("alpha", "pfaffian"): alpha, ("alpha", "recursion"): alpha_recursion,
    ("alpha", "oracle"): alpha_oracle,
    ("d", "pascal"): d_a, ("d", "recursion"): d_a_recursion, ("d", "oracle"): d_oracle,
}
FAST_PATH = {"psi": "pfaffian", "alpha": "pfaffian", "d": "pascal"}
COMPLEMENTS = {"psi": psi_complement, "alpha": alpha_complement, "d": d_a_complement}


def route_refusal(family, path, sets):
    """Why the route cannot take these sets, or None when it can.

    The recursion nests about three frames per element of a set (the
    cached call, its body and the sum generator), so it takes at most a
    quarter of the recursion limit in elements, which leaves the rest to
    its caller.
    """
    if path != "recursion":
        return None
    if family == "d" and len(sets[0]) != len(sets[1]):
        return "recursion path needs sets of equal size"
    most = sys.getrecursionlimit() // 4
    if len(sets[0]) > most:
        return f"recursion path takes at most {most} elements per set"
    return None


def routes_line(family, *sets):
    """Run every route of the family at its sets; None when all agree."""
    values = {path: fn(*sets) for (fam, path), fn in ROUTES.items()
              if fam == family and route_refusal(family, path, sets) is None}
    fast_path = FAST_PATH[family]
    fast = values[fast_path]
    wrong = {path: v for path, v in values.items() if v != fast}
    if wrong:
        where = ", ".join(map(format_indexset, sets))
        return f"{family} route disagreement at ({where}): {wrong} vs {fast_path} {fast}"
    return None


def worked_line(I, expected):
    """The psi routes agree at I, and the fast one gives expected."""
    miss = routes_line("psi", I)
    value = ROUTES["psi", FAST_PATH["psi"]](I)
    if miss or value == expected:
        return miss
    return f"value at ({format_indexset(I)}) is {value}, expected {expected}"


def phi_anchor(n, d, expected):
    got = phi_sym(n, d)
    if got != expected:
        return f"phi({n},{d}) = {got}, expected {expected}"
    return None


def nrs_line(kind, n, s):
    for m in range(1, ambient_dim(kind, n) + 1):
        direct = delta_direct_info(kind, m, n, n - s)[0]
        closed = delta_nrs_info(kind, m, n, n - s)[0]
        if direct != closed:
            return (f"{kind} closed form mismatch at (m={m}, n={n}, s={s}): "
                    f"direct {direct}, closed {closed}")
    return None


def _duality_miss(kind, n, ranks):
    """The first (m, r, left, right) with delta(m, n, r) = left and
    delta(w(n) - m, n, n - r) = right unequal, or None."""
    top = ambient_dim(kind, n)
    for r in ranks:
        for m in range(top + 1):
            left = delta_direct_info(kind, m, n, r)[0]
            right = delta_direct_info(kind, top - m, n, n - r)[0]
            if left != right:
                return m, r, left, right
    return None


def duality_line(n, s):
    miss = _duality_miss("sym", n, [n - s])
    if miss:
        m, _, left, right = miss
        return f"duality mismatch at (m={m}, n={n}, s={s}): {left} vs {right}"
    return None


def pataki_line(mtype, n, r):
    lo, hi = pataki_window(mtype, n, r)
    for m in range(0, ambient_dim(mtype, n) + 2):
        v = delta_direct_info(mtype, m, n, r)[0]
        if not lo <= m <= hi and v != 0:
            return f"{mtype}: nonzero outside window at (m={m}, n={n}, r={r}): {v}"
    for m in (lo, hi):
        if delta_direct_info(mtype, m, n, r)[0] == 0:
            return f"{mtype}: zero at window endpoint (m={m}, n={n}, r={r})"
    return None


def leading_line(I):
    # The fit checks its degree, its leading coefficient and five more
    # points, and raises ConsistencyError on a miss.
    lp_poly(I)
    return None


def _transform_miss(what, I, value, transformed, where=""):
    """Where the half-power transform of value fails at I, or None.

    transformed(S) is 2^(sum(S) + #S) times the transform at S.  Over
    J <= I the sum of 2^(sum(J) + #J) s_ij(I, J) value(J) must be
    transformed(I), and the sum of (-1)^(sum(I) - sum(J)) s_ij(I, J)
    transformed(J) must be 2^(sum(I) + #I) value(I).  Both return int
    fits on one grid, or point values as constant 1-tuples.
    """
    forward = [(-1, transformed(I))]
    backward = [(-1 << (sum(I) + len(I)), value(I))]
    for J in lower_sets(I):
        c = s_ij(I, J)
        forward.append((c << (sum(J) + len(J)), value(J)))
        backward.append(((-1) ** (sum(I) - sum(J)) * c, transformed(J)))
    if combine(forward):
        return f"{what} failed at {format_indexset(I)}{where}"
    if combine(backward):
        return f"inverse {what} failed at {format_indexset(I)}{where}"
    return None


def b_identity_line(I):
    return _transform_miss("half-power transform", I, lp_poly, b_poly)


# The skew point checks evaluate at 13 points: d-identity at n = 0..12,
# quasi-d at k + 2 * (sum(I) + 6) for k = 0..12, past the fit's nodes.
_SKEW_POINTS_NMAX = 12


def d_identity_line(I):
    for n in range(_SKEW_POINTS_NMAX + 1):
        miss = _transform_miss("skew transform", I, lambda J: (alpha_complement(J, n),),
                               lambda J: (d_value(J, n),), f", n={n}")
        if miss:
            return miss
    return None


def conormal_line(n):
    miss = _duality_miss("a", n, range(n + 1))
    if miss:
        m, r, left, right = miss
        return f"conormal symmetry failed at (m={m}, n={n}, r={r}): {left} vs {right}"
    return None


def quasi_d_line(I):
    branches = lp_d_quasipoly(I)
    past_nodes = 2 * (sum(I) + 6)
    for k in range(past_nodes, past_nodes + _SKEW_POINTS_NMAX + 1):
        if evaluate(branches[k % 2], k // 2) != alpha_complement(I, k):
            return f"quasi-polynomial miss at {format_indexset(I)}, k={k}"
    return None


def certificate_line(*sets):
    """The lift recurrence when every set holds 0, the shift recurrence
    when none does, over one set or two of one size; for a pair with 0
    in one set only, the fit, which raises ConsistencyError on a miss."""
    if all(S and S[0] == 0 for S in sets):
        name, residual = "lift", lp_lift_residual
    elif all(0 not in S for S in sets):
        name, residual = "shift", lp_shift_residual
    else:
        lp_a_poly(*sets)
        return None
    res = residual(*sets)
    if not res:
        return None
    where = ", ".join(map(format_indexset, sets))
    if len(sets) == 1:
        return f"{name} recurrence failed at {where}: residual {res!r}"
    return f"two-set {name} recurrence failed at ({where})"


def certificate_skew_line(I):
    even_res, odd_res = lp_d_parity_residuals(I)
    if even_res or odd_res:
        return f"parity recurrence failed at {format_indexset(I)}"
    return None


def sij_line(kind, m, J, *others):
    """Sum of value(I) (-1)^(|I| - |J|) base^(top - |I|) s_ij(I, J)
    C(m-1, top - |I|) over I >= J up to |I| = top, |.| the entry sum,
    value(I) the type's kernel at (I, *others) and top = m - diagonal *
    #J - |L|, L the other set of square: the sum at ratio -1/base times
    base^(top - |J|), which a failure prints.  It must be value(J) when
    |J| = top and 0 otherwise.  The sum runs over every set of the size
    of J with |J| <= |I| <= top: s_ij(I, J) is 0 unless J <= I in every
    place, as J_p > I_p leaves rows 0..p zero from column p on."""
    value = {"sym": psi, "a": d_a, "d": alpha}[kind]
    _, _, diagonal, base = SHAPES[kind]
    top = m - diagonal * len(J) - sum(map(sum, others))
    total = sum(value(I, *others) * (-1) ** (t - sum(J)) * base ** (top - t) * c
                * binom(m - 1, top - t) for t in range(sum(J), top + 1)
                for I in enumerate_indexsets(len(J), t) if (c := s_ij(I, J)))
    expected = value(J, *others) if sum(J) == top else 0
    if total != expected:
        where = ", ".join(map(format_indexset, (J, *others)))
        return f"{kind} alternating sum failed at ({where}, m={m}): {total} vs {expected}"
    return None


def fundamental_line(n):
    # phi_sym divides the direct-route sum by n; this takes the closed form.
    for d in range(1, ambient_dim("sym", n) + 1):
        total = sum(s * delta_nrs_info("sym", d, n, n - s)[0] for s in range(1, n + 1))
        if total != n * phi_sym(n, d):
            return f"rank-weighted sum failed at (n={n}, d={d})"
    return None


def _sets_by_sum(max_size, sum_max, min_size=0):
    return [I for r in range(min_size, max_size + 1) for t in range(sum_max + 1)
            for I in enumerate_indexsets(r, t)]


_WORKED_PSI = (((0, 2), 3), ((0, 3), 7), ((1, 2), 3), ((1, 3), 10), ((2, 3), 10))
_CONIC_COUNTS = (1, 2, 4, 4, 2, 1)


def _suite_worked(nmax, sum_max):
    return [(worked_line, I, v) for I, v in _WORKED_PSI]


def _suite_conics(nmax, sum_max):
    return [(phi_anchor, 3, d, _CONIC_COUNTS[d - 1]) for d in range(1, 7)]


# The four shapes of suite.  Each takes its head (the task function, then
# its type or family if it takes one) and shape first, then its default
# cap, then the --nmax and --sum-max caps.


def _coranks(head, default, nmax, sum_max):
    """(*head, n, s) for 2 <= n <= nmax and coranks 1 <= s < n."""
    nmax = default if nmax is None else nmax
    return [(*head, n, s) for n in range(2, nmax + 1) for s in range(1, n)]


def _sizes(head, default, nmax, sum_max):
    """(*head, n) for 1 <= n <= nmax."""
    nmax = default if nmax is None else nmax
    return [(*head, n) for n in range(1, nmax + 1)]


def _by_sum(head, max_size, default, nmax, sum_max):
    """(*head, I) for the sets of size up to max_size and sum up to
    sum_max, the empty set first."""
    sum_max = default if sum_max is None else sum_max
    return [(*head, I) for I in _sets_by_sum(max_size, sum_max)]


def _subsets(head, sets, max_size, default, nmax, sum_max):
    """(*head, S_1, ..., S_sets) for every choice of sets subsets of
    {0..nmax} of one size up to max_size, the first set outermost."""
    cap = default if nmax is None else nmax
    return [(*head, *choice) for r in range(1, max_size + 1)
            for choice in itertools.product(itertools.combinations(range(cap + 1), r),
                                            repeat=sets)]


def _suite_pataki(nmax, sum_max):
    nmax = 6 if nmax is None else nmax
    return [(pataki_line, mtype, n, r)
            for mtype, top in (("sym", nmax), ("a", min(nmax, 4)), ("d", min(nmax, 4)))
            for n in range(2, top + 1) for r in range(1, n)]


def _suite_certificates(nmax, sum_max):
    sum_max = 8 if sum_max is None else sum_max
    sets = _sets_by_sum(3, sum_max, min_size=1)
    pair_sets = _sets_by_sum(2, 5, min_size=1)
    return ([(certificate_line, I) for I in sets]
            + [(certificate_line, I, J) for I in pair_sets for J in pair_sets
               if len(I) == len(J)]
            + [(certificate_skew_line, I) for I in sets if I[0] == 0])


def _suite_sij(nmax, sum_max):
    sum_max = 6 if sum_max is None else sum_max
    tasks = []
    for J in _sets_by_sum(2, sum_max, min_size=1):
        tasks += [(sij_line, "sym", m, J) for m in range(len(J) + sum(J), 11)]
        tasks += [(sij_line, "d", m, J) for m in range(max(1, sum(J)), 11)]
    small = _sets_by_sum(2, 4, min_size=1)
    return tasks + [(sij_line, "a", m, K, L) for K in small for L in small
                    if len(K) == len(L) for m in range(len(K) + sum(K) + sum(L), 11)]


def _suite_all(nmax, sum_max):
    tasks = []
    for name, builder in _SUITES.items():
        if name != "all":
            tasks.extend(builder(nmax, sum_max))
    return tasks


_SUITES = {
    "worked": _suite_worked,
    "conics": _suite_conics,
    "nrs-sym": functools.partial(_coranks, (nrs_line, "sym"), 6),
    "duality": functools.partial(_coranks, (duality_line,), 6),
    "pataki": _suite_pataki,
    "leading": functools.partial(_by_sum, (leading_line,), 3, 8),
    "b-identity": functools.partial(_by_sum, (b_identity_line,), 3, 8),
    "d-identity": functools.partial(_by_sum, (d_identity_line,), 3, 8),
    "psi-paths": functools.partial(_subsets, (routes_line, "psi"), 1, 3, 6),
    "alpha-paths": functools.partial(_subsets, (routes_line, "alpha"), 1, 4, 8),
    "da-paths": functools.partial(_subsets, (routes_line, "d"), 2, 3, 6),
    "nrs-a": functools.partial(_coranks, (nrs_line, "a"), 4),
    "nrs-d": functools.partial(_coranks, (nrs_line, "d"), 4),
    "conormal": functools.partial(_sizes, (conormal_line,), 4),
    "quasi-d": functools.partial(_by_sum, (quasi_d_line,), 2, 6),
    "certificates": _suite_certificates,
    "sij-identities": _suite_sij,
    "fundamental": functools.partial(_sizes, (fundamental_line,), 6),
    "all": _suite_all,
}


def suite_names():
    return list(_SUITES)


def build_suite(name, nmax=None, sum_max=None):
    builder = _SUITES.get(name)
    if builder is None:
        raise ValueError(f"unknown suite: {name!r}")
    return builder(nmax, sum_max)


def run_suite(name, nmax=None, sum_max=None, jobs=1):
    """Run one suite; returns (all results, failing results)."""
    tasks = build_suite(name, nmax=nmax, sum_max=sum_max)
    results = fork_map(run_task, tasks, jobs)
    failures = [r for r in results if not r["ok"]]
    return results, failures
