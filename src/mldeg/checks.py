"""Named invariant suites over the degree formulas.

Each suite expands to a flat list of small independent tasks.  Tasks
are plain tuples of primitives so they can fan out to worker
processes; run_task executes one and reports pass or fail together
with a counterexample dump.  Suites pass only when every task does.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .degrees import (
    TYPE_TABLE,
    delta_direct_info,
    delta_nrs_info,
    delta_sym,
    delta_type_a,
    pataki_window,
    phi_sym,
)
from .exact import PolyQ, binom
from .indexsets import enumerate_indexsets, format_indexset, leq, lower_sets
from .lascoux import (
    alpha,
    alpha_complement,
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
    lp_a_lift_residual,
    lp_a_shift_residual,
    lp_d_parity_residuals,
    lp_d_quasipoly,
    lp_lift_residual,
    lp_poly,
    lp_shift_residual,
)
from .pool import fork_map
from .qschur import b_poly, d_value
from .schur_oracle import alpha_oracle, d_oracle, psi_oracle

_TASK_KINDS = {}


def _task(fn):
    _TASK_KINDS[fn.__name__] = fn
    return fn


def _fmt(arg):
    if isinstance(arg, tuple):
        return format_indexset(arg)
    return str(arg)


def task_label(task):
    kind, args = task[0], task[1:]
    if not args:
        return kind
    return kind + " " + " ".join(_fmt(a) for a in args)


def run_task(task):
    """Execute one task tuple; detail is empty exactly when it passed."""
    detail = _TASK_KINDS[task[0]](*task[1:])
    return {"task": task_label(task), "ok": detail is None, "detail": detail or ""}


def _upper_sets(J, cap):
    for t in range(sum(J), cap + 1):
        for I in enumerate_indexsets(len(J), t):
            if leq(J, I):
                yield I


def _ambient_dim(kind, n):
    return TYPE_TABLE[(kind, "window")](n, 0)[1]


# (family, path) -> the function behind it, and each family's fast path;
# the other paths check it.  One flat dict, so that perfbench/spans.py
# can rebind its entries.
ROUTES = {
    ("psi", "pfaffian"): psi, ("psi", "pascal"): psi_pascal,
    ("psi", "recursion"): psi_recursion, ("psi", "oracle"): psi_oracle,
    ("psi", "complement"): psi_complement,
    ("alpha", "recursion"): alpha, ("alpha", "oracle"): alpha_oracle,
    ("alpha", "complement"): alpha_complement,
    ("d", "pascal"): d_a, ("d", "recursion"): d_a_recursion, ("d", "oracle"): d_oracle,
    ("d", "complement"): d_a_complement,
}
FAST_PATH = {"psi": "pfaffian", "alpha": "recursion", "d": "pascal"}


def route_refusal(family, path, sets):
    """Why the route cannot take these sets, or None when it can."""
    if (family, path) == ("d", "recursion") and len(sets[0]) != len(sets[1]):
        return "recursion path needs sets of equal size"
    return None


def _routes_agree(family, sets, expected=None):
    """Run every route of the family but complement; None when all agree."""
    values = {path: fn(*sets) for (fam, path), fn in ROUTES.items()
              if fam == family and path != "complement"
              and route_refusal(family, path, sets) is None}
    fast_path = FAST_PATH[family]
    fast = values[fast_path]
    where = ", ".join(format_indexset(S) for S in sets)
    wrong = {path: v for path, v in values.items() if v != fast}
    if wrong:
        return f"{family} route disagreement at ({where}): {wrong} vs {fast_path} {fast}"
    if expected is not None and fast != expected:
        return f"value at ({where}) is {fast}, expected {expected}"
    return None


@_task
def psi_paths(I, expected=None):
    return _routes_agree("psi", (I,), expected)


@_task
def alpha_paths_line(I):
    return _routes_agree("alpha", (I,))


@_task
def da_paths_pair(I, J):
    return _routes_agree("d", (I, J))


@_task
def phi_anchor(n, d, expected):
    got = phi_sym(n, d)
    if got != expected:
        return f"phi({n},{d}) = {got}, expected {expected}"
    return None


def _nrs_line(kind, n, s):
    for m in range(1, _ambient_dim(kind, n) + 1):
        direct = delta_direct_info(kind, m, n, n - s)[0]
        closed = delta_nrs_info(kind, m, n, n - s)[0]
        if direct != closed:
            return (f"{kind} closed form mismatch at (m={m}, n={n}, s={s}): "
                    f"direct {direct}, closed {closed}")
    return None


_TASK_KINDS.update(
    nrs_sym_line=functools.partial(_nrs_line, "sym"),
    nrs_a_line=functools.partial(_nrs_line, "a"),
    nrs_d_line=functools.partial(_nrs_line, "d"),
)


@_task
def duality_line(n, s):
    top = binom(n + 1, 2)
    for m in range(0, top + 1):
        left = delta_sym(m, n, n - s)
        right = delta_sym(top - m, n, s)
        if left != right:
            return f"duality mismatch at (m={m}, n={n}, s={s}): {left} vs {right}"
    return None


@_task
def pataki_line(mtype, n, r):
    lo, hi = pataki_window(mtype, n, r)
    for m in range(0, _ambient_dim(mtype, n) + 2):
        v = delta_direct_info(mtype, m, n, r)[0]
        if not lo <= m <= hi and v != 0:
            return f"{mtype}: nonzero outside window at (m={m}, n={n}, r={r}): {v}"
    for m in (lo, hi):
        if delta_direct_info(mtype, m, n, r)[0] == 0:
            return f"{mtype}: zero at window endpoint (m={m}, n={n}, r={r})"
    return None


@_task
def leading_line(I):
    # The fit checks its degree, its leading coefficient and five more
    # points, and raises ConsistencyError on a miss.
    lp_poly(I)
    return None


@_task
def b_identity_line(I):
    forward = PolyQ(())
    backward = PolyQ(())
    for J in lower_sets(I):
        gap = sum(I) - sum(J)
        c = s_ij(I, J)
        forward = forward + Fraction(1, 2) ** gap * c * lp_poly(J)
        backward = backward + Fraction(-1, 2) ** gap * c * b_poly(J)
    if forward != b_poly(I):
        return f"half-power transform failed at {format_indexset(I)}"
    if backward != lp_poly(I):
        return f"inverse half-power transform failed at {format_indexset(I)}"
    return None


@_task
def d_identity_line(I, nmax=12):
    lows = list(lower_sets(I))
    for n in range(nmax + 1):
        forward = Fraction(0)
        backward = Fraction(0)
        for J in lows:
            gap = sum(I) - sum(J)
            c = s_ij(I, J)
            forward += Fraction(1, 2) ** gap * c * alpha_complement(J, n)
            backward += Fraction(-1, 2) ** gap * c * d_value(J, n)
        if forward != d_value(I, n):
            return f"skew transform failed at {format_indexset(I)}, n={n}"
        if backward != alpha_complement(I, n):
            return f"inverse skew transform failed at {format_indexset(I)}, n={n}"
    return None


@_task
def conormal_line(n):
    for r in range(0, n + 1):
        for m in range(0, n * n + 1):
            left = delta_type_a(m, n, r)
            right = delta_type_a(n * n - m, n, n - r)
            if left != right:
                return f"conormal symmetry failed at (m={m}, n={n}, r={r}): {left} vs {right}"
    return None


@_task
def quasi_d_line(I):
    branches = lp_d_quasipoly(I)
    for k in range(13):
        if branches[k % 2](k) != alpha_complement(I, k):
            return f"quasi-polynomial miss at {format_indexset(I)}, k={k}"
    return None


@_task
def certificate_line(I):
    if I and I[0] == 0:
        res = lp_lift_residual(I)
        if res:
            return f"lift recurrence failed at {format_indexset(I)}: residual {res!r}"
    elif 0 not in I:
        res = lp_shift_residual(I)
        if res:
            return f"shift recurrence failed at {format_indexset(I)}: residual {res!r}"
    return None


@_task
def certificate_pair_line(I, J):
    if I and J and I[0] == 0 and J[0] == 0:
        res = lp_a_lift_residual(I, J)
        if res:
            return f"two-set lift recurrence failed at ({format_indexset(I)}, {format_indexset(J)})"
    elif 0 not in I and 0 not in J:
        res = lp_a_shift_residual(I, J)
        if res:
            return f"two-set shift recurrence failed at ({format_indexset(I)}, {format_indexset(J)})"
    return None


@_task
def certificate_skew_line(I):
    even_res, odd_res = lp_d_parity_residuals(I)
    if even_res or odd_res:
        return f"parity recurrence failed at {format_indexset(I)}"
    return None


@_task
def sij_sym_line(J, m):
    s = len(J)
    total = Fraction(0)
    for I in _upper_sets(J, m - s):
        total += (psi(I) * Fraction(-1, 2) ** (sum(I) - sum(J))
                  * s_ij(I, J) * binom(m - 1, m - s - sum(I)))
    expected = psi(J) if sum(J) == m - s else 0
    if total != expected:
        return f"alternating sum failed at (J={format_indexset(J)}, m={m}): {total} vs {expected}"
    return None


@_task
def sij_a_line(K, L, m):
    r = len(K)
    total = 0
    for I in _upper_sets(K, m - r - sum(L)):
        total += (d_a(I, L) * (-1) ** (sum(I) - sum(K))
                  * s_ij(I, K) * binom(m - 1, m - r - sum(I) - sum(L)))
    expected = d_a(K, L) if sum(K) + sum(L) == m - r else 0
    if total != expected:
        return (f"square alternating sum failed at (K={format_indexset(K)}, "
                f"L={format_indexset(L)}, m={m}): {total} vs {expected}")
    return None


@_task
def sij_d_line(J, m):
    total = Fraction(0)
    for I in _upper_sets(J, m):
        total += (alpha(I) * Fraction(-1, 2) ** (sum(I) - sum(J))
                  * s_ij(I, J) * binom(m - 1, m - sum(I)))
    expected = alpha(J) if sum(J) == m else 0
    if total != expected:
        return f"skew alternating sum failed at (J={format_indexset(J)}, m={m}): {total} vs {expected}"
    return None


@_task
def fundamental_line(n):
    for d in range(1, binom(n + 1, 2) + 1):
        total = sum(s * delta_sym(d, n, n - s) for s in range(1, n + 1))
        if total != n * phi_sym(n, d):
            return f"rank-weighted sum failed at (n={n}, d={d})"
    return None


def _sets_by_sum(max_size, sum_max, min_size=1):
    out = []
    if min_size == 0:
        out.append(())
    for r in range(max(1, min_size), max_size + 1):
        for t in range(sum_max + 1):
            out.extend(enumerate_indexsets(r, t))
    return out


_WORKED_PSI = (((0, 2), 3), ((0, 3), 7), ((1, 2), 3), ((1, 3), 10), ((2, 3), 10))
_CONIC_COUNTS = (1, 2, 4, 4, 2, 1)


def _suite_worked(nmax, sum_max):
    return [("psi_paths", I, v) for I, v in _WORKED_PSI]


def _suite_conics(nmax, sum_max):
    return [("phi_anchor", 3, d, _CONIC_COUNTS[d - 1]) for d in range(1, 7)]


def _suite_nrs_sym(nmax, sum_max):
    nmax = 6 if nmax is None else nmax
    return [("nrs_sym_line", n, s) for n in range(2, nmax + 1) for s in range(1, n)]


def _suite_duality(nmax, sum_max):
    nmax = 6 if nmax is None else nmax
    return [("duality_line", n, s) for n in range(2, nmax + 1) for s in range(1, n)]


def _suite_pataki(nmax, sum_max):
    nmax = 6 if nmax is None else nmax
    tasks = [("pataki_line", "sym", n, r)
             for n in range(2, nmax + 1) for r in range(1, n)]
    for mtype in ("a", "d"):
        for n in range(2, min(nmax, 4) + 1):
            for r in range(1, n):
                tasks.append(("pataki_line", mtype, n, r))
    return tasks


def _suite_leading(nmax, sum_max):
    sum_max = 8 if sum_max is None else sum_max
    return [("leading_line", I) for I in _sets_by_sum(3, sum_max, min_size=0)]


def _suite_b_identity(nmax, sum_max):
    sum_max = 8 if sum_max is None else sum_max
    return [("b_identity_line", I) for I in _sets_by_sum(3, sum_max, min_size=0)]


def _suite_d_identity(nmax, sum_max):
    sum_max = 8 if sum_max is None else sum_max
    return [("d_identity_line", I) for I in _sets_by_sum(3, sum_max, min_size=0)]


def _suite_psi_paths(nmax, sum_max):
    cap = 6 if nmax is None else nmax
    tasks = []
    for r in (1, 2, 3):
        for I in itertools.combinations(range(cap + 1), r):
            tasks.append(("psi_paths", I))
    return tasks


def _suite_alpha_paths(nmax, sum_max):
    cap = 8 if nmax is None else nmax
    tasks = []
    for r in (1, 2, 3, 4):
        for I in itertools.combinations(range(cap + 1), r):
            tasks.append(("alpha_paths_line", I))
    return tasks


def _suite_da_paths(nmax, sum_max):
    cap = 6 if nmax is None else nmax
    tasks = []
    for r in (1, 2, 3):
        for I in itertools.combinations(range(cap + 1), r):
            for J in itertools.combinations(range(cap + 1), r):
                tasks.append(("da_paths_pair", I, J))
    return tasks


def _suite_nrs_a(nmax, sum_max):
    nmax = 4 if nmax is None else nmax
    return [("nrs_a_line", n, r) for n in range(2, nmax + 1) for r in range(1, n)]


def _suite_nrs_d(nmax, sum_max):
    nmax = 4 if nmax is None else nmax
    return [("nrs_d_line", n, r) for n in range(2, nmax + 1) for r in range(1, n)]


def _suite_conormal(nmax, sum_max):
    nmax = 4 if nmax is None else nmax
    return [("conormal_line", n) for n in range(1, nmax + 1)]


def _suite_quasi_d(nmax, sum_max):
    sum_max = 6 if sum_max is None else sum_max
    return [("quasi_d_line", I) for I in _sets_by_sum(2, sum_max, min_size=0)]


def _suite_certificates(nmax, sum_max):
    sum_max = 8 if sum_max is None else sum_max
    tasks = [("certificate_line", I) for I in _sets_by_sum(3, sum_max, min_size=1)]
    pair_sets = _sets_by_sum(2, 5, min_size=1)
    for I in pair_sets:
        for J in pair_sets:
            if len(I) == len(J):
                tasks.append(("certificate_pair_line", I, J))
    for I in _sets_by_sum(3, sum_max, min_size=1):
        if I[0] == 0:
            tasks.append(("certificate_skew_line", I))
    return tasks


def _suite_sij(nmax, sum_max):
    sum_max = 6 if sum_max is None else sum_max
    tasks = []
    sets2 = [J for J in _sets_by_sum(2, sum_max, min_size=1)]
    for J in sets2:
        for m in range(len(J) + sum(J), 11):
            tasks.append(("sij_sym_line", J, m))
        for m in range(max(1, sum(J)), 11):
            tasks.append(("sij_d_line", J, m))
    small = [K for K in _sets_by_sum(2, 4, min_size=1) if all(v <= 4 for v in K)]
    for K in small:
        for L in small:
            if len(K) != len(L):
                continue
            for m in range(len(K) + sum(K) + sum(L), 11):
                tasks.append(("sij_a_line", K, L, m))
    return tasks


def _suite_fundamental(nmax, sum_max):
    nmax = 6 if nmax is None else nmax
    return [("fundamental_line", n) for n in range(1, nmax + 1)]


def _suite_all(nmax, sum_max):
    tasks = []
    for name, builder in _SUITES.items():
        if name != "all":
            tasks.extend(builder(nmax, sum_max))
    return tasks


_SUITES = {
    "worked": _suite_worked,
    "conics": _suite_conics,
    "nrs-sym": _suite_nrs_sym,
    "duality": _suite_duality,
    "pataki": _suite_pataki,
    "leading": _suite_leading,
    "b-identity": _suite_b_identity,
    "d-identity": _suite_d_identity,
    "psi-paths": _suite_psi_paths,
    "alpha-paths": _suite_alpha_paths,
    "da-paths": _suite_da_paths,
    "nrs-a": _suite_nrs_a,
    "nrs-d": _suite_nrs_d,
    "conormal": _suite_conormal,
    "quasi-d": _suite_quasi_d,
    "certificates": _suite_certificates,
    "sij-identities": _suite_sij,
    "fundamental": _suite_fundamental,
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
