"""Seeded, stratified operation lists for the three workloads.

A workload is a list of strata.  Each stratum has a fixed number of
operations per pass and a finite candidate space; the seed only picks
which candidates run, never how many operations a stratum gets, and
each candidate space is kept narrow enough that every candidate costs
about the same.  Every candidate's answer is in reference.json, which
make_reference.py builds from these same spaces.  README.md records
why each workload exists.

An operation is a dict:
  argv   arguments after ``python -m mldeg``
  key    reference.json key of the expected answer
  exit   expected exit code
  stratum
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("cli-desk", "sweep-large", "verify")


def _c2(a):
    return a * (a - 1) // 2


# Window of m where a degree is nonzero: the library's pataki_window,
# restated so that the operation lists never depend on the program.
def _window(kind, n, r):
    if kind == "sym":
        return _c2(n - r + 1), _c2(n + 1) - _c2(r + 1)
    if kind == "a":
        return (n - r) ** 2, n * n - r * r
    return _c2(2 * (n - r)), _c2(2 * n) - _c2(2 * r)


def fmt_set(I):
    return "{" + ",".join(str(x) for x in I) + "}"


def sets_with_weight(size, weight):
    """Index sets of the given size whose partition has the given weight."""
    out = []
    for parts in _partitions(weight, size):
        lam = parts + (0,) * (size - len(parts))
        out.append(tuple(lam[size - 1 - k] + k for k in range(size)))
    return sorted(out)


def _partitions(total, max_parts, max_part=None):
    if max_part is None:
        max_part = total
    if total == 0:
        return [()]
    if max_parts == 0:
        return []
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            out.append((first,) + rest)
    return out


def _subsets(universe, sizes):
    return [I for r in sizes for I in itertools.combinations(range(universe), r)]


# ------------------------------------------------------------ queries
#
# A query is a tuple (key, argv, exit).  Keys name the mathematical
# quantity, so the same key covers every path that computes it.

def q_psi(family, I, J=None, path=None):
    argv = ["psi", "--set", fmt_set(I)]
    key = f"psi {family} {fmt_set(I)}"
    if family != "psi":
        argv += ["--family", family]
    if J is not None:
        argv += ["--pair", fmt_set(J)]
        key += f" {fmt_set(J)}"
    if path is not None:
        argv += ["--path", path]
    return key, argv, 0


def q_complement(family, I, N, J=None):
    key, argv, code = q_psi(family, I, J)
    return f"{key} complement {N}", argv + ["--complement", str(N)], code


def q_delta(kind, m, n, r, path, unsafe=False, jobs=None):
    argv = ["delta", "--type", kind, "-m", str(m), "-n", str(n), "-r", str(r),
            "--path", path]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    if unsafe:
        argv.append("--unsafe-range")
    return f"delta {kind} {m} {n} {r}", argv, 0


def q_phi(kind, n, d, unsafe=False):
    argv = ["phi", "--type", kind, "-n", str(n), "-d", str(d)]
    if unsafe:
        argv.append("--unsafe-range")
    return f"phi {kind} {n} {d}", argv, 0


def q_poly(kind, d, unsafe=False):
    argv = ["phi", "--type", kind, "--poly", "-d", str(d)]
    if unsafe:
        argv.append("--unsafe-range")
    return f"poly {kind} {d}", argv, 0


def q_table(kind, dmax):
    return f"table {kind} {dmax}", ["phi", "--type", kind, "--table", str(dmax)], 0


def q_check(suite, nmax=None, jobs=2):
    argv = ["check", suite, "--jobs", str(jobs)]
    key = f"check {suite}"
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
        key += f" nmax={nmax}"
    return key, argv, 0


# ------------------------------------------------------------ strata

def _desk_strata():
    psi_fast = [q_psi("psi", I, path=p) for I in _subsets(9, (1, 2, 3, 4))
                for p in ("pfaffian", "pascal", "recursion")]
    alpha = [q_psi("alpha", I) for I in _subsets(8, (1, 2, 3, 4))]
    two_set = [q_psi("d", I, J, path=p)
               for r in (1, 2, 3)
               for I in itertools.combinations(range(6), r)
               for J in itertools.combinations(range(6), r)
               for p in ("pascal", "recursion")]
    comp = [q_complement("psi", I, N) for N in (6, 7, 8) for I in _subsets(N, (1, 2, 3))
            if I[-1] < N]
    comp += [q_complement("alpha", I, N) for N in (5, 6) for I in _subsets(N, (1, 2))]
    comp += [q_complement("d", I, N, J) for N in (5, 6)
             for r in (1, 2)
             for I in itertools.combinations(range(N), r)
             for J in itertools.combinations(range(N), r)]
    strata = [("psi-fast", 4, psi_fast), ("alpha", 3, alpha), ("two-set", 3, two_set),
              ("complement", 3, comp)]

    sizes = {"sym": range(4, 8), "a": range(2, 5), "d": range(2, 5)}
    for kind in ("sym", "a", "d"):
        for path in ("direct", "nrs", "both"):
            space = [q_delta(kind, m, n, r, path)
                     for n in sizes[kind] for r in range(1, n)
                     for m in range(_window(kind, n, r)[0], _window(kind, n, r)[1] + 1)]
            strata.append((f"delta-{kind}-{path}", 1, space))

    values = [q_phi(kind, n, d) for kind, ns in (("sym", range(2, 8)), ("a", range(1, 5)),
                                                  ("d", range(1, 5)))
              for n in ns for d in range(1, 13)]
    polys = [q_poly("sym", d) for d in range(5, 10)]
    polys += [q_poly(kind, d) for kind in ("a", "d") for d in range(5, 13)]
    strata += [
        ("phi-value", 6, values),
        ("phi-poly", 2, polys),
        ("phi-table-sym", 1, [q_table("sym", 12)]),
        ("phi-table-ad", 1, [q_table(kind, dmax) for kind in ("a", "d")
                             for dmax in range(8, 13)]),
    ]
    return strata


def _sweep_strata():
    # Each band varies a parameter the stratum's cost barely depends on:
    # the sym closed form sums the same corank-8 sets for every n, and
    # the phi and square bands were picked from neighbours of similar run
    # time.  The skew query's cost grows by a fifth per unit of m or n,
    # so its band is the single point.
    return [
        ("phi-sym", 1, [q_phi("sym", 17, d, unsafe=True) for d in (69, 70, 71)]),
        ("delta-sym-nrs", 1, [q_delta("sym", 60, n, n - 8, "nrs", unsafe=True)
                              for n in (15, 16, 17)]),
        ("phi-poly", 1, [q_poly("sym", 15, unsafe=True)]),
        ("delta-a-both", 1, [q_delta("a", 30, n, n - 3, "both", unsafe=True)
                             for n in (7, 8)]),
        ("delta-d-both", 1, [q_delta("d", 40, 7, 4, "both", unsafe=True)]),
    ]


SUITES = ("worked", "conics", "nrs-sym", "duality", "pataki", "leading",
          "b-identity", "d-identity", "psi-paths", "alpha-paths", "da-paths",
          "nrs-a", "nrs-d", "conormal", "quasi-d", "certificates",
          "sij-identities", "fundamental")

# (family, set size, expansion degree) of each oracle stratum.  The
# oracle's cost is set by the size and the degree alone, so every set
# in a stratum costs the same.
ORACLE_STRATA = (("psi", 4, 10), ("psi", 5, 10), ("alpha", 4, 12), ("alpha", 6, 10),
                 ("d", 2, 10), ("d", 3, 10))


def oracle_space(family, size, degree):
    if family != "d":
        return [q_psi(family, I, path="oracle") for I in sets_with_weight(size, degree)]
    return [q_psi("d", I, J, path="oracle")
            for w in range(degree + 1)
            for I in sets_with_weight(size, w)
            for J in sets_with_weight(size, degree - w)]


def _verify_strata():
    strata = [(f"check-{s}", 1, [q_check(s, nmax=4 if s == "da-paths" else None)])
              for s in SUITES]
    strata += [(f"oracle-{f}-{r}-{w}", 1, oracle_space(f, r, w))
               for f, r, w in ORACLE_STRATA]
    return strata


_STRATA = {"cli-desk": _desk_strata, "sweep-large": _sweep_strata,
           "verify": _verify_strata}


def strata(workload):
    if workload not in _STRATA:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _STRATA[workload]()


def build(workload, seed):
    """One pass of the workload: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for name, count, space in strata(workload):
        for key, argv, code in (rng.choice(space) for _ in range(count)):
            ops.append({"argv": argv, "key": key, "exit": code, "stratum": name})
    rng.shuffle(ops)
    return ops


# Fixed extra operations of the traced run, so that every per-layer
# metric is defined on every workload.  Operations with a role differ
# only in --jobs and give the two pool speed-ups.
PROBES = [
    (None, q_psi("psi", (0, 2, 5, 7))),
    (None, q_psi("psi", (1, 3, 6), path="pascal")),
    (None, q_psi("psi", (1, 3, 6), path="recursion")),
    (None, q_psi("d", (1, 4), (2, 3), path="recursion")),
    (None, q_psi("psi", (0, 2, 5, 8), path="oracle")),
    (None, q_psi("alpha", (0, 2, 5, 8), path="oracle")),
    (None, q_psi("d", (1, 4), (2, 3), path="oracle")),
    (None, q_delta("a", 9, 4, 2, "nrs")),
    (None, q_delta("d", 14, 4, 2, "both")),
    (None, q_poly("sym", 7)),
    ("jobs1", q_delta("sym", 44, 12, 6, "nrs", unsafe=True, jobs=1)),
    ("jobs2", q_delta("sym", 44, 12, 6, "nrs", unsafe=True, jobs=2)),
    ("pool1", q_check("alpha-paths", jobs=1)),
    ("pool2", q_check("alpha-paths", jobs=2)),
    ("pool1", q_check("leading", jobs=1)),
    ("pool2", q_check("leading", jobs=2)),
]


def probes():
    return [{"argv": argv, "key": key, "exit": code, "stratum": "probe", "role": role}
            for role, (key, argv, code) in PROBES]


def reference_space():
    """Key of every query any seed can draw, and of every probe."""
    keys = {key for workload in WORKLOADS for _, _, space in strata(workload)
            for key, _, _ in space}
    return sorted(keys | {key for _, (key, _, _) in PROBES})
