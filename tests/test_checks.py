"""Suite registry sanity: builders, dispatch, parallel determinism."""

import concurrent.futures
import json
import pathlib

import pytest

from mldeg import checks, pool, poly_n, qschur
from mldeg.checks import build_suite, run_suite, run_task, suite_names, task_label
from mldeg.exact import ConsistencyError, binom
from mldeg.indexsets import format_indexset, mask

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_suite_names():
    names = suite_names()
    assert "worked" in names
    assert "all" in names
    assert len(names) == len(set(names))


def test_unknown_suite():
    with pytest.raises(ValueError):
        build_suite("no-such-suite")


def test_task_labels():
    assert task_label((checks.psi_paths, (0, 3))) == "psi_paths {0,3}"
    assert task_label((checks.nrs_sym_line, 4, 2)) == "nrs_sym_line 4 2"
    assert task_label((checks.conormal_line,)) == "conormal_line"


def test_run_task_pass_and_fail():
    ok = run_task((checks.phi_anchor, 3, 2, 2))
    assert ok["ok"] and ok["detail"] == ""
    bad = run_task((checks.phi_anchor, 3, 2, 999))
    assert not bad["ok"]
    assert "999" in bad["detail"]


def test_worked_and_conics_pass():
    for name in ("worked", "conics"):
        results, failures = run_suite(name)
        assert results and not failures


def test_small_sweeps_pass():
    results, failures = run_suite("nrs-sym", nmax=4)
    assert len(results) == 6 and not failures
    results, failures = run_suite("pataki", nmax=3)
    assert not failures
    results, failures = run_suite("fundamental", nmax=4)
    assert not failures


def _below(J, I):
    """J <= I in every place, for sets of one size."""
    return all(j <= i for j, i in zip(J, I))


def _reaches(task, target):
    """Whether the alternating sum of task weighs the value at target by
    a nonzero coefficient.  Its terms run over sets T >= J, each weighed
    by a positive Pascal minor and C(m-1, top - sum(T)); the term of
    T = J with sum(T) = top is the expected value itself, so an error
    there cancels."""
    kind, J, others, m = task[0].__name__, task[1], task[2:-1], task[-1]
    T = target[0]
    top = m if kind == "sij_d_line" else m - len(J) - sum(map(sum, others))
    return (others == target[1:] and len(J) == len(T)
            and _below(J, T)
            and binom(m - 1, top - sum(T)) != 0 and (J, sum(T)) != (T, top))


@pytest.mark.parametrize("name, kind, target, prefix", [
    ("psi", "sij_sym_line", ((1, 3),), "alternating sum failed at"),
    ("alpha", "sij_d_line", ((1, 3),), "skew alternating sum failed at"),
    ("d_a", "sij_a_line", ((1, 2), (0, 2)), "square alternating sum failed at"),
])
def test_alternating_sums_catch_a_wrong_coefficient(monkeypatch, name, kind, target, prefix):
    true = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda *sets: true(*sets) + (sets == target))
    reached = 0
    for task in build_suite("sij-identities"):
        if task[0].__name__ != kind:
            continue
        result = run_task(task)
        if _reaches(task, target):
            reached += 1
            assert not result["ok"] and result["detail"].startswith(prefix), task
        else:
            assert result["ok"], task
    assert reached


def _clear_caches():
    for module in (qschur, poly_n):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_b_identity_reads_the_point_route(monkeypatch):
    # The b-identity suite must certify the values that the closed-form
    # sums use: with one Pfaffian of the point route corrupted, the task
    # over a set above it fails, by its detail or by a missed fit.  The
    # value is corrupted in the memo of each n's table, where the
    # expansions of larger sets read it too.  The caches are cleared on
    # both sides of the corruption.
    table = qschur._q_table
    bad_mask = mask((1, 3))  # the labels of b_value((0, 2), n)

    def corrupted(n):
        pf = table(n)
        if bad_mask not in pf.memo:
            pf.memo[bad_mask] = pf(bad_mask) + 1
        return pf

    _clear_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(qschur, "_q_table", corrupted)
            try:
                detail = checks.b_identity_line((0, 2, 3))
            except ConsistencyError as exc:
                detail = str(exc)
    finally:
        _clear_caches()
    assert detail is not None


def _suite_counts():
    """(suite, caps, task count) of every check key in the benchmark's
    reference outputs, such as "check da-paths nmax=4"."""
    for key, value in json.loads(REFERENCE.read_text()).items():
        words = key.split()
        if words[0] == "check":
            caps = {k: int(v) for k, v in (w.split("=") for w in words[2:])}
            yield words[1], caps, value["tasks"]


def test_suite_sizes_match_the_reference():
    counts = list(_suite_counts())
    assert len(counts) == len(suite_names()) - 1
    for name, caps, tasks in counts:
        assert len(build_suite(name, **caps)) == tasks, (name, caps)
    assert len(build_suite("all")) == 2978


def _failures(kind, suite="certificates"):
    """{label: detail} of the failing tasks of one kind in a suite."""
    results = [run_task(task) for task in build_suite(suite) if task[0].__name__ == kind]
    assert results
    return {r["task"]: r["detail"] for r in results if not r["ok"]}


def _plant(monkeypatch, module, name, target, wrong):
    """module.<name> returns wrong(value) at the arguments target."""
    true = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: wrong(true(*args)) if args == target else true(*args))


def _one_more(value):
    """One more on an int, or on the constant coefficient of a fit."""
    return value + 1 if isinstance(value, int) else poly_n.combine([(1, value), (1, (1,))])


def _on_value(change):
    """change on the value of a degree route's (value, terms) pair."""
    return lambda info: (change(info[0]), info[1])


def _off_by_one(monkeypatch, module, name, target):
    """module.<name> one more at target: on the value, or on the constant
    coefficient of a fit."""
    _plant(monkeypatch, module, name, target, _one_more)


def test_certificates_catch_a_wrong_polynomial(monkeypatch):
    # The one- and two-set tasks run one body; each keeps its own text.
    with monkeypatch.context() as mp:
        _off_by_one(mp, poly_n, "lp_poly", ((2, 4),))
        assert _failures("certificate_line") == {
            "certificate_line {2,5}": "shift recurrence failed at {2,5}: residual (-1,)",
            "certificate_line {3,4}": "shift recurrence failed at {3,4}: residual (-1,)",
            "certificate_line {3,5}": "shift recurrence failed at {3,5}: residual (-1,)",
            "certificate_line {0,1,4}": "lift recurrence failed at {0,1,4}: residual (2,)",
            "certificate_line {0,2,3}": "lift recurrence failed at {0,2,3}: residual (2,)",
            "certificate_line {0,2,4}":
                "lift recurrence failed at {0,2,4}: residual (2, -1)",
        }
    with monkeypatch.context() as mp:
        _off_by_one(mp, poly_n, "lp_a_poly", ((2,), (1,)))
        assert _failures("certificate_pair_line") == {
            f"certificate_pair_line {I} {J}":
                f"two-set {kind} recurrence failed at ({I}, {J})"
            for kind, I, J in (("shift", "{2}", "{2}"), ("shift", "{3}", "{1}"),
                               ("shift", "{3}", "{2}"), ("lift", "{0,1}", "{0,1}"),
                               ("lift", "{0,2}", "{0,1}"))
        }


def test_d_identity_catches_a_wrong_complement(monkeypatch):
    # Every set of size 2 above {1,3} weighs its value at n = 7 by a
    # positive Pascal minor in the forward transform.
    _off_by_one(monkeypatch, checks, "alpha_complement", ((1, 3), 7))
    expected = {}
    for _, I in build_suite("d-identity"):
        if len(I) == 2 and _below((1, 3), I):
            I = format_indexset(I)
            expected[f"d_identity_line {I}"] = f"skew transform failed at {I}, n=7"
    assert len(expected) == 11
    assert _failures("d_identity_line", "d-identity") == expected


@pytest.mark.parametrize("module, name, target, wrong, suite, expected", [
    (checks, "delta_nrs_info", ("sym", 2, 3, 2), _on_value(_one_more), "nrs-sym",
     {"nrs_sym_line 3 1": "sym closed form mismatch at (m=2, n=3, s=1): direct 6, closed 7"}),
    (checks, "delta_nrs_info", ("a", 2, 3, 2), _on_value(_one_more), "nrs-a",
     {"nrs_a_line 3 1": "a closed form mismatch at (m=2, n=3, s=1): direct 6, closed 7"}),
    (checks, "delta_nrs_info", ("d", 2, 3, 2), _on_value(_one_more), "nrs-d",
     {"nrs_d_line 3 1": "d closed form mismatch at (m=2, n=3, s=1): direct 6, closed 7"}),
    (checks, "delta_direct_info", ("sym", 2, 3, 2), _on_value(_one_more), "duality",
     {"duality_line 3 1": "duality mismatch at (m=2, n=3, s=1): 7 vs 6",
      "duality_line 3 2": "duality mismatch at (m=4, n=3, s=2): 6 vs 7"}),
    (checks, "delta_direct_info", ("a", 1, 2, 1), _on_value(_one_more), "conormal",
     {"conormal_line 2": "conormal symmetry failed at (m=1, n=2, r=1): 3 vs 2"}),
    (checks, "phi_sym", (3, 2), _one_more, "fundamental",
     {"fundamental_line 3": "rank-weighted sum failed at (n=3, d=2)"}),
    (checks, "delta_direct_info", ("sym", 1, 3, 1), _on_value(lambda v: 1), "pataki",
     {"pataki_line sym 3 1": "sym: nonzero outside window at (m=1, n=3, r=1): 1"}),
    (checks, "delta_direct_info", ("sym", 3, 3, 1), _on_value(lambda v: 0), "pataki",
     {"pataki_line sym 3 1": "sym: zero at window endpoint (m=3, n=3, r=1)"}),
    (checks, "alpha_complement", ((0, 1), 19), _one_more, "quasi-d",
     {"quasi_d_line {0,1}": "quasi-polynomial miss at {0,1}, k=19"}),
    (poly_n, "lp_d_quasipoly", ((0, 2),), lambda q: (_one_more(q[0]), q[1]), "certificates",
     {"certificate_skew_line {0,2}": "parity recurrence failed at {0,2}"}),
], ids=["nrs-sym", "nrs-a", "nrs-d", "duality", "conormal", "fundamental", "pataki-outside",
        "pataki-endpoint", "quasi-d", "certificate-skew"])
def test_check_tasks_catch_a_planted_value(monkeypatch, module, name, target, wrong, suite,
                                           expected):
    # One wrong value fails exactly the tasks that read it, each with its
    # own text.
    _plant(monkeypatch, module, name, target, wrong)
    kind = next(iter(expected)).split()[0]
    assert _failures(kind, suite) == expected


def test_b_identity_catches_a_wrong_b_poly(monkeypatch):
    # A wrong b_poly at {0,1} breaks the forward transform there and the
    # inverse transform at every set of size 2 above it.
    _off_by_one(monkeypatch, checks, "b_poly", ((0, 1),))
    expected = {"b_identity_line {0,1}": "half-power transform failed at {0,1}"}
    for _, I in build_suite("b-identity"):
        if len(I) == 2 and I != (0, 1) and _below((0, 1), I):
            I = format_indexset(I)
            expected[f"b_identity_line {I}"] = f"inverse half-power transform failed at {I}"
    assert len(expected) == 20
    assert _failures("b_identity_line", "b-identity") == expected


def test_caps_shrink_suites():
    full = build_suite("duality")
    small = build_suite("duality", nmax=3)
    assert len(small) < len(full)
    assert all(t[1] <= 3 for t in small)


def test_parallel_matches_serial():
    serial, _ = run_suite("duality", nmax=4, jobs=1)
    parallel, _ = run_suite("duality", nmax=4, jobs=3)
    assert serial == parallel


def test_forked_suite_matches_serial(monkeypatch, fork_calls):
    # A zero budget forks once the first task is done.
    serial, _ = run_suite("certificates", jobs=1)
    monkeypatch.setattr(pool, "FORK_AFTER_S", 0)
    forked, failures = run_suite("certificates", jobs=2)
    assert forked == serial and not failures
    assert fork_calls == [len(serial) - 1]


class _FakeTime:
    """Stands in for the time module in pool: sleeping moves its clock."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.mark.parametrize("delays", [
    [0.04, 0.04, 0.0],  # one item left once the budget is spent
    [0.01] * 8,  # three left, but together cheaper than the budget
])
def test_cheap_tail_forks_nothing(monkeypatch, delays):
    def refuse(*args, **kwargs):
        raise AssertionError("forked a pool for a tail cheaper than the budget")

    clock = _FakeTime()
    monkeypatch.setattr(pool, "time", clock)
    monkeypatch.setattr(pool, "FORK_AFTER_S", 0.05)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert pool.fork_map(clock.sleep, delays, 2) == [None] * len(delays)
    assert clock.now == sum(delays)


def test_small_suite_forks_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("forked a pool for work inside the budget")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    results, failures = run_suite("worked", jobs=2)
    assert results and not failures


def test_failure_surfaces_counterexample():
    results, failures = run_suite("worked")
    assert not failures
    # A deliberately wrong expectation must come back with a dump.
    res = run_task((checks.psi_paths, (0, 2), 4))
    assert not res["ok"]
    assert "{0,2}" in res["detail"]


@pytest.mark.parametrize("affinity", [True, False])
def test_forked_workers_capped_at_usable_cpus(monkeypatch, affinity):
    # A fork-context pool starts all its workers at once, so a large
    # --jobs must fork no more workers than the CPUs this process may use.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(pool, "FORK_AFTER_S", 0)
    if affinity:
        monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
    else:
        monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 3)
    items = list(range(-50, 50))
    assert pool.fork_map(abs, items, 5000) == [abs(x) for x in items]
    # Two items left after the first: two workers, not one per CPU.
    assert pool.fork_map(abs, [-1, 2, -3], 5000) == [1, 2, 3]
    assert sizes == [3, 2]


def test_one_usable_cpu_forks_nothing(monkeypatch):
    # jobs is capped at the usable CPUs before any item runs, so one CPU
    # runs every item here at any --jobs, with nothing pickled to a worker.
    def refuse(*args, **kwargs):
        raise AssertionError("forked a pool on one usable CPU")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(pool, "FORK_AFTER_S", 0)
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    items = list(range(-20, 20))
    assert pool.fork_map(abs, items, 2) == [abs(x) for x in items]
