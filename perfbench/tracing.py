"""Traced run: per-layer metrics from spans around each layer's calls.

The traced run makes two passes over the workload's operations plus
the fixed probe operations (workloads.PROBES), each operation in a
fresh ``probe.py`` process so that memos start cold: one pass without
spans and one with them.  The untraced pass gives the cli timings and
the pool speed-ups; the traced pass gives every span metric; their
difference is the tracing overhead.  Probes make every layer metric
defined on every workload, including layers the workload itself does
not reach.

The spans of every traced operation are written, one JSON line per
operation, to .perfbench/spans-<workload>-<seed>.jsonl.gz.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import defaultdict

import gate
import launch
import workloads

INTERP_LAUNCHES = 5

# name, unit, better, the end-to-end metrics it should move.
LAYER_METRICS = (
    ("cli.interp_s", "s", "lower", "setup_s on every workload, cli-desk op_p50_s"),
    ("cli.import_s", "s", "lower", "setup_s on every workload, cli-desk op_p50_s"),
    ("cli.main_s", "s", "lower", "cli-desk.wall_s"),
    ("cli.jobs2_speedup", "ratio", "higher", "sweep-large.wall_s, if pooling is turned on"),
    ("indexsets.enumerate_s", "s", "lower", "sweep-large.wall_s"),
    ("indexsets.sets", "count", "lower", "sweep-large.wall_s"),
    ("lascoux.psi_s", "s", "lower", "sweep-large.wall_s"),
    ("lascoux.psi_calls", "count", "lower", "sweep-large.wall_s"),
    ("lascoux.psi_distinct_ratio", "ratio", "higher",
     "sweep-large.wall_s and sweep-large.peak_rss_mb"),
    ("lascoux.psi_complement_s", "s", "lower", "sweep-large.wall_s"),
    ("lascoux.alpha_s", "s", "lower", "sweep-large.wall_s"),
    ("lascoux.d_a_s", "s", "lower", "sweep-large.wall_s"),
    ("exact.pfaffian_s", "s", "lower", "sweep-large.wall_s"),
    ("exact.det_s", "s", "lower", "sweep-large.wall_s"),
    ("qschur.b_value_s", "s", "lower", "sweep-large.wall_s"),
    ("qschur.b_value_calls", "count", "lower", "sweep-large.wall_s"),
    ("qschur.d_value_s", "s", "lower", "sweep-large.wall_s"),
    ("degrees.direct_s", "s", "lower", "sweep-large.wall_s"),
    ("degrees.nrs_s", "s", "lower", "sweep-large.wall_s"),
    ("degrees.a_value_s", "s", "lower", "sweep-large.wall_s"),
    ("degrees.terms", "count", "lower", "sweep-large.wall_s"),
    ("poly_n.phi_poly_s", "s", "lower", "sweep-large.wall_s, cli-desk op_p90_s"),
    ("poly_n.points", "count", "lower", "sweep-large.wall_s, cli-desk op_p90_s"),
    ("poly_n.interpolate_s", "s", "lower", "sweep-large.wall_s, cli-desk op_p90_s"),
    ("schur_oracle.psi_oracle_s", "s", "lower", "verify.wall_s"),
    ("schur_oracle.alpha_oracle_s", "s", "lower", "verify.wall_s"),
    ("schur_oracle.d_oracle_s", "s", "lower", "verify.wall_s"),
    ("schur_oracle.calls", "count", "lower", "verify.wall_s"),
    ("lascoux.check_routes_s", "s", "lower", "verify.wall_s"),
    ("checks.suite_s", "s", "lower", "verify.wall_s"),
    ("checks.tasks", "count", "lower", "verify.wall_s"),
    ("checks.slowest_task_s", "s", "lower", "verify.wall_s"),
    ("checks.pool_speedup", "ratio", "higher", "verify.wall_s and verify.cpu_s"),
    ("trace.overhead_s", "s", "lower", "none; the cost of the spans themselves"),
)

_DIRECT = ("degrees.delta_sym_partial", "degrees.delta_type_a_partial",
           "degrees.delta_type_d_partial")
_NRS = ("degrees.delta_sym_nrs_partial", "degrees.delta_type_a_nrs_partial",
        "degrees.delta_type_d_nrs_partial")
_PHI = ("degrees.phi_sym", "degrees.phi_type_a", "degrees.phi_type_d")
_ORACLES = ("schur_oracle.psi_oracle", "schur_oracle.alpha_oracle",
            "schur_oracle.d_oracle")
_CHECK_ROUTES = ("lascoux.psi_pascal", "lascoux.psi_recursion", "lascoux.d_a_recursion")


def _covered(intervals, start, end):
    """Length of [start, end] covered by the intervals.

    Check tasks of one suite run side by side in two workers, so child
    spans can overlap; self time subtracts their union, not their sum.
    """
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class SpanTotals:
    """Per-function sums over the spans of many operations."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)   # outermost calls only
        self.extra = defaultdict(int)       # summed integer extras
        self.slowest_task_s = 0.0
        self.poly_points = 0
        self.poly_psi_sets = []

    def add(self, spans):
        names = {}
        children = defaultdict(list)
        for sid, parent, name, start, end, outer, extra in spans:
            names[sid] = name
            children[parent].append((start, end))
        for sid, parent, name, start, end, outer, extra in spans:
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - _covered(children[sid], start, end)
            if outer:
                self.total_s[name] += duration
            if name == "lascoux.psi":
                if extra is not None:
                    self.poly_psi_sets.append(tuple(extra))
            elif isinstance(extra, int):
                self.extra[name] += extra
            if name == "checks.task":
                self.slowest_task_s = max(self.slowest_task_s, duration)
            if name in _PHI and names.get(parent) == "poly_n.phi_poly":
                self.poly_points += 1

    def layer_self_s(self):
        layers = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".")[0]] += seconds
        return dict(sorted(layers.items()))

    def metrics(self):
        def s(name):
            return self.self_s.get(name, 0.0)

        def total(name):
            return self.total_s.get(name, 0.0)

        def calls(name):
            return self.calls.get(name, 0)

        def extra(name):
            return self.extra.get(name, 0)

        sets = self.poly_psi_sets
        return {
            "indexsets.enumerate_s": s("indexsets.enumerate_indexsets"),
            "indexsets.sets": extra("indexsets.enumerate_indexsets"),
            "lascoux.psi_s": s("lascoux.psi"),
            "lascoux.psi_calls": calls("lascoux.psi"),
            "lascoux.psi_distinct_ratio": len(set(sets)) / len(sets) if sets else 0.0,
            "lascoux.psi_complement_s": s("lascoux.psi_complement"),
            "lascoux.alpha_s": s("lascoux.alpha"),
            "lascoux.d_a_s": s("lascoux.d_a"),
            "exact.pfaffian_s": s("exact.pfaffian"),
            "exact.det_s": s("exact.det"),
            "qschur.b_value_s": s("qschur.b_value"),
            "qschur.b_value_calls": calls("qschur.b_value"),
            "qschur.d_value_s": s("qschur.d_value"),
            "degrees.direct_s": sum(s(n) for n in _DIRECT),
            "degrees.nrs_s": sum(s(n) for n in _NRS),
            "degrees.a_value_s": s("degrees.a_value"),
            "degrees.terms": sum(extra(n) for n in _DIRECT + _NRS),
            "poly_n.phi_poly_s": total("poly_n.phi_poly"),
            "poly_n.points": self.poly_points,
            "poly_n.interpolate_s": s("poly_n.interpolate"),
            "schur_oracle.psi_oracle_s": total("schur_oracle.psi_oracle"),
            "schur_oracle.alpha_oracle_s": total("schur_oracle.alpha_oracle"),
            "schur_oracle.d_oracle_s": total("schur_oracle.d_oracle"),
            "schur_oracle.calls": sum(calls(n) for n in _ORACLES),
            "lascoux.check_routes_s": sum(total(n) for n in _CHECK_ROUTES),
            "checks.suite_s": total("checks.run_suite"),
            "checks.tasks": calls("checks.task"),
            "checks.slowest_task_s": self.slowest_task_s,
        }


def _probe(root, env, op, traced, reference):
    out = launch.work_dir(root) / "probe-result.json"
    res = launch.launch([str(root / "perfbench" / "probe.py"), str(out),
                         "1" if traced else "0", "--", *op["argv"]], env, root)
    if res.code != 0:
        # probe.py itself failed (the program's own exit code is inside).
        return None, f"probe process exited {res.code}: {res.stderr.strip()[-300:]}"
    result = json.loads(out.read_text())
    out.unlink()
    return result, gate.judge(op, result["code"], result["stdout"], result["stderr"],
                              reference)


def run(root, env, workload, seed, reference):
    """Traced run; returns (metrics, attempted, failures, details)."""
    ops = workloads.build(workload, seed)
    probes = workloads.probes()
    everything = ops + probes

    interp = [launch.launch(["-c", "pass"], env, root).wall_s
              for _ in range(INTERP_LAUNCHES)]

    failures = []
    untraced = []
    for op in everything:
        result, reason = _probe(root, env, op, False, reference)
        untraced.append(result)
        if reason:
            failures.append({"argv": op["argv"], "reason": reason, "traced": False})

    totals = SpanTotals()
    traced_main = []
    missing = set()
    spans_path = launch.work_dir(root) / f"spans-{workload}-{seed}.jsonl.gz"
    with gzip.open(spans_path, "wt", compresslevel=1) as spans_file:
        for index, op in enumerate(everything):
            result, reason = _probe(root, env, op, True, reference)
            if reason:
                failures.append({"argv": op["argv"], "reason": reason, "traced": True})
            if result is None:
                continue
            traced_main.append(result["main_s"])
            missing.update(result["missing"])
            totals.add(result["spans"])
            spans_file.write(json.dumps({"op": index, "argv": op["argv"],
                                         "spans": result["spans"]}) + "\n")

    done = [r for r in untraced if r is not None]
    main = [r["main_s"] if r else 0.0 for r in untraced]

    def ratio(slow_role, fast_role):
        slow, fast = (sum(t for op, t in zip(everything, main) if op.get("role") == role)
                      for role in (slow_role, fast_role))
        return slow / fast if fast else 0.0

    metrics = {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(r["import_s"] for r in done) if done else 0.0,
        "cli.main_s": sum(main[:len(ops)]),
        "cli.jobs2_speedup": ratio("jobs1", "jobs2"),
    }
    metrics.update(totals.metrics())
    metrics["checks.pool_speedup"] = ratio("pool1", "pool2")
    metrics["trace.overhead_s"] = sum(traced_main) - sum(main)

    details = {
        "layer_self_s": totals.layer_self_s(),
        "spans_file": str(spans_path.relative_to(root)),
        "spans_not_installed": sorted(missing),
        "probe_ops": len(probes),
    }
    return metrics, 2 * len(everything), failures, details
