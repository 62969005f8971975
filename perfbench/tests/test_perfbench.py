"""Tests of the benchmark itself: generators, gate, percentiles, spans.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import launch  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _stdout_for(op):
    """The program's correct stdout for op, rebuilt from the reference."""
    expected = REFERENCE[op["key"]]
    if "csv" in expected:
        return "\n".join(expected["csv"]) + "\n"
    return json.dumps(expected, sort_keys=True) + "\n"


# ------------------------------------------------------------ generators

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [op["argv"] for op in workloads.build(workload, 7)]
    second = [op["argv"] for op in workloads.build(workload, 7)]
    assert first == second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_never_changes_stratum_counts(workload):
    def counts(seed):
        out = {}
        for op in workloads.build(workload, seed):
            out[op["stratum"]] = out.get(op["stratum"], 0) + 1
        return out

    assert counts(1) == counts(2) == counts(3)


def test_other_seed_other_inputs():
    assert ([op["argv"] for op in workloads.build("cli-desk", 1)]
            != [op["argv"] for op in workloads.build("cli-desk", 2)])


def test_reference_covers_every_candidate():
    assert set(workloads.reference_space()) <= set(REFERENCE)


def test_desk_stays_within_default_caps_and_off_the_oracle():
    for _, _, space in workloads.strata("cli-desk"):
        for _, argv, _ in space:
            assert "--unsafe-range" not in argv
            assert "oracle" not in argv
            assert "--cache" not in argv


def test_sets_with_weight():
    assert workloads.sets_with_weight(2, 2) == [(0, 3), (1, 2)]
    assert workloads.sets_with_weight(3, 0) == [(0, 1, 2)]


# ------------------------------------------------------------ gate

def _an_op(kind="psi"):
    return next(op for op in workloads.build("cli-desk", 1) if op["argv"][0] == kind)


def test_gate_accepts_the_reference_answer():
    for op in workloads.build("cli-desk", 1):
        assert gate.judge(op, 0, _stdout_for(op), "", REFERENCE) is None


def test_gate_counts_an_injected_wrong_value():
    op = _an_op()
    payload = dict(REFERENCE[op["key"]])
    payload["result"] += 1
    reason = gate.judge(op, 0, json.dumps(payload) + "\n", "", REFERENCE)
    assert reason is not None and "result" in reason


@pytest.mark.parametrize("stdout", ["", "not json\n", "[1]\n", '{"result": 1}\n{}\n'])
def test_gate_counts_malformed_stdout(stdout):
    assert gate.judge(_an_op(), 0, stdout, "", REFERENCE) is not None


def test_gate_counts_a_wrong_csv_row():
    op = next(op for op in workloads.build("cli-desk", 1) if "--table" in op["argv"])
    lines = list(REFERENCE[op["key"]]["csv"])
    lines[-1] = lines[-1][:-1] + "7"
    assert gate.judge(op, 0, "\n".join(lines) + "\n", "", REFERENCE) is not None


def test_gate_counts_a_failed_check_suite():
    op = next(o for o in workloads.build("verify", 1) if o["argv"][0] == "check")
    stdout = json.dumps({"failures": [{"detail": "x", "task": "t"}], "ok": False,
                         "suite": op["argv"][1], "tasks": 1}) + "\n"
    assert gate.judge(op, 1, stdout, "", REFERENCE) is not None


@pytest.mark.parametrize("code", [4, 127, -9, None])
def test_gate_counts_a_non_contract_exit(code):
    op = _an_op()
    reason = gate.judge(op, code, _stdout_for(op), "", REFERENCE)
    assert reason is not None and "contract" in reason


def test_gate_counts_an_unexpected_contract_exit():
    op = _an_op()
    assert gate.judge(op, 3, _stdout_for(op), "", REFERENCE) is not None


def test_gate_counts_a_traceback():
    op = _an_op()
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nValueError\n'
    assert gate.judge(op, 0, _stdout_for(op), stderr, REFERENCE) is not None


def test_measure_counts_every_wrong_operation(monkeypatch, tmp_path):
    """The whole run, with the program replaced by one that answers wrong."""
    def fake_launch(args, env, cwd):
        if args[0] == "-c":
            return launch.Launch(0, "", "", 0.01, 0.01, 10.0)
        return launch.Launch(0, '{"result": -1}\n', "", 0.01, 0.01, 10.0)

    monkeypatch.setattr(launch, "launch", fake_launch)
    metrics, attempted, failures, _ = run.measure(
        tmp_path, {}, "sweep-large", 1, 0.0, REFERENCE)
    assert attempted == run.MIN_PASSES * len(workloads.build("sweep-large", 1))
    assert len(failures) == attempted
    assert set(metrics) == {name for name, _ in run.END_TO_END}


# ------------------------------------------------------------ percentiles

def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile(list(range(20)), 50) == 9
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile([], 50) is None


# ------------------------------------------------------------ spans

def test_self_time_subtracts_children():
    recorded = [
        (2, 1, "lascoux.psi", 1.0, 3.0, True, None),
        (3, 2, "exact.pfaffian", 1.5, 2.5, True, None),
        (1, 0, "degrees.delta_sym_partial", 0.0, 4.0, True, 12),
    ]
    totals = tracing.SpanTotals()
    totals.add(recorded)
    assert totals.self_s["degrees.delta_sym_partial"] == pytest.approx(2.0)
    assert totals.self_s["lascoux.psi"] == pytest.approx(1.0)
    assert totals.self_s["exact.pfaffian"] == pytest.approx(1.0)
    assert totals.metrics()["degrees.terms"] == 12
    assert totals.layer_self_s() == pytest.approx({"degrees": 2.0, "exact": 1.0,
                                                   "lascoux": 1.0})


def test_self_time_subtracts_the_union_of_parallel_children():
    recorded = [
        (2, 1, "checks.task", 0.0, 3.0, True, None),
        (3, 1, "checks.task", 1.0, 4.0, True, None),
        (1, 0, "checks.run_suite", 0.0, 5.0, True, None),
    ]
    totals = tracing.SpanTotals()
    totals.add(recorded)
    assert totals.self_s["checks.run_suite"] == pytest.approx(1.0)
    assert totals.metrics()["checks.slowest_task_s"] == pytest.approx(3.0)


def test_nested_calls_count_once_in_total_time():
    recorded = [
        (2, 1, "lascoux.psi_recursion", 1.0, 2.0, False, None),
        (1, 0, "lascoux.psi_recursion", 0.0, 4.0, True, None),
    ]
    totals = tracing.SpanTotals()
    totals.add(recorded)
    assert totals.metrics()["lascoux.check_routes_s"] == pytest.approx(4.0)


def test_tracer_records_parent_and_distinct_sets():
    tracer = spans.Tracer()
    outer = tracer.wrap("poly_n.phi_poly", lambda f: f() + f())
    inner = tracer.wrap("lascoux.psi", lambda I: len(I))
    assert outer(lambda: inner((0, 2))) == 4
    psi_spans = [s for s in tracer.spans if s[2] == "lascoux.psi"]
    poly_span = next(s for s in tracer.spans if s[2] == "poly_n.phi_poly")
    assert all(s[1] == poly_span[0] for s in psi_spans)
    totals = tracing.SpanTotals()
    totals.add(tracer.spans)
    assert totals.metrics()["lascoux.psi_distinct_ratio"] == 0.5


def test_check_task_spans_come_back_under_their_task():
    tracer = spans.Tracer()
    leaf = tracer.wrap("lascoux.psi", lambda I: 1)
    task = tracer.wrap_task(lambda t: {"ok": True, "value": leaf(t)})
    suite = tracer.wrap_suite(lambda tasks: ([task(t) for t in tasks], []))
    results, _ = suite([(0,), (1,)])
    assert results == [{"ok": True, "value": 1}] * 2
    by_id = {s[0]: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans) == 5
    parents = sorted((s[2], by_id[s[1]][2]) for s in tracer.spans if s[1])
    assert parents == [("checks.task", "checks.run_suite")] * 2 + [
        ("lascoux.psi", "checks.task")] * 2


# ------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_matches_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]
