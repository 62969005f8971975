"""mldeg benchmark: one command for every end-to-end or per-layer metric.

    python3 perfbench/run.py --workload cli-desk --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each operation is a fresh
``python -m mldeg ...`` process, so memos start cold and interpreter
start is included, as users pay it.  With --trace 0 the run measures
the end-to-end metrics:

  setup_s      fresh interpreter plus ``import mldeg.cli``, median of
               SETUP_LAUNCHES_PER_PASS launches before each pass
  wall_s       wall clock of one pass over the workload's operations:
               the sum over operations of each one's median launch-to-exit
               time over the passes of the run
  cpu_s        user plus sys CPU of one pass, children of the operations
               included; summed per-operation medians likewise
  peak_rss_mb  largest max-RSS of any operation's process tree, each
               operation's median over passes

Passes repeat one fixed operation list until --seconds have gone,
at least MIN_PASSES times.  Operation latency percentiles are printed
when at least ten samples lie beyond them.  Every operation is checked
against reference.json; the run exits 1 when any failed.  With
--trace 1 the run measures the per-layer metrics instead (see
tracing.py).  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import gate
import launch
import stats
import tracing
import workloads

SETUP_LAUNCHES_PER_PASS = 4
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(root):
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "machine": f"{platform.system()} {platform.machine()} {platform.processor()}".strip(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": launch.src_digest(root),
    }


def run_op(root, env, op, reference):
    res = launch.launch(["-m", "mldeg", *op["argv"]], env, root)
    return res, gate.judge(op, res.code, res.stdout, res.stderr, reference)


def measure(root, env, workload, seed, seconds, reference):
    """Untraced run; returns (metrics, attempted, failures, details)."""
    ops = workloads.build(workload, seed)
    setup, passes, latencies, failures = [], [], [], []
    started = time.perf_counter()
    while True:
        # Set-up launches are spread between passes, like the passes
        # themselves, so a slow spell of the machine hits both alike.
        setup += [launch.launch(["-c", "import mldeg.cli"], env, root).wall_s
                  for _ in range(SETUP_LAUNCHES_PER_PASS)]
        pass_started = time.perf_counter()
        launches = [run_op(root, env, op, reference) for op in ops]
        passes.append({"wall_s": time.perf_counter() - pass_started,
                       "op_wall_s": [res.wall_s for res, _ in launches],
                       "op_cpu_s": [res.cpu_s for res, _ in launches],
                       "op_rss_mb": [res.maxrss_mb for res, _ in launches]})
        latencies += passes[-1]["op_wall_s"]
        failures += [{"argv": op["argv"], "reason": reason}
                     for op, (_, reason) in zip(ops, launches) if reason]
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break

    # Each operation's median over the passes, so a slow spell of the
    # machine during one pass moves a pass metric less than a whole pass.
    def per_op(field):
        return [stats.median(p[field][k] for p in passes) for k in range(len(ops))]

    metrics = {
        "setup_s": stats.median(setup),
        "wall_s": sum(per_op("op_wall_s")),
        "cpu_s": sum(per_op("op_cpu_s")),
        "peak_rss_mb": max(per_op("op_rss_mb")),
    }
    details = {
        "passes": passes,
        "ops_per_pass": len(ops),
        "setup_samples": len(setup),
        "op_samples": len(latencies),
        "op_p50_s": stats.percentile(latencies, 50),
        "op_p90_s": stats.percentile(latencies, 90),
    }
    return metrics, len(latencies), failures, details


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "mldeg" / "cli.py").is_file():
        print(f"error: no mldeg sources under {root / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((root / "perfbench" / "reference.json").read_text())
    env = launch.bench_env(root)
    # Untimed launch that compiles the sources into the bytecode cache.
    warm = launch.launch(["-c", "import mldeg.cli"], env, root)
    if warm.code != 0:
        print(f"error: cannot import mldeg.cli:\n{warm.stderr}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failures, details = tracing.run(
            root, env, args.workload, args.seed, reference)
        units = {name: (unit, moves) for name, unit, _, moves in tracing.LAYER_METRICS}
    else:
        metrics, attempted, failures, details = measure(
            root, env, args.workload, args.seed, args.seconds, reference)
        units = {name: (unit, None) for name, unit in END_TO_END}

    env_info = environment(root)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, (unit, moves) in units.items():
        line = f"{name:30s} {metrics[name]:14.6g} {unit}"
        print(line + (f"   moves: {moves}" if moves else ""))
    if not args.trace:
        for name in ("op_p50_s", "op_p90_s"):
            value = details[name]
            shown = f"{value:14.6g} s" if value is not None else \
                "  n/a (fewer than 10 samples beyond)"
            print(f"{name:30s} {shown}   over {details['op_samples']} operations")
    else:
        for layer, seconds in details["layer_self_s"].items():
            print(f"self_s.{layer:23s} {seconds:14.6g} s")
    print(f"{'failed_ops':30s} {len(failures)}/{attempted}")
    for failure in failures[:10]:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['reason']}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env_info, "metrics": metrics, "attempted": attempted,
              "failures": failures, "details": details}
    out = launch.work_dir(root) / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in units.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
