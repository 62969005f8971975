"""The benchmark's tracer still finds every layer it measures.

perfbench/spans.py traces mldeg by rebinding module globals and the
callables stored in module-level dicts.  A refactor that routes calls
around those names leaves the per-layer metrics silently at zero, so
this runs the tracer over ten queries and checks the spans it records.
install() rebinds for the life of the process, hence the subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from mldeg import cli
import spans
tracer = spans.install()
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes.append(cli.main(["delta", "--type", "a", "-m", "9", "-n", "4", "-r", "2",
                           "--path", "both"]))
    codes.append(cli.main(["phi", "--poly", "-d", "5"]))
    codes.append(cli.main(["psi", "--set", "{1,3}", "--path", "pascal"]))
    codes.append(cli.main(["psi", "--set", "{1,3}", "--path", "recursion"]))
    codes.append(cli.main(["psi", "--family", "d", "--set", "{1}", "--pair", "{2}",
                           "--complement", "4"]))
    codes.append(cli.main(["psi", "--family", "alpha", "--set", "{0,2}",
                           "--path", "oracle"]))
    codes.append(cli.main(["psi", "--family", "d", "--set", "{1}", "--pair", "{2}",
                           "--path", "recursion"]))
    codes.append(cli.main(["delta", "--type", "d", "-m", "14", "-n", "4", "-r", "2"]))
    codes.append(cli.main(["delta", "--type", "sym", "-m", "6", "-n", "4", "-r", "2",
                           "--path", "nrs"]))
    codes.append(cli.main(["delta", "--type", "d", "-m", "14", "-n", "4", "-r", "2",
                           "--path", "nrs"]))
print(json.dumps({"codes": codes, "missing": tracer.missing,
                  "spans": [span[:3] for span in tracer.spans]}))
"""


def test_spans_cover_degree_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 10
    assert result["missing"] == []
    names = {sid: name for sid, _, name in result["spans"]}
    assert "degrees.delta_type_a_partial" in names.values()
    assert {"lascoux.psi_pascal", "lascoux.d_a_complement"} <= set(names.values())
    # The psi command reaches these through the route table in checks.
    # Both recursion routes share one body, which must stay behind the
    # two traced names that lascoux.check_routes_s sums.
    assert {"schur_oracle.alpha_oracle", "lascoux.psi_recursion",
            "lascoux.d_a_recursion"} <= set(names.values())
    assert "degrees.delta_type_a_nrs_partial" in names.values()
    parents = {(name, names.get(parent)) for _, parent, name in result["spans"]}
    assert ("degrees.phi_sym", "poly_n.phi_poly") in parents
    # poly_n.interpolate_s is the self time of these spans: a fit that
    # bypasses the module-level interpolate would read 0 there.
    assert ("poly_n.interpolate", "poly_n.phi_poly") in parents
    # lascoux.psi_complement_s is the self time of these spans.  The
    # complement is a Pfaffian over the labels of its own set, so it
    # never builds the Pfaffian of [n] minus the set through psi.
    assert ("lascoux.psi_complement", "degrees.delta_sym_partial") in parents
    assert all(parent != "lascoux.psi_complement"
               for name, parent in parents if name == "lascoux.psi")
    # degrees.a_value_s is the self time of these spans: a kernel that
    # bypasses the module-level a_value would read 0 there.
    assert ("degrees.a_value", "degrees.delta_type_a_nrs_partial") in parents
    # The square complement is a determinant over the labels of its own
    # sets, so it never takes d_a of the complement sets.
    assert ("lascoux.d_a_complement", "degrees.delta_type_a_partial") in parents
    assert all(parent != "lascoux.d_a_complement"
               for name, parent in parents if name == "lascoux.d_a")
    # exact.det_s is the self time of these spans: a determinant that
    # bypasses the module-level det would read 0 there.
    assert ("exact.det", "lascoux.d_a_complement") in parents
    # So is the skew complement, a Pfaffian over the labels of its set.
    assert ("lascoux.alpha_complement", "degrees.delta_type_d_partial") in parents
    assert all(parent != "lascoux.alpha_complement"
               for name, parent in parents if name == "lascoux.alpha")
    # qschur.b_value_s and d_value_s are the self time of these spans:
    # the closed-form sums read the Q values through the public names.
    assert ("qschur.b_value", "degrees.delta_sym_nrs_partial") in parents
    assert ("qschur.d_value", "degrees.delta_type_d_nrs_partial") in parents
