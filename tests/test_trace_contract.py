"""The benchmark's tracer still finds every layer it measures.

perfbench/spans.py traces mldeg by rebinding module globals and the
callables stored in module-level dicts.  A refactor that routes calls
around those names leaves the per-layer metrics silently at zero, so
this runs the tracer over two queries and checks the spans it records.
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
print(json.dumps({"codes": codes, "missing": tracer.missing,
                  "spans": [span[:3] for span in tracer.spans]}))
"""


def test_spans_cover_degree_layers():
    env = dict(os.environ)
    env.pop("MLDEG_CACHE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    assert result["missing"] == []
    names = {sid: name for sid, _, name in result["spans"]}
    assert "degrees.delta_type_a_partial" in names.values()
    assert "degrees.delta_type_a_nrs_partial" in names.values()
    assert any(name == "degrees.phi_sym" and names.get(parent) == "poly_n.phi_poly"
               for _, parent, name in result["spans"])
