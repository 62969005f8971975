"""Child process of the traced run: import mldeg.cli, run one query in-process.

    python perfbench/probe.py RESULT.json TRACE -- ARGV...

Writes import and main times, exit code, captured stdout and stderr,
and (when TRACE is 1) the spans of the call to RESULT.json.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time


def main():
    out_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]

    started = time.perf_counter()
    from mldeg import cli
    import_s = time.perf_counter() - started

    # Imported after the timed import, so mldeg.cli pays for its own.
    import json
    import traceback

    tracer = None
    if trace:
        import spans  # beside this file, so first on sys.path
        tracer = spans.install()

    stdout, stderr = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    main_s = time.perf_counter() - started

    result = {
        "import_s": import_s,
        "main_s": main_s,
        "code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "spans": tracer.spans if tracer else [],
        "missing": tracer.missing if tracer else [],
    }
    with open(out_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
