"""Launch one program process with a clean environment and measure it."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

# Generous per-process limit; the largest operation takes a few seconds.
OP_TIMEOUT_S = 120


@dataclasses.dataclass
class Launch:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def src_digest(root):
    """Hash of the program sources, naming this tree's bytecode cache."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def work_dir(root):
    path = root / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def bench_env(root):
    """Environment for every launched process.

    No persistent cache, the checkout's own sources, and bytecode in a
    directory owned by the benchmark and keyed by the source hash, so
    stale .pyc files cannot leak from one tree into another.
    """
    env = dict(os.environ)
    env.pop("MLDEG_CACHE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONSTARTUP", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(
        work_dir(root) / "pycache" / src_digest(root)[:16])
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args, env, cwd):
    """Run ``python args...`` to exit; rusage covers its whole process tree."""
    with tempfile.TemporaryFile(dir=work_dir(cwd)) as out, \
            tempfile.TemporaryFile(dir=work_dir(cwd)) as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        watchdog = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Launch(
            code=proc.returncode,
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024,
        )


def _kill_group(pid):
    """Kill a launched process and any pool workers it forked."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
