"""One worker pool for every fan-out: degree sums and check suites.

Forking costs more than most queries, and a worker forked cold
rebuilds the coefficient caches its siblings also build.  So the
items run here first, and only work that outlasts FORK_AFTER_S, and
has enough left to pay for a fork, is split: the workers are forked
then, with every cache warm.
"""

from __future__ import annotations

import os
import time

# Seconds of serial work before jobs > 1 forks.  A two-worker fork pool
# costs about 0.01 s to start and stop on a 2-core machine; 0.1 s of
# serial work also warms the caches the workers share.
FORK_AFTER_S = 0.1


def fork_map(fn, items, jobs):
    """[fn(item) for item in items], in item order; items is a list.

    The items run in this process until FORK_AFTER_S has passed.  If
    jobs > 1, the rest then go to jobs forked workers, once at least
    two are left and, at the mean time per item so far, they would run
    longer than FORK_AFTER_S.  A fork pool starts all its workers at
    once, so jobs is capped at the CPUs this process may run on, and
    one usable CPU forks nothing.  fn must be reachable by import path,
    as workers receive it pickled.
    """
    jobs = min(jobs, _usable_cpus())
    results = []
    started = time.perf_counter()
    for k, item in enumerate(items, 1):
        results.append(fn(item))
        spent = time.perf_counter() - started
        left = len(items) - k
        if (jobs > 1 and left >= 2 and spent >= FORK_AFTER_S
                and spent / k * left > FORK_AFTER_S):
            return results + _forked(fn, items[k:], jobs)
    return results


def _forked(fn, items, jobs):
    # Imported here: concurrent.futures pulls in logging, which would
    # cost every query start-up time.  The start method is fork, not
    # spawn, because inheriting the warm caches is the point.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(items))
    chunk = max(1, len(items) // (4 * workers))
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
