import pytest

from mldeg import pool


@pytest.fixture
def fork_calls(monkeypatch):
    """The number of items handed to each forked pool, in call order.
    The process is taken to have two usable CPUs, so that jobs=2 forks
    on any machine."""
    calls = []
    forked = pool._forked

    def counting(fn, items, jobs):
        calls.append(len(items))
        return forked(fn, items, jobs)

    monkeypatch.setattr(pool, "_forked", counting)
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
    return calls
