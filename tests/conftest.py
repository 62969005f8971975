import pytest

from mldeg import pool


@pytest.fixture
def fork_calls(monkeypatch):
    """The number of items handed to each forked pool, in call order."""
    calls = []
    forked = pool._forked

    def counting(fn, items, jobs):
        calls.append(len(items))
        return forked(fn, items, jobs)

    monkeypatch.setattr(pool, "_forked", counting)
    return calls
