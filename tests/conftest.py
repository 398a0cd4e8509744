from types import SimpleNamespace

import pytest
from hypothesis import settings

from stacksort import enumerate_normalized

# Fuzz tests draw the same examples on every run, so Tier-1 stays
# reproducible and its wall time bounded; no example database is written.
settings.register_profile("stacksort", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("stacksort")


@pytest.fixture(scope="session")
def normalized():
    """Memoized access to the exhaustive corpus of normalized words by length."""
    cache: dict[int, list] = {}

    def get(m: int) -> list:
        if m not in cache:
            cache[m] = list(enumerate_normalized(m))
        return cache[m]

    return get


@pytest.fixture
def fake_pools(monkeypatch):
    """Sizes of the census pools asked for, with no process started.

    `multiprocessing.get_context` returns a context whose pools run their
    map in the calling process.
    """
    import multiprocessing

    sizes: list[int] = []

    class Pool:
        def __init__(self, processes: int):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    context = SimpleNamespace(Pool=Pool)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
    return sizes
