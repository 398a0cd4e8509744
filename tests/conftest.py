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
