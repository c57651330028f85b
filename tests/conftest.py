import pytest

from sincfilters import filters


@pytest.fixture(autouse=True)
def cold_multiplier_tables():
    """Start every test with empty multiplier and tail-rule caches, so none passes on a warm one."""
    filters._MULTIPLIERS.clear()
    filters._envelope_cutoff.cache_clear()
