import pytest

from sincfilters import filters, series


@pytest.fixture(autouse=True)
def cold_multiplier_tables():
    """Empty the multiplier, tail-rule and row-template caches, so no test passes on a warm one."""
    filters._MULTIPLIERS.clear()
    filters._envelope_cutoff.cache_clear()
    series._grid_rows.cache_clear()
    series._grid_cells.cache_clear()
