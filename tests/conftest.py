import pytest

from sincfilters import filters, series


@pytest.fixture(autouse=True)
def cold_multiplier_tables():
    """Empty the multiplier, tail-rule, closed-form, theta-cell and power-sum step caches, so no
    test passes on a warm one."""
    filters._MULTIPLIERS.clear()
    filters._envelope_cutoff.cache_clear()
    filters._closed_form.cache_clear()
    filters._box_table.cache_clear()
    series._grid_cells.cache_clear()
    series._steps.cache_clear()
