import numpy as np
import pytest

from afsharsim import (
    AfsharGeometry,
    Grid,
    GridState,
    Scenario,
    Slits,
    apparatus,
    run_scenario,
)


@pytest.fixture(scope="session")
def geometry():
    return AfsharGeometry.default()


@pytest.fixture(scope="session")
def bench_grid(geometry):
    return Grid(apparatus.DEFAULT_N_SAMPLES, apparatus.DEFAULT_SPACING)


@pytest.fixture(scope="session")
def records(geometry, bench_grid):
    """All six scenario runs, computed once for the whole suite."""
    return {
        (slits.value, grid_state.value): run_scenario(
            geometry, Scenario(slits, grid_state), bench_grid
        )
        for slits in Slits
        for grid_state in GridState
    }


@pytest.fixture(scope="session")
def sigma1_fields(geometry, bench_grid):
    """Per-slit fields at the sigma1 plane (upper, lower)."""
    return apparatus.sigma1_fields(geometry, bench_grid)


@pytest.fixture(autouse=True)
def cold_bench():
    """Each test starts with no bench cached, so every stage of one is built anew.

    A test that counts or replaces a stage (``_upper_slit``, ``_guarded``)
    then sees it run whichever tests ran before it.
    """
    apparatus._bench.cache_clear()
