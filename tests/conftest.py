import pytest

from stftlab.grids import Signal, make_grid
from stftlab.rng import SplitMix64


@pytest.fixture
def grid16():
    # self-dual: L^2 == N
    return make_grid(16.0, 256)


@pytest.fixture
def grid8():
    return make_grid(8.0, 64)


def random_signal(grid, seed=1):
    rng = SplitMix64(seed)
    re = rng.normals(grid.count)
    im = rng.normals(grid.count)
    return Signal(grid, re + 1j * im)


@pytest.fixture
def rand16(grid16):
    return random_signal(grid16, seed=7)
