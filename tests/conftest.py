import pytest

from stftlab.grids import make_grid, random
from stftlab.rng import SplitMix64


@pytest.fixture
def grid16():
    # self-dual: L^2 == N
    return make_grid(16.0, 256)


@pytest.fixture
def grid8():
    return make_grid(8.0, 64)


def random_signal(grid, seed=1):
    """The program's white noise, grids.random, on a fresh seeded stream."""
    return random(grid, SplitMix64(seed))


@pytest.fixture
def rand16(grid16):
    return random_signal(grid16, seed=7)
