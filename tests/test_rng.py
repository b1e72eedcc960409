import math

import numpy as np
import pytest

from rng_oracle import scalar_normals, smooth_signal_values
from stftlab.experiments import _smooth_signal
from stftlab.grids import make_grid, random
from stftlab.rng import SplitMix64


def test_reference_vectors():
    # first outputs of the standard splitmix64 sequence
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_same_seed_same_stream():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_uniform_range_and_resolution():
    r = SplitMix64(5)
    us = [r.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert len(set(us)) == 1000


def test_normal_moments():
    r = SplitMix64(17)
    xs = np.array(r.normals(20000))
    assert np.all(np.isfinite(xs))
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


def test_complex_normal_unit_variance():
    # complex normals as the fixtures pair them: (even, odd) draws / sqrt 2
    z = SplitMix64(23).normals(40000)
    zs = (z[0::2] + 1j * z[1::2]) / math.sqrt(2.0)
    assert abs(np.mean(np.abs(zs) ** 2) - 1.0) < 0.05


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 65536])
def test_normals_are_the_scalar_stream_bit_for_bit(seed, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    xs = bulk.normals(n)
    assert xs.shape == (n,)
    assert _same_bits(xs, scalar_normals(scalar, n))
    # the block leaves the stream where n scalar draws leave it
    assert bulk.next_u64() == scalar.next_u64()
    assert bulk.uniform() == scalar.uniform()
    a, b = bulk.spawn(3), scalar.spawn(3)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]
    assert _same_bits(bulk.normals(5), scalar_normals(scalar, 5))


def test_random_signal_is_the_scalar_stream():
    grid = make_grid(8.0, 64)
    oracle = SplitMix64(41)
    re = scalar_normals(oracle, grid.count)
    im = scalar_normals(oracle, grid.count)
    rng = SplitMix64(41)
    f = random(grid, rng)
    assert _same_bits(f.values, (re + 1j * im) / math.sqrt(2.0))
    assert rng.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("kmax, decay", [(0, 1.0), (8, 0.35), (12, 0.2)])
def test_smooth_signal_is_the_per_mode_scalar_loop(kmax, decay):
    grid = make_grid(16.0, 256)
    for seed in range(8):
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        f = _smooth_signal(grid, rng, kmax, decay)
        assert _same_bits(f.values,
                          smooth_signal_values(grid, oracle, kmax, decay))
        assert rng.next_u64() == oracle.next_u64()


def test_spawn_streams_are_keyed_and_reproducible():
    a = SplitMix64(7).spawn(1)
    b = SplitMix64(7).spawn(1)
    c = SplitMix64(7).spawn(2)
    sa = [a.next_u64() for _ in range(5)]
    sb = [b.next_u64() for _ in range(5)]
    sc = [c.next_u64() for _ in range(5)]
    assert sa == sb
    assert sa != sc
