import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stftlab import cli, experiments, io
from stftlab.grids import Signal, TFField, TFGrid, make_grid, tf_grid_of
from stftlab.io import MAGIC, dump_field, dump_mask, dump_signal, load, signal_to_csv

from conftest import random_signal


def test_signal_roundtrip(tmp_path, grid8):
    f = random_signal(grid8, seed=1)
    p = tmp_path / "sig.stfl"
    dump_signal(f, p)
    g = load(p)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)


def test_field_roundtrip(tmp_path):
    tg = tf_grid_of(make_grid(8.0, 64))
    rng = np.random.default_rng(0)
    w = rng.normal(size=tg.shape) + 1j * rng.normal(size=tg.shape)
    field = TFField(tg, w)
    p = tmp_path / "field.stfl"
    dump_field(field, p)
    back = load(p)
    assert back.tfgrid == tg
    assert np.array_equal(back.values, field.values)


def test_every_kind_writes_the_one_header_layout(tmp_path, grid8):
    # kind, then each axis's count, then each axis's length; a rectangular
    # grid shows swapped axes
    tg = TFGrid(grid8, make_grid(4.0, 32))
    for dump, args, head in (
            (dump_signal, (random_signal(grid8),),
             struct.pack("<QQd", 1, 64, 8.0)),
            (dump_field, (TFField(tg, np.ones(tg.shape)),),
             struct.pack("<QQQdd", 2, 64, 32, 8.0, 4.0)),
            # then the first value and the run list: one run of 64 x 32
            (dump_mask, (np.ones(tg.shape, bool), tg),
             struct.pack("<QQQddQQQ", 3, 64, 32, 8.0, 4.0, 1, 1, 64 * 32))):
        p = tmp_path / "head.bin"
        dump(*args, p)
        assert p.read_bytes().startswith(MAGIC + head)


def test_signed_zeros_roundtrip_bit_for_bit(tmp_path, grid8):
    vals = random_signal(grid8, seed=2).values.copy()
    vals[:4] = [complex(-0.0, 1.0), complex(2.0, -0.0),
                complex(-0.0, -0.0), complex(0.0, 0.0)]
    f = Signal(grid8, vals)
    field = TFField(tf_grid_of(grid8),
                    np.broadcast_to(vals, (grid8.count, grid8.count)))
    for dump, obj in ((dump_signal, f), (dump_field, field)):
        p = tmp_path / "zeros.stfl"
        dump(obj, p)
        # the data block is interleaved little-endian re/im f64
        body = b"".join(struct.pack("<dd", v.real, v.imag)
                        for v in obj.values.ravel())
        assert p.read_bytes().endswith(body)
        back = load(p)
        assert np.array_equal(back.values.view(np.uint64),
                              obj.values.view(np.uint64))
        assert back.values.flags.writeable


@pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
def test_mask_roundtrip(tmp_path, fill):
    tg = tf_grid_of(make_grid(8.0, 64))
    if fill == "random":
        mask = np.random.default_rng(4).random(tg.shape) > 0.6
    elif fill == "zeros":
        mask = np.zeros(tg.shape, dtype=bool)
    else:
        mask = np.ones(tg.shape, dtype=bool)
    p = tmp_path / "mask.stfl"
    dump_mask(mask, tg, p)
    back, tg2 = load(p)
    assert tg2 == tg
    assert np.array_equal(back, mask)


def test_kind_mismatch_raises(tmp_path, grid8, capsys):
    # a signal dump where a field is expected is a usage error
    p = tmp_path / "sig.stfl"
    dump_signal(random_signal(grid8), p)
    assert cli.main(["cheeger", str(p)]) == 2
    assert "is not a field dump" in capsys.readouterr().err


def test_bad_magic_raises(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load(p)


def test_truncated_raises(tmp_path, grid8):
    p = tmp_path / "sig.stfl"
    dump_signal(random_signal(grid8), p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load(p)


def test_forged_header_is_refused_before_reading(tmp_path, capsys):
    # 45 bytes that declare a 2^20 x 2^20 field (16 TiB of payload)
    p = tmp_path / "huge.bin"
    big = 2**20
    p.write_bytes(MAGIC + struct.pack("<QQQdd", 2, big, big, 16.0, 16.0))
    assert p.stat().st_size == 45
    with pytest.raises(ValueError, match="truncated"):
        load(p)
    assert cli.main(["norm", str(p)]) == 2
    assert "truncated container" in capsys.readouterr().err


def test_mask_run_list_is_checked(tmp_path):
    tg = tf_grid_of(make_grid(8.0, 64))
    head = MAGIC + struct.pack("<QQQdd", 3, 64, 64, 8.0, 8.0)
    p = tmp_path / "mask.bin"
    # a run list longer than the file
    p.write_bytes(head + struct.pack("<QQ", 1, 2**40))
    with pytest.raises(ValueError, match="truncated"):
        load(p)
    # runs that do not sum to the cell count
    p.write_bytes(head + struct.pack("<QQQQ", 1, 2, 100, 200))
    with pytest.raises(ValueError, match="cover"):
        load(p)
    # runs that alternate from a first value of 1
    p.write_bytes(head + struct.pack("<QQQQ", 1, 2, 100, 64 * 64 - 100))
    mask, tg2 = load(p)
    assert tg2 == tg
    assert mask.ravel()[:100].all() and not mask.ravel()[100:].any()


_LOAD_RSS_GROWTH = """
import resource, sys
from stftlab.io import load
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    load(sys.argv[1])
except ValueError as e:
    print(e)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(after - before)
"""


def test_mask_grid_is_bounded_before_decoding(tmp_path, capsys):
    # 69 bytes: a 2^20 x 2^20 mask in one run, which would decode to 1 TiB
    p = tmp_path / "huge_mask.bin"
    big = 2**20
    p.write_bytes(MAGIC + struct.pack("<QQQddQQQ", 3, big, big, 16.0, 16.0,
                                      1, 1, big * big))
    assert p.stat().st_size == 69
    with pytest.raises(ValueError, match="limit"):
        load(p)
    # in a fresh process, so that the peak RSS is not an earlier test's
    done = subprocess.run([sys.executable, "-c", _LOAD_RSS_GROWTH, str(p)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(io.__file__).parents[1])})
    message, growth_kib = done.stdout.splitlines()
    assert "limit" in message
    assert int(growth_kib) <= 1024
    assert cli.main(["poincare", str(p)]) == 2
    assert "limit" in capsys.readouterr().err


def test_mask_limit_covers_every_experiment_grid():
    # a TF grid is count x count; cheeger-gaussian lists several counts
    fixtures = [experiments.default_manifest(e["id"]).fixture
                for e in experiments.list_experiments()]
    side = max(max(fx.get("counts", [fx.get("count", 0)])) for fx in fixtures)
    assert io.MAX_MASK_CELLS >= side * side


def test_csv_roundtrip(tmp_path, grid8):
    f = random_signal(grid8, seed=9)
    p = tmp_path / "sig.csv"
    signal_to_csv(f, p)
    header = p.read_text().splitlines()[0]
    assert header == "x,re,im"
    x, re, im = np.loadtxt(p, delimiter=",", skiprows=1, unpack=True)
    # repr round-trips doubles exactly
    assert np.array_equal(x, grid8.points())
    assert np.array_equal(re + 1j * im, f.values)
