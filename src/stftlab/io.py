"""Binary container and CSV export for signals, fields, and masks.

Layout (all little-endian):

    magic  b"STFL1"
    kind   u64      1 = 1D signal, 2 = TF field, 3 = boolean mask
    dims   u64...   signal: N        field/mask: Nx, Nw
    meta   f64...   signal: L        field/mask: Lx, Lw
    data            signal/field: interleaved re/im f64, which is numpy's "<c16"
                    layout (row-major for fields)
                    mask: u64 first_value (0/1), u64 n_runs, then n_runs u64
                    run lengths of alternating values over the flattened array

CSV signal export has columns x, re, im.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .grids import MAX_COUNT, Signal, TFField, TFGrid, make_grid

MAGIC = b"STFL1"

_KIND_SIGNAL = 1
_KIND_FIELD = 2
_KIND_MASK = 3

# Largest mask grid `load` decodes: a run list of a few bytes can declare any
# cell count, and decoding allocates one byte per cell. 4096^2 cells (16 MiB)
# is the square of the largest grid side make_grid accepts.
MAX_MASK_CELLS = MAX_COUNT ** 2


def _sample_bytes(values: np.ndarray) -> bytes:
    return np.asarray(values, dtype="<c16").tobytes()


def _samples(buf: bytes) -> np.ndarray:
    # astype copies out of the read-only buffer, so loaded arrays are writable
    return np.frombuffer(buf, dtype="<c16").astype(np.complex128)


def dump_signal(sig: Signal, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", _KIND_SIGNAL, sig.grid.count))
        fh.write(struct.pack("<d", sig.grid.length))
        fh.write(_sample_bytes(sig.values))


def dump_field(field: TFField, path: str | Path) -> None:
    tg = field.tfgrid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQQ", _KIND_FIELD, tg.xgrid.count, tg.wgrid.count))
        fh.write(struct.pack("<dd", tg.xgrid.length, tg.wgrid.length))
        fh.write(_sample_bytes(field.values))


def dump_mask(mask_values: np.ndarray, tfgrid: TFGrid, path: str | Path) -> None:
    flat = np.asarray(mask_values, dtype=bool).ravel()
    if flat.size != tfgrid.shape[0] * tfgrid.shape[1]:
        raise ValueError("mask shape does not match tf grid")
    # run-length encode
    if flat.size == 0:
        runs: list[int] = []
        first = 0
    else:
        change = np.flatnonzero(flat[1:] != flat[:-1])
        edges = np.concatenate(([0], change + 1, [flat.size]))
        runs = list(np.diff(edges).astype(int))
        first = int(flat[0])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQQ", _KIND_MASK, tfgrid.xgrid.count, tfgrid.wgrid.count))
        fh.write(struct.pack("<dd", tfgrid.xgrid.length, tfgrid.wgrid.length))
        fh.write(struct.pack("<QQ", first, len(runs)))
        fh.write(np.asarray(runs, dtype="<u8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    # the declared size is checked against the bytes left before any read,
    # so a forged header cannot ask for more memory than the file holds
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("truncated container")
    return fh.read(n)


def load(path: str | Path):
    """Load any container; returns Signal, TFField, or (bool array, TFGrid)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}; expected {MAGIC!r}")
        (kind,) = struct.unpack("<Q", _read_exact(fh, 8))
        if kind == _KIND_SIGNAL:
            (count,) = struct.unpack("<Q", _read_exact(fh, 8))
            (length,) = struct.unpack("<d", _read_exact(fh, 8))
            vals = _samples(_read_exact(fh, 16 * count))
            return Signal(make_grid(length, count), vals)
        if kind == _KIND_FIELD:
            nx, nw, lx, lw = struct.unpack("<QQdd", _read_exact(fh, 32))
            vals = _samples(_read_exact(fh, 16 * nx * nw))
            tg = TFGrid(make_grid(lx, nx), make_grid(lw, nw))
            return TFField(tg, vals.reshape(nx, nw))
        if kind == _KIND_MASK:
            nx, nw, lx, lw = struct.unpack("<QQdd", _read_exact(fh, 32))
            tg = TFGrid(make_grid(lx, nx), make_grid(lw, nw))
            if nx * nw > MAX_MASK_CELLS:
                raise ValueError(f"mask declares {nx}x{nw} cells, above the "
                                 f"limit of {MAX_MASK_CELLS}")
            first, n_runs = struct.unpack("<QQ", _read_exact(fh, 16))
            runs = np.frombuffer(_read_exact(fh, 8 * n_runs), dtype="<u8")
            if sum(runs.tolist()) != nx * nw:
                raise ValueError("mask run lengths do not cover the grid")
            # runs alternate between the first value and its negation
            vals = (np.arange(runs.size) % 2 == 1) ^ bool(first)
            flat = np.repeat(vals, runs.astype(np.intp))
            return flat.reshape(nx, nw), tg
        raise ValueError(f"unknown container kind {kind}")


def signal_to_csv(sig: Signal, path: str | Path) -> None:
    xs = sig.grid.points()
    with open(path, "w", newline="") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(xs, sig.values):
            fh.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")
