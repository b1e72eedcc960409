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

import math
import os
import struct
from pathlib import Path

import numpy as np

from .grids import MAX_COUNT, DomainMask, Signal, TFField, TFGrid, make_grid

MAGIC = b"STFL1"

_KIND_SIGNAL = 1
_KIND_FIELD = 2
_KIND_MASK = 3
_RANK = {_KIND_SIGNAL: 1, _KIND_FIELD: 2, _KIND_MASK: 2}

# Largest mask grid `load` decodes: a run list of a few bytes can declare any
# cell count, and decoding allocates one byte per cell. 4096^2 cells (16 MiB)
# is the square of the largest grid side make_grid accepts.
MAX_MASK_CELLS = MAX_COUNT ** 2


def _samples(buf: bytes) -> np.ndarray:
    # astype copies out of the read-only buffer, so loaded arrays are writable
    return np.frombuffer(buf, dtype="<c16").astype(np.complex128)


def _dump(path: str | Path, kind: int, space, *payload) -> None:
    # payload: bytes, or contiguous arrays written as their buffers
    axes = space.axes
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<{len(axes) + 1}Q{len(axes)}d", kind,
                                     *(a.count for a in axes),
                                     *(a.length for a in axes)))
        fh.writelines(payload)


def dump_signal(sig: Signal, path: str | Path) -> None:
    _dump(path, _KIND_SIGNAL, sig.grid,
          np.ascontiguousarray(sig.values, dtype="<c16"))


def dump_field(field: TFField, path: str | Path) -> None:
    _dump(path, _KIND_FIELD, field.tfgrid,
          np.ascontiguousarray(field.values, dtype="<c16"))


def dump_mask(mask_values: np.ndarray, tfgrid: TFGrid, path: str | Path) -> None:
    flat = np.asarray(mask_values, dtype=bool).ravel()
    if flat.size != math.prod(tfgrid.shape):
        raise ValueError("mask shape does not match tf grid")
    # run lengths between value changes; both ends count as changes
    edges = np.flatnonzero(np.diff(flat, prepend=~flat[:1], append=~flat[-1:]))
    runs = np.diff(edges).astype("<u8")
    _dump(path, _KIND_MASK, tfgrid,
          struct.pack("<QQ", int(flat[:1].any()), runs.size), runs)


def _read_exact(fh, n: int) -> bytes:
    # the declared size is checked against the bytes left before any read,
    # so a forged header cannot ask for more memory than the file holds
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("truncated container")
    return fh.read(n)


def _at_end(fh) -> None:
    # a header that declares fewer cells than the file holds drops the rest
    if fh.read(1):
        raise ValueError("bytes after the payload that the header declares")


def _space(counts: tuple, lengths: tuple):
    axes = [make_grid(length, count) for count, length in zip(counts, lengths)]
    return axes[0] if len(axes) == 1 else TFGrid(*axes)


def load(path: str | Path):
    """Load any container; returns a Signal, a TFField or a DomainMask.
    A payload is read before its grid is built; a mask's grid and cell count
    are checked before its runs are decoded. Bytes past the payload are
    refused."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}; expected {MAGIC!r}")
        (kind,) = struct.unpack("<Q", _read_exact(fh, 8))
        if kind not in _RANK:
            raise ValueError(f"unknown container kind {kind}")
        n = _RANK[kind]
        dims = struct.unpack(f"<{n}Q{n}d", _read_exact(fh, 16 * n))
        counts, lengths = dims[:n], dims[n:]
        cells = math.prod(counts)
        if kind != _KIND_MASK:
            vals = _samples(_read_exact(fh, 16 * cells))
            _at_end(fh)
            cls = Signal if kind == _KIND_SIGNAL else TFField
            return cls(_space(counts, lengths), vals.reshape(counts))
        tg = _space(counts, lengths)
        if cells > MAX_MASK_CELLS:
            raise ValueError(f"mask declares {'x'.join(map(str, counts))} "
                             f"cells, above the limit of {MAX_MASK_CELLS}")
        first, n_runs = struct.unpack("<QQ", _read_exact(fh, 16))
        runs = np.frombuffer(_read_exact(fh, 8 * n_runs), dtype="<u8")
        _at_end(fh)
        if sum(runs.tolist()) != cells:
            raise ValueError("mask run lengths do not cover the grid")
        # runs alternate between the first value and its negation
        vals = (np.arange(runs.size) % 2 == 1) ^ bool(first)
        flat = np.repeat(vals, runs.astype(np.intp))
        return DomainMask(tg, flat.reshape(counts))


def signal_to_csv(sig: Signal, path: str | Path) -> None:
    xs = sig.grid.points()
    with open(path, "w", newline="") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(xs, sig.values):
            fh.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")
