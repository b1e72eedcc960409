"""Reference computations that share no code with `stftlab`.

Each function takes plain numbers and numpy arrays, so a fault in the
program cannot also hide in its own check.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np


class Mismatch(AssertionError):
    """A program output disagrees with its oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# STFL1 container

_MAGIC = b"STFL1"


def read_stfl1(path) -> dict:
    """Decode a dump: {"kind", "shape", "lengths", "values"}.

    Layout, little-endian: magic, u64 kind (1 signal, 2 field, 3 mask),
    u64 dims, f64 period per dim, then interleaved re/im f64 samples or, for
    masks, u64 first value, u64 run count and the u64 run lengths. The file
    must end exactly where the layout says.
    """
    buf = Path(path).read_bytes()
    expect(buf[:5] == _MAGIC, f"{path}: bad magic {buf[:5]!r}")
    (kind,) = struct.unpack_from("<Q", buf, 5)
    off = 13
    ndim = {1: 1, 2: 2, 3: 2}.get(kind)
    expect(ndim is not None, f"{path}: unknown kind {kind}")
    shape = struct.unpack_from(f"<{ndim}Q", buf, off)
    off += 8 * ndim
    lengths = struct.unpack_from(f"<{ndim}d", buf, off)
    off += 8 * ndim
    count = math.prod(shape)
    if kind in (1, 2):
        expect(len(buf) == off + 16 * count, f"{path}: size mismatch")
        raw = np.frombuffer(buf, dtype="<f8", count=2 * count, offset=off)
        values = np.empty(count, dtype=np.complex128)
        values.real = raw[0::2]
        values.imag = raw[1::2]
    else:
        first, nruns = struct.unpack_from("<QQ", buf, off)
        off += 16
        expect(first in (0, 1), f"{path}: bad first mask value {first}")
        expect(len(buf) == off + 8 * nruns, f"{path}: size mismatch")
        runs = np.frombuffer(buf, dtype="<u8", count=nruns, offset=off)
        expect(int(runs.sum()) == count, f"{path}: runs do not cover grid")
        bits = (np.arange(nruns) + first) % 2 == 1
        values = np.repeat(bits, runs.astype(np.int64))
    return {"kind": kind, "shape": tuple(shape), "lengths": tuple(lengths),
            "values": values.reshape(shape)}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype family and every stored bit."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# norms and phase alignment


def lq(values: np.ndarray, cell: float, q: float) -> float:
    """Riemann-sum Lebesgue norm (cell * sum |v|^q)^(1/q)."""
    return float((cell * np.sum(np.abs(values) ** q)) ** (1.0 / q))


def aligned_l2(f: np.ndarray, g: np.ndarray, cell: float) -> float:
    """min over |lam| = 1 of ||f - lam g||_2: lam = <f, g> / |<f, g>|."""
    ip = np.sum(f * np.conj(g))
    lam = ip / abs(ip) if ip != 0 else 1.0
    return lq(f - lam * g, cell, 2.0)


# ---------------------------------------------------------------------------
# Cheeger constant of a Gaussian density


def gaussian_cheeger(rate: float) -> float:
    """Cheeger constant of exp(-rate |z|^2) on the plane under the half-mass
    constraint. The optimal cut is a line through the centre: its weighted
    length is sqrt(pi / rate) and the half-plane holds pi / (2 rate), so the
    quotient is 2 sqrt(rate / pi)."""
    boundary = math.sqrt(math.pi / rate)
    half_mass = math.pi / (2.0 * rate)
    return boundary / half_mass


# ---------------------------------------------------------------------------
# transforms of modulated families


def family_transform(vf: np.ndarray, terms, dxi: float) -> np.ndarray:
    """V(f + sum c M_a f) from V f alone, for on-grid frequencies a.

    V(M_a f)(x, w) = V f(x, w - a): a modulation rolls the transform along
    its frequency axis by a / dxi columns.
    """
    out = vf.astype(np.complex128, copy=True)
    for coef, a in terms:
        shift = a / dxi
        expect(abs(shift - round(shift)) < 1e-9,
               f"modulation {a} is not a multiple of {dxi}")
        out += coef * np.roll(vf, int(round(shift)), axis=1)
    return out
