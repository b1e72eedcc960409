"""The ambiguity plane as the expressions that define it: the reference for
`transforms._chirp`, which takes exp on one quadrant and mirrors it, for
`transforms._measurement_fourier_side`, which rolls, transforms and gathers
in one buffer, and for the batched residuals, which transform each signal
and window once. Here the chirp is exp over the whole mesh, the measurement
spectrum goes through `cdft2` with its shift copies, and each residual
builds everything its one signal/window pair needs. The kernels look
`transforms` up at call time, so a test may patch these in for the
shipped ones."""

import numpy as np

from stftlab import transforms
from stftlab.grids import modulate, translate

from centred_oracle import cdft2


def chirp(tf, sign: int) -> np.ndarray:
    """exp(sign i pi x omega) over the whole mesh."""
    if sign > 0:
        return np.exp(1j * np.pi * tf.xmesh() * tf.wmesh())
    return np.exp(-1j * np.pi * tf.xmesh() * tf.wmesh())


def measurement_fourier_side(m) -> np.ndarray:
    """F(M)(omega, -x) on the (x, omega) grid: the full centred spectrum,
    then an index reflection and a transpose."""
    n = m.tfgrid.shape[0]
    f2 = m.tfgrid.cell * cdft2(m.values)
    return f2[:, (n - np.arange(n)) % n].T


def covariance_residual(f, window, u: float, eta: float) -> float:
    """The covariance defect at one shift, both sides transformed anew."""
    grid = f.grid
    shifted = translate(modulate(f, eta), u)
    lhs = transforms.stft(shifted, window).values
    base = transforms.stft(f, window)
    s = grid.index_of(u, "translation") - grid.count // 2
    m = grid.dual().index_of(eta, "modulation") - grid.count // 2
    rolled = np.roll(base.values, (s, m), axis=(0, 1))
    phase = np.exp(-2j * np.pi * u * base.tfgrid.wmesh())
    return float(np.max(np.abs(lhs - phase * rolled)))


def covariance_residuals(f, window, shifts) -> list:
    return [covariance_residual(f, window, u, eta) for u, eta in shifts]


def ambiguity_relation_residual(f, window) -> float:
    """The relation's defect for one pair, both ambiguities built anew."""
    w = window.build(f.grid)
    m = transforms.phaseless(f, window)
    transforms._require_self_dual(m.tfgrid, "the ambiguity relation")
    lhs = transforms._measurement_fourier_side(m)
    rhs = (transforms.ambiguity(f).values
           * np.conj(transforms.ambiguity(w).values))
    den = float(np.max(np.abs(rhs)))
    num = float(np.max(np.abs(lhs - rhs)))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def ambiguity_relation_residuals(signals, windows) -> list:
    return [[ambiguity_relation_residual(f, w) for w in windows]
            for f in signals]
