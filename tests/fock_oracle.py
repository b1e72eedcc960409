"""The Bargmann/Fock view of a Gaussian-window transform, and the oracles
for its convention: with a Gaussian window `to_fock` must return an entire
function F, so both residuals below are small. The library itself needs only
the Fock weight (`transforms.fock_exponent`) and the polynomial fields of
`transforms.fock_polynomial_field`."""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_dilation

from stftlab.grids import TFField
from stftlab.norms import field_gradient
from stftlab.transforms import _FOCK_EXP_CLAMP, WindowSpec, fock_exponent


@dataclass(frozen=True)
class FockField:
    """Samples of an entire function F, with the Gaussian weight stripped.

    trust marks where the weighted data was large enough for the unweighted
    sample to mean anything; outside it the values are noise amplified by
    e^{pi |z|^2 / 2} and must not enter any residual.
    """

    field: TFField
    trust: np.ndarray

    def __post_init__(self):
        if self.trust.shape != self.field.values.shape:
            raise ValueError("trust mask shape mismatch")


def to_fock(g: TFField, window: WindowSpec = WindowSpec("gaussian")) -> FockField:
    """Strip weight and unimodular twist: F(z) = e^{pi|z|^2/2} e^{-pi i x w} G(x,-w).

    Only a Gaussian window produces a holomorphic F; the convention (sign of
    the twist, reflection in omega) is validated by the Cauchy-Riemann
    residual rather than taken on faith.
    """
    if window.kind != "gaussian":
        raise ValueError("the Fock view requires a Gaussian window")
    tf = g.tfgrid
    n = tf.shape[1]
    flipped = g.values[:, (n - np.arange(n)) % n]
    x, w = tf.xmesh(), tf.wmesh()
    vals = np.exp(fock_exponent(tf)) * np.exp(-1j * np.pi * x * w) * flipped
    mag = np.abs(flipped)
    # the clamp hides whether a cell was above it, so the trust test reads
    # the raw exponent: a cell at exactly 700 still carries its exact weight
    trust = (mag >= 1e-6 * float(np.max(mag))) & (
        np.pi * (x * x + w * w) / 2.0 <= _FOCK_EXP_CLAMP)
    return FockField(TFField(tf, vals), trust)


def _interior(shape: tuple, margin: int = 2) -> np.ndarray:
    ok = np.zeros(shape, dtype=bool)
    ok[margin:-margin, margin:-margin] = True
    return ok


def fock_cauchy_riemann_residual(fock: FockField) -> float:
    """Sup of |dF/dx + i dF/dw| over the trusted interior, relative to |F'|.

    Zero (exactly) for numerically constant fields, where no derivative scale
    exists to compare against.
    """
    tf = fock.field.tfgrid
    gx, gw = field_gradient(fock.field)
    region = fock.trust & _interior(fock.field.values.shape)
    if not region.any():
        raise ValueError("no trusted interior samples")
    scale = max(float(np.max(np.abs(gx[region]))), float(np.max(np.abs(gw[region]))))
    top = float(np.max(np.abs(gx[region] + 1j * gw[region])))
    # numerically constant: total variation across one cell is noise-level
    h = min(tf.xgrid.dx, tf.wgrid.dx)
    if scale * h <= 1e-8 * float(np.max(np.abs(fock.field.values[region]))):
        return 0.0
    return top / scale


def fock_key_identity_residual(fock: FockField) -> float:
    """Defect of |grad|F|| = |F'| where |F| is an honest fraction of its max.

    For holomorphic F the modulus gradient has length exactly |F'|. The
    modulus has a cone at every zero of F, so centered stencils lose their
    accuracy within a couple of cells of one; the region keeps two pixels of
    slack around the sub-threshold set.
    """
    tf = fock.field.tfgrid
    vals = fock.field.values
    fx, _ = field_gradient(fock.field)
    ax, aw = field_gradient(TFField(tf, np.abs(vals)))
    grad_mod = np.hypot(ax, aw)
    deriv = np.abs(fx)
    near_zero = np.abs(vals) <= 1e-3 * float(np.max(np.abs(vals[fock.trust])))
    region = fock.trust & _interior(vals.shape)
    region &= ~binary_dilation(near_zero, iterations=2)
    if not region.any():
        raise ValueError("no usable samples for the gradient identity")
    scale = float(np.max(deriv[region]))
    h = min(tf.xgrid.dx, tf.wgrid.dx)
    if scale * h <= 1e-8 * float(np.max(np.abs(vals[region]))):
        return 0.0
    return float(np.max(np.abs(grad_mod[region] - deriv[region]))) / scale
