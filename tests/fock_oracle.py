"""Oracles for the convention of `to_fock`: with a Gaussian window it must
return an entire function F, so both residuals below are small."""

import numpy as np
from scipy.ndimage import binary_dilation

from stftlab.grids import TFField
from stftlab.norms import field_gradient
from stftlab.transforms import FockField


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
