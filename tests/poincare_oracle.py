"""Dense reference for the Neumann spectral gap of `poincare_constant`: the
full symmetric eigensolve of D A D with D = diag(measure^{-1/2}), the same
spectrum as the generalized problem A u = mu M u."""

import numpy as np
from scipy.linalg import eigh

from stftlab.geometry import DomainMask, _build_laplacian


def dense_mu1(mask: DomainMask, weights: np.ndarray) -> float:
    """Second-smallest eigenvalue of the weighted Neumann Laplacian on a
    connected mask of at least two cells."""
    lap, measure = _build_laplacian(mask, weights)
    dval = 1.0 / np.sqrt(measure)
    sym = lap.toarray() * dval[:, None] * dval[None, :]
    sym = 0.5 * (sym + sym.T)
    return float(eigh(sym, eigvals_only=True, subset_by_index=[0, 1])[1])
