"""References for the Neumann spectral gap of `poincare_constant`.

`dense_mu1` is the full symmetric eigensolve of D A D with
D = diag(measure^{-1/2}), the same spectrum as the generalized problem
A u = mu M u. The two closed forms sit on the certificate's own domains:
the uniform disk, and the Gaussian weight of the constant-field pair.
"""

import numpy as np
from scipy.linalg import eigh
from scipy.special import jnp_zeros

from stftlab.geometry import DomainMask, _build_laplacian


def dense_mu1(mask: DomainMask, weights: np.ndarray) -> float:
    """Second-smallest eigenvalue of the weighted Neumann Laplacian on a
    connected mask of at least two cells."""
    lap, measure = _build_laplacian(mask, weights)
    dval = 1.0 / np.sqrt(measure)
    sym = lap.toarray() * dval[:, None] * dval[None, :]
    sym = 0.5 * (sym + sym.T)
    return float(eigh(sym, eigvals_only=True, subset_by_index=[0, 1])[1])


def uniform_disk_mu1(radius: float) -> float:
    """First nonzero Neumann eigenvalue of the Laplacian on a disk:
    (j'_{1,1} / R)^2, j'_{1,1} = 1.841184 the first zero of J_1'."""
    return float(jnp_zeros(1, 1)[0] / radius) ** 2


def bakry_emery_floor(a: float) -> float:
    """Lower bound 2a on the first nonzero Neumann eigenvalue of the
    Laplacian weighted by e^{-a|z|^2} (the Ornstein-Uhlenbeck operator) on
    any convex domain: the potential a|z|^2 has Hessian 2a, and the bound is
    attained in the limit of large domains (Bakry-Emery)."""
    return 2.0 * a
