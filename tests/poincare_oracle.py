"""References for the Neumann spectral gap of `poincare_constant`.

`full_grid_laplacian` builds the weighted Laplacian and the vertex measure
over the whole grid; `geometry._build_laplacian` builds them on the mask's
bounding box and must reproduce its bits. `dense_mu1` is the full symmetric
eigensolve of D A D with D = diag(measure^{-1/2}), the same spectrum as the
generalized problem A u = mu M u. The closed forms: the uniform square of the
grid, exact for the discrete operator, and two that sit on the certificate's
own domains, the uniform disk and the Gaussian weight of the constant-field
pair.
"""

import math

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.special import jnp_zeros

from stftlab.geometry import DomainMask


def full_grid_laplacian(mask: DomainMask, weights: np.ndarray):
    """(lap, measure): the 5-point Neumann Laplacian with edge conductances
    0.5 (w_a + w_b) dy/dx (or dx/dy) and vertex measures w dx dy, vertices in
    row-major order of the mask's cells. weights has the grid's shape."""
    tg = mask.tfgrid
    dx = tg.xgrid.dx
    dy = tg.wgrid.dx
    inside = mask.inside
    n = int(np.count_nonzero(inside))
    index = -np.ones(inside.shape, dtype=np.int64)
    index[inside] = np.arange(n)

    rows, cols, conds = [], [], []

    def add_edges(sa, sb, coeff):
        pair = inside[sa] & inside[sb]
        rows.append(index[sa][pair])
        cols.append(index[sb][pair])
        conds.append(0.5 * (weights[sa][pair] + weights[sb][pair]) * coeff)

    add_edges((slice(None, -1), slice(None)), (slice(1, None), slice(None)),
              dy / dx)
    add_edges((slice(None), slice(None, -1)), (slice(None), slice(1, None)),
              dx / dy)

    ia = np.concatenate(rows)
    ib = np.concatenate(cols)
    cc = np.concatenate(conds)
    deg = np.zeros(n)
    np.add.at(deg, ia, cc)
    np.add.at(deg, ib, cc)
    lap = sparse.coo_matrix(
        (np.concatenate([-cc, -cc, deg]),
         (np.concatenate([ia, ib, np.arange(n)]),
          np.concatenate([ib, ia, np.arange(n)]))),
        shape=(n, n),
    ).tocsr()
    measure = weights[inside] * (dx * dy)
    return lap, measure


def dense_mu1(mask: DomainMask, weights: np.ndarray) -> float:
    """Second-smallest eigenvalue of the weighted Neumann Laplacian on a
    connected mask of at least two cells."""
    lap, measure = full_grid_laplacian(mask, weights)
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


def uniform_square_mu1(m: int, h: float) -> float:
    """First nonzero eigenvalue of the unweighted 5-point Neumann Laplacian
    on a square of m x m grid cells of side h. Its graph is P_m x P_m, the
    product of two paths, whose Laplacian has the eigenvalues
    4 sin^2(pi k / (2 m)), k = 0 .. m - 1; so
    mu_1 = (4 / h^2) sin^2(pi / (2 m))."""
    return 4.0 / h ** 2 * math.sin(math.pi / (2 * m)) ** 2
