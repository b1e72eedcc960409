"""Scan references for `phase_inf_distance` off the L2 closed form: the
720-angle circle scan with golden-section refinement of its best angle over
the two neighbouring grid steps, and a brute-force minimum over equispaced
angles, whose value can only lie above the infimum."""

import numpy as np

from stftlab.norms import _as_complex, _golden_min

SCAN_ANGLES = 720
SCAN_TOL = 1e-10


def scan_distance(norm, f, g) -> tuple[float, int]:
    """(distance, evaluations) of the coarse scan plus golden refinement."""
    ev = norm.pair_evaluator(f, g)

    def fun(theta):
        return ev(complex(np.exp(1j * theta)))

    step = 2.0 * np.pi / SCAN_ANGLES
    vals = [fun(step * k) for k in range(SCAN_ANGLES)]
    i0 = int(np.argmin(vals))
    _, best, n = _golden_min(fun, step * (i0 - 1), step * (i0 + 1), SCAN_TOL)
    return min(best, vals[i0]), SCAN_ANGLES + n


def brute_force_distance(norm, f, g, count: int = 100_000) -> float:
    """min of ||f - lambda g|| over count equispaced unit phases, evaluated in
    blocks of phases on the linear images that make up the norm (the terms of
    each member of an intersection)."""
    members = getattr(norm, "members", (norm,))
    terms = [list(zip(m._terms(_as_complex(f)), m._terms(_as_complex(g))))
             for m in members]
    best = np.inf
    for block in np.array_split(np.arange(count), max(count // 5000, 1)):
        lam = np.exp(2j * np.pi * block / count)[:, None]
        vals = np.zeros(block.size)
        for member in terms:
            total = np.zeros(block.size)
            for (af, cell, p), (ag, _, _) in member:
                diff = np.abs(af.ravel()[None, :] - lam * ag.ravel()[None, :])
                total += (diff.max(axis=1) if np.isinf(p) else
                          (cell * np.sum(diff ** p, axis=1)) ** (1.0 / p))
            vals = np.maximum(vals, total)
        best = min(best, float(vals.min()))
    return best
