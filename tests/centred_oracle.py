"""The centred spectral paths of the Sobolev norms: the reference for
`norms.bessel_potential` and `norms._derivative_term`, which work in fft
order. Every transform here is the centred DFT of `grids` (cdft, cdft2) or
its inverse, with the multiplier laid out on the centred dual grid."""

import numpy as np

from stftlab.grids import cdft, cdft2, icdft, riemann_lp


def icdft2(a: np.ndarray) -> np.ndarray:
    """Inverse of cdft2."""
    return icdft(icdft(a, axis=0), axis=1)


def freq_radius(space) -> np.ndarray:
    """|xi| on the centred dual grid of a Grid1D, or |(xi, eta)| of a TFGrid."""
    radii = [ax.freq_radius() for ax in space.axes]
    if len(radii) == 1:
        return radii[0]
    return np.hypot(radii[0][:, None], radii[1][None, :])


def _forward(a: np.ndarray) -> np.ndarray:
    return cdft(a) if a.ndim == 1 else cdft2(a)


def _inverse(a: np.ndarray) -> np.ndarray:
    return icdft(a) if a.ndim == 1 else icdft2(a)


def multiplier(space, s: float) -> np.ndarray:
    return (1.0 + np.square(freq_radius(space))) ** (s / 2.0)


def bessel_potential(obj, s: float):
    """<D>^s f through the centred round trip."""
    return obj.like(_inverse(multiplier(obj.space, s) * _forward(obj.values)))


def derivative_norm(obj, s: float, p: float) -> float:
    """||<D>^s f||_p: on the full centred spectrum for p = 2 (Parseval),
    through the centred round trip otherwise."""
    sp = obj.space
    if p == 2:
        spectrum = multiplier(sp, s) * (sp.cell * _forward(obj.values))
        return riemann_lp(spectrum, sp.dual_cell, 2.0)
    return riemann_lp(bessel_potential(obj, s).values, sp.cell, p)
