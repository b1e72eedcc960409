"""The full-mesh spectral paths: the reference for `norms._multiplier`,
`norms._weighted`, `norms.bessel_potential` and `norms._derivative_term`,
which build their radial meshes on one quadrant and run their 2-D
transforms on a padded row stride. Here every mesh covers the whole grid
and every transform is a plain `numpy.fft.fftn`, `rfftn` or `ifftn`; the
products take their factors in the same order, so both paths agree bit for
bit."""

import functools
import math

import numpy as np

from stftlab.norms import japanese_bracket


def multiplier(space, s: float, half: bool = False) -> np.ndarray:
    """(1 + |xi|^2)^{s/2} in fft order over every axis of space; half keeps
    the rfftn half [:N/2 + 1] of the last axis."""
    radii = [np.fft.ifftshift(ax.freq_radius()) for ax in space.axes]
    if half:
        radii[-1] = radii[-1][:radii[-1].size // 2 + 1]
    rho = functools.reduce(np.hypot, np.ix_(*radii))
    return (1.0 + np.square(rho)) ** (s / 2.0)


def weighted(values: np.ndarray, space, r: float) -> np.ndarray:
    """<x>^r . values on the whole grid."""
    if r == 0:
        return values
    return japanese_bracket(space.radius()) ** r * values


def bessel_potential(obj, s: float):
    return obj.like(np.fft.ifftn(multiplier(obj.space, s)
                                 * np.fft.fftn(obj.values)))


def derivative_term(obj, s: float, p: float):
    """(array, cell, p) whose riemann_lp is ||<D>^s f||_p."""
    sp = obj.space
    if s == 0:
        return obj.values, sp.cell, p
    if p != 2:
        return bessel_potential(obj, s).values, sp.cell, p
    half = not np.iscomplexobj(obj.values)
    spectrum = (np.fft.rfftn if half else np.fft.fftn)(obj.values)
    term = multiplier(sp, s, half) * (sp.cell * spectrum)
    if half:
        term[..., 1:-1] *= math.sqrt(2.0)
    return term, sp.dual_cell, 2.0
