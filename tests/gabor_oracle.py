"""Closed-form Gabor transforms of the thm15 family, the reference for its
rungs k >= 1, whose stored ratios divide by a modulus difference below what
an FFT of O(1) fields resolves.

With the unit Gaussian g = 2^{1/4} e^{-pi t^2} as signal and window,

    V_g(M_a g)(x, w) = e^{-pi (x^2 + (w - a)^2) / 2} e^{-pi i x (w - a)},

and every member of `forge.stft_instability_family(g, ...)` is g plus
+-delta s_n M_{a_n} g over its ladder. Rung k splits as V f_eps = P + Q and
V flipped[k] = P - Q, with Q the terms from rung k on. The modulus difference
is then |P + Q| - |P - Q| = 4 Re(P conj Q) / (|P + Q| + |P - Q|), which keeps
its full relative precision however small it is."""

import numpy as np

from stftlab.grids import TFField
from stftlab.norms import LqNorm, phase_inf_distance


def gabor_modulated(tf, a: float) -> np.ndarray:
    """V_g(M_a g) on the TF grid."""
    x, w = tf.xmesh(), tf.wmesh() - a
    return np.exp(-np.pi * (x * x + w * w) / 2.0 - 1j * np.pi * x * w)


def rung_parts(fam, tf, k: int) -> tuple:
    """(P, Q) of rung k: P holds the base and the terms before rung k."""
    p = gabor_modulated(tf, 0.0)
    q = np.zeros_like(p)
    for n, (scale, a) in enumerate(zip(fam.scales, fam.ladder)):
        term = fam.delta * scale * gabor_modulated(tf, a)
        if n < k:
            p += term
        else:
            q += term
    return p, q


def modulus_difference(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|P + Q| - |P - Q| without cancellation; 0 where both moduli underflow
    to 0."""
    den = np.abs(p + q) + np.abs(p - q)
    out = np.zeros(den.shape)
    np.divide(4.0 * np.real(p * np.conj(q)), den, out=out, where=den > 0.0)
    return out


def exact_ratio(fam, tf, k: int, q: float, denominator) -> float:
    """The rung-k ratio of `forge.field_instability_ratio`, from the closed
    form: the L^q phase distance of V f_eps and V flipped[k] over the
    `denominator` norm of their modulus difference."""
    p, qk = rung_parts(fam, tf, k)
    num = phase_inf_distance(TFField(tf, p + qk), TFField(tf, p - qk),
                             LqNorm(q)).distance
    return num / denominator(TFField(tf, modulus_difference(p, qk)))
