"""Short-time Fourier analysis on periodic grids.

The pipeline: window a signal, transform per column, and study the resulting
time-frequency field through its modulus and its ambiguity function. The
Fock side enters only through its Gaussian weight and the polynomial fields
that the stability certificates compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rules
from .grids import (
    Grid1D,
    Signal,
    TFField,
    TFGrid,
    gaussian,
    hermite,
    icdft,
    modulate,
    tf_grid_of,
    translate,
)
from .norms import _spectrum, japanese_bracket


# rows per FFT batch; bounds the (chunk x N) scratch block to a few MB
_STFT_CHUNK = 256

# e^700 is near the top of double range; larger weights are not representable
_FOCK_EXP_CLAMP = 700.0


@dataclass(frozen=True)
class WindowSpec:
    """Analysis window: "gaussian", or "hermite" with its order."""

    kind: str = "gaussian"
    order: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "hermite"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.kind == "hermite":
            rules.SIZE.check("hermite window order", self.order)

    def build(self, grid: Grid1D) -> Signal:
        if self.kind == "gaussian":
            return gaussian(grid)
        return hermite(grid, self.order)


def parse_window(text: str) -> WindowSpec:
    """"gaussian" or "hermite:N"."""
    text = text.strip()
    if text == "gaussian":
        return WindowSpec("gaussian")
    if text.startswith("hermite:"):
        order = rules.SIZE(text[len("hermite:"):], "hermite order")
        return WindowSpec("hermite", order=order)
    raise ValueError(f"bad window spec {text!r}")


def _stft_values(fv: np.ndarray, wv: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Rows indexed by window center x_i, columns by frequency.

    Row i is dx times the centred DFT of f(t) conj(w)(t - x_i). That DFT
    first rolls its input by -N/2 (ifftshift), so with fs = f rolled by
    -N/2 it transforms fs[t] conj(w)[(t - i) mod N]: the same products of
    the same numbers, with the shift folded into fs. The window factor is
    entry n - i of the sliding windows over conj(w) twice over, a strided
    view with no gather. Each batch of _STFT_CHUNK rows is multiplied and
    transformed in one reused buffer; the output shift (fftshift) only
    swaps the two halves of a row, so each half is scaled by dx straight
    into its place in out.
    """
    n = grid.count
    h = n // 2
    fs = np.roll(fv, -h)[None, :]
    cw = np.conj(wv)
    circ = sliding_window_view(np.concatenate([cw, cw]), n)[n:0:-1]
    out = np.empty((n, n), dtype=np.complex128)
    buf = np.empty((min(_STFT_CHUNK, n), n), dtype=np.complex128)
    for start in range(0, n, _STFT_CHUNK):
        rows = slice(start, start + _STFT_CHUNK)
        block = buf[:min(_STFT_CHUNK, n - start)]
        np.multiply(fs, circ[rows], out=block)
        np.fft.fft(block, axis=1, out=block)
        np.multiply(grid.dx, block[:, h:], out=out[rows, :h])
        np.multiply(grid.dx, block[:, :h], out=out[rows, h:])
    return out


def stft(f: Signal, window: WindowSpec = WindowSpec("gaussian")) -> TFField:
    """V_w f(x, omega) = integral of f(t) conj(w(t-x)) e^{-2 pi i t omega} dt.

    Row x is the Fourier transform of the windowed slice, so the whole field
    costs one batched FFT pass. With a unit window the map is an L2 isometry
    up to the boundary mass of the fixtures. The field lives on
    tf_grid_of(f.grid).
    """
    grid = f.grid
    w = window.build(grid)
    return TFField(tf_grid_of(grid), _stft_values(f.values, w.values, grid))


def covariance_residuals(f: Signal, window: WindowSpec,
                         shifts) -> list[float]:
    """Sup-norm defect of V(T_u M_eta f) = e^{-2 pi i u omega} V f(.-u, .-eta)
    at each (u, eta) of shifts, in order; V f is transformed once.

    Shifts must be on-grid; then both sides are exact index rolls and the
    residual is pure floating-point noise.
    """
    grid = f.grid
    base = stft(f, window)
    wmesh = base.tfgrid.wmesh()
    out = []
    for u, eta in shifts:
        shifted = translate(modulate(f, eta), u)
        lhs = stft(shifted, window).values
        s = grid.index_of(u, "translation") - grid.count // 2
        m = grid.dual().index_of(eta, "modulation") - grid.count // 2
        rolled = np.roll(base.values, (s, m), axis=(0, 1))
        phase = np.exp(-2j * np.pi * u * wmesh)
        out.append(float(np.max(np.abs(lhs - phase * rolled))))
    return out


def _chirp(tf: TFGrid, sign: int) -> np.ndarray:
    """exp(sign i pi x omega) on an N x N TF grid, bit for bit the
    expression np.exp(c * tf.xmesh() * tf.wmesh()) with c = 1j * np.pi for
    sign +1 and c = -1j * np.pi for sign -1.

    exp is taken on the quadrant x, omega >= 0 only: indices N/2 ... N - 1
    of each axis plus the mirror N/2 dx of index 0. A centred axis holds
    x_k = (k - N/2) dx, and (-j) dx = -(j dx) exactly, so a mirrored point
    has the negated phase, and since libm's cos is even and sin odd, its
    exp is the quadrant entry conjugated (one coordinate mirrored) or as it
    is (both): reversed views of the quadrant. The row x = 0 and the column
    omega = 0 have a signed zero phase that the conjugate would flip and
    the expression does not, so they come from the expression itself.
    """
    n = tf.xgrid.count
    h = n // 2
    c = (1j if sign > 0 else -1j) * np.pi
    quad = np.exp(c * (np.arange(h + 1) * tf.xgrid.dx)[:, None]
                  * (np.arange(h + 1) * tf.wgrid.dx)[None, :])
    out = np.empty((n, n), dtype=np.complex128)
    out[h:, h:] = quad[:h, :h]
    out[:h, :h] = quad[h:0:-1, h:0:-1]
    np.conjugate(quad[h:0:-1, :h], out=out[:h, h:])
    np.conjugate(quad[:h, h:0:-1], out=out[h:, :h])
    x, w = tf.xmesh(), tf.wmesh()
    out[h:h + 1] = np.exp(c * x[h:h + 1] * w)
    out[:, h:h + 1] = np.exp(c * x * w[:, h:h + 1])
    return out


def ambiguity(f: Signal) -> TFField:
    """A f(x, omega) = e^{pi i x omega} V_f f(x, omega); A f(0,0) = ||f||^2."""
    tf = tf_grid_of(f.grid)
    v = _stft_values(f.values, f.values, f.grid)
    return TFField(tf, np.multiply(_chirp(tf, 1), v, out=v))


def phaseless(f: Signal, window: WindowSpec = WindowSpec("gaussian")) -> TFField:
    """|V_w f|^2, the measurement a phase-retrieval problem starts from."""
    v = stft(f, window)
    return TFField(v.tfgrid, np.abs(v.values) ** 2)


def _require_self_dual(tf: TFGrid, what: str) -> None:
    """Refuse a TF grid unless its x-axis is self-dual (Grid1D.is_self_dual)
    and its omega-axis is that axis's dual."""
    if not (tf.xgrid.is_self_dual and tf.wgrid == tf.xgrid.dual()):
        raise ValueError(
            f"{what} needs a self-dual square TF grid (L^2 = N); "
            f"got axes {tf.xgrid} and {tf.wgrid}"
        )


def _require_measurement(m: TFField) -> None:
    """Refuse what recover cannot invert: a measurement off a self-dual
    grid, a non-real one, one with a sample below -1e-12 max(peak, 1) (the
    rule cheeger_estimate applies to a density) or a zero one."""
    _require_self_dual(m.tfgrid, "recovery")
    if np.iscomplexobj(m.values) and m.values.imag.any():
        raise ValueError("measurement must be real: its imaginary part is "
                         "not 0")
    vals = m.values.real
    if (vals < -1e-12 * max(vals.max(), 1.0)).any():
        raise ValueError("measurement must be nonnegative")
    if not m.values.any():
        raise ValueError("zero measurement")


def _measurement_fourier_side(m: TFField) -> np.ndarray:
    """F(M)(omega, -x) on the (x, omega) grid: cell times the centred 2D
    DFT of M at (omega, -x), since axis 0 of the DFT runs over the dual of
    x (the omega axis) and axis 1 over the x axis.

    The centred DFT rolls both axes by N/2 and transforms axis 0, then 1;
    norms._spectrum transforms axis 1, then 0, each line alone, so on the
    transpose of the rolled M it takes the same lines in the same order,
    bits and all, and its entry (j, i) is the DFT's (i, j). Entry (i, j)
    here is cell times spectrum entry ((N/2 - i) mod N, (j + N/2) mod N):
    the output roll and the reflection are one scaled pass over four blocks.
    """
    n = m.tfgrid.shape[0]
    h = n // 2
    spec = _spectrum(np.roll(m.values, h, axis=(0, 1)).T)
    cell = m.tfgrid.cell
    out = np.empty((n, n), dtype=np.complex128)
    np.multiply(cell, spec[h::-1, h:], out=out[:h + 1, :h])
    np.multiply(cell, spec[h::-1, :h], out=out[:h + 1, h:])
    np.multiply(cell, spec[:h:-1, h:], out=out[h + 1:, :h])
    np.multiply(cell, spec[:h:-1, :h], out=out[h + 1:, h:])
    return out


def ambiguity_relation_residuals(signals, windows) -> list[list[float]]:
    """Relative sup defect of F(|V_w f|^2)(omega, -x) = A f . conj(A w) for
    every signal f (one row each) and window w (one entry each), all on one
    grid; each A f and each A w is built once."""
    grid = signals[0].grid
    if any(f.grid != grid for f in signals):
        raise ValueError("the ambiguity relation takes signals on one grid")
    _require_self_dual(tf_grid_of(grid), "the ambiguity relation")
    conj_aw = [np.conj(ambiguity(w.build(grid)).values) for w in windows]
    rows = []
    for f in signals:
        af = ambiguity(f).values
        row = []
        for window, caw in zip(windows, conj_aw):
            lhs = _measurement_fourier_side(phaseless(f, window))
            rhs = af * caw
            den = float(np.max(np.abs(rhs)))
            num = float(np.max(np.abs(lhs - rhs)))
            if den == 0.0:
                row.append(0.0 if num == 0.0 else float("inf"))
            else:
                row.append(num / den)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fock-space weight and polynomial fields


def fock_exponent(tf: TFGrid) -> np.ndarray:
    """pi |z|^2 / 2 on the grid, clamped at 700 so that e^{+-exponent} stays
    representable: the exponent of the Fock weight e^{pi|z|^2/2}."""
    x, w = tf.xmesh(), tf.wmesh()
    return np.minimum(np.pi * (x * x + w * w) / 2.0, _FOCK_EXP_CLAMP)


def fock_polynomial_field(roots, tf: TFGrid) -> tuple[TFField, TFField]:
    """F(z) = prod (z - z_i) together with its Gaussian-weighted field.

    The weighted field F(z) e^{-pi|z|^2/2} must decay below 1e-8 of its peak
    at the grid boundary, otherwise the grid is too small to hold the
    polynomial and periodization would lie.
    """
    x, w = tf.xmesh(), tf.wmesh()
    z = x + 1j * w
    half_x = tf.xgrid.length / 2.0
    half_w = tf.wgrid.length / 2.0
    vals = np.ones(tf.shape, dtype=np.complex128)
    for root in roots:
        root = complex(root)
        if abs(root.real) >= half_x or abs(root.imag) >= half_w:
            raise ValueError(f"root {root} outside the grid interior")
        vals = vals * (z - root)
    weighted = vals * np.exp(-fock_exponent(tf))
    peak = float(np.max(np.abs(weighted)))
    edge = np.zeros(tf.shape, dtype=bool)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    rim = float(np.max(np.abs(weighted[edge])))
    if peak == 0.0 or rim > 1e-8 * peak:
        raise ValueError(
            f"grid too small: boundary mass {rim:.3e} vs peak {peak:.3e}"
        )
    return TFField(tf, vals), TFField(tf, weighted)


# ---------------------------------------------------------------------------
# inversion


@dataclass(frozen=True)
class RecoveryResult:
    signal: Signal
    masked_fraction: float
    threshold: float


def recover(measurement: TFField, window: WindowSpec = WindowSpec("gaussian"),
            threshold: float | None = None) -> RecoveryResult:
    """Invert |V_w f|^2 up to a global phase.

    Fourier-transforming the measurement gives A f . conj(A w); dividing off
    the window ambiguity where it is safely nonzero and inverting row-wise
    yields the correlations f(t) conj(f(t - x)). The x = 0 row is |f|^2; the
    column through the modulus peak then determines f up to one phase.

    The division is the unstable step, so it is masked where |A w| falls
    below `threshold` times the window ambiguity's peak |A w(0,0)|, a
    fraction in (0, 1) (default 1e-6). The result reports that absolute
    level and the zeroed fraction of the plane. A fraction below 1 keeps
    the origin, whose row carries |f|^2.
    """
    _require_measurement(measurement)
    tf = measurement.tfgrid
    grid = tf.xgrid
    w = window.build(grid)
    amb_w = ambiguity(w).values
    origin = grid.count // 2
    peak = abs(amb_w[origin, origin])
    threshold = peak * rules.FRACTION(
        1e-6 if threshold is None else threshold, "threshold")
    mask = np.abs(amb_w) >= threshold
    lhs = _measurement_fourier_side(measurement)
    amb_f = np.zeros_like(lhs)
    np.divide(lhs, np.conj(amb_w), out=amb_f, where=mask)
    masked_fraction = 1.0 - float(np.count_nonzero(mask)) / mask.size

    v_ff = np.multiply(_chirp(tf, -1), amb_f, out=amb_f)
    corr = icdft(v_ff, axis=1) / grid.dx

    power = corr[origin].real
    t0 = int(np.argmax(np.abs(power)))
    amp2 = power[t0]
    if amp2 <= 0:
        raise ValueError("recovered modulus peak is not positive")
    k = np.arange(grid.count)
    rec = corr[(k - t0 + origin) % grid.count, k] / np.sqrt(amp2)
    return RecoveryResult(Signal(grid, rec), masked_fraction, float(threshold))


# ---------------------------------------------------------------------------
# window comparison diagnostic


@dataclass(frozen=True)
class WindowComparison:
    """Grid supremum of the growth field <(x,w)> |A_phi / A_Phi|.

    A finite sup means phase-retrieval stability transfers from phi to Phi
    with at most one extra weight order. sup is infinite exactly when the
    denominator ambiguity vanishes on a grid point where the numerator does
    not. A nonzero n_zeros (grid dropouts plus sign-change midpoints)
    signals the continuum supremum is infinite even when the grid one is not.
    Zeros are counted, never raised.
    """

    sup: float
    n_zeros: int


def window_comparison_ratio(a_phi: TFField,
                            a_big_phi: TFField) -> WindowComparison:
    """The growth field of two window ambiguities A phi, A Phi on one grid."""
    tf = a_big_phi.tfgrid
    if a_phi.tfgrid != tf:
        raise ValueError("window comparison takes ambiguities on one grid; "
                         f"got {a_phi.tfgrid} and {tf}")
    a_num, a_den = a_phi.values, a_big_phi.values
    bracket = japanese_bracket(tf.radius())

    if np.array_equal(a_num, a_den):
        # identical windows: the ratio is 1 by definition, even where both
        # ambiguities sit below the measurement floor
        return WindowComparison(float(np.max(bracket)),
                                _ambiguity_zero_count(a_den, 0))

    abs_num, abs_den = np.abs(a_num), np.abs(a_den)
    with np.errstate(over="ignore"):
        ratio = np.zeros(tf.shape)
        np.divide(abs_num, abs_den, out=ratio, where=abs_den > 0.0)
    # a cell is a genuine dropout only if the numerator still carries signal
    # there; shared underflow deep in the tails is dynamic range, not a zero
    informative = abs_num > 1e-12 * float(np.max(abs_num))
    genuine = informative & ((abs_den == 0.0) | ~np.isfinite(ratio))
    ratio[~np.isfinite(ratio)] = 0.0
    ratio[abs_den == 0.0] = 0.0
    field = bracket * ratio

    sup = float("inf") if genuine.any() else float(np.max(field))
    return WindowComparison(
        sup, _ambiguity_zero_count(a_den, int(np.count_nonzero(genuine))))


def _ambiguity_zero_count(a: np.ndarray, dropouts: int) -> int:
    """Approximate zero count of an ambiguity field: the genuine magnitude
    dropouts plus, for numerically real fields, the sign changes between
    neighbors that both sit above the noise floor. Dropouts lie on grid
    points, x-edge sign changes at x-midpoints and omega-edge ones at
    omega-midpoints, so no point is counted twice."""
    re = a.real
    if np.max(np.abs(a.imag)) > 1e-9 * np.max(np.abs(re)):
        return dropouts
    mag = np.abs(a)
    solid = mag > 1e-12 * float(np.max(mag))
    x_edges = (re[:-1, :] * re[1:, :] < 0) & solid[:-1, :] & solid[1:, :]
    w_edges = (re[:, :-1] * re[:, 1:] < 0) & solid[:, :-1] & solid[:, 1:]
    return (dropouts + int(np.count_nonzero(x_edges))
            + int(np.count_nonzero(w_edges)))
