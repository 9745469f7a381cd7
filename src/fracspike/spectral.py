"""Fourier-side operators on the periodic box.

The fractional Laplacian acts as the multiplier |xi|^(2s) on the discrete
frequencies xi = pi*n/L (zero mode annihilated exactly), and the resolvent
((-Delta)^s + m)^(-1) as 1/(|xi|^(2s) + m). Every real Fourier multiplier
goes through `apply_multiplier` (one rfftn/irfftn pair), and the solvers
share `FracOperator`, which applies (-Delta)^s, (-Delta)^s + m and
T_m = ((-Delta)^s + m)^(-1) to raw arrays. Band-limited translation and
dilation let profiles be moved off-grid and rescaled without losing spectral
accuracy: translation is a phase twist (one phase and one derivative
symbol, with their Nyquist rules, serve `translate`, `spectral_derivative`
and `translates`), dilation a resampling of the trigonometric interpolant,
by chirp-z (`czt`, Bluestein's on `numpy.fft`) in 1d and by separable
interpolation matrices in 2d. The 1d far-field fit closes its image sums
with an in-house Hurwitz zeta (`_hurwitz_zeta`), so this module loads no
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fracspike import kernels
from fracspike.grid import Field, Grid

__all__ = [
    "apply_multiplier",
    "FracOperator",
    "far_field_fit",
    "FarFieldFit",
    "rho_field",
    "radial_profile",
    "spectral_derivative",
    "translate",
    "translates",
    "dilate",
    "dilate_window",
    "dilate_even_window",
    "inner",
]

# far-field fits run over r in [FIT_WINDOW[0] L, FIT_WINDOW[1] L]
FIT_WINDOW = (0.2, 0.4)
# image shells per axis and angles of the 2d periodized power law
IMAGE_SHELLS_2D = 2
IMAGE_ANGLES_2D = 128


def apply_multiplier(values: np.ndarray, grid: Grid, multiplier) -> np.ndarray:
    """irfftn(multiplier * rfftn(values)) on the grid, in the shape of values.

    values holds grid.size samples, grid-shaped or flat; multiplier lives on
    the rfftn half-spectrum (anything that broadcasts against it). Both
    transforms are given s = grid.shape. It is the shape numpy would infer,
    but rfftn infers it with `np.take` on every call, at 5-9 us a call
    against a 1d (M = 1024) MINRES iteration of ~80 us (numpy 2.4, 2 vCPUs).
    """
    shape = grid.shape
    axes = tuple(range(grid.dim))
    out = np.fft.irfftn(multiplier * np.fft.rfftn(values.reshape(shape),
                                                  s=shape, axes=axes),
                        s=shape, axes=axes)
    return out.reshape(values.shape)


class FracOperator:
    """(-Delta)^s, (-Delta)^s + m and T_m = ((-Delta)^s + m)^(-1) on arrays.

    Each map costs one FFT pair; arrays may be grid-shaped or flat and come
    back in the same shape. m >= 0 (ValueError otherwise), and T_m exists
    only for m > 0: at m = 0 the symbol vanishes at the zero mode, so
    `resolvent` raises ValueError there.
    """

    def __init__(self, grid: Grid, s: float, m: float):
        if not m >= 0.0:
            raise ValueError(f"shift m must be nonnegative, got {m}")
        self.grid = grid
        self.m = m
        self.symbol = grid.symbol(2.0 * s)
        self.inv_symbol = 1.0 / (self.symbol + m) if m > 0.0 else None

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        return apply_multiplier(v, self.grid, self.symbol)

    def shifted(self, v: np.ndarray) -> np.ndarray:
        out = self.laplacian(v)
        out += self.m * v
        return out

    def resolvent(self, v: np.ndarray) -> np.ndarray:
        if self.inv_symbol is None:
            raise ValueError("resolvent needs a positive shift m, got m = 0")
        return apply_multiplier(v, self.grid, self.inv_symbol)


def _derivative_symbol(grid: Grid, axis: int) -> np.ndarray:
    """i*xi along one axis on the rfftn half-spectrum, zero at the Nyquist
    mode.

    The mode pi M / (2L) is its own mirror image, so no odd symbol can act
    on it: irfftn drops its imaginary part on the last (rfft) axis, and the
    full-FFT axes must drop it too, or an x <-> y symmetric profile gets
    derivatives that are not each other's transposes.
    """
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    xi = (grid.freq if axis < grid.dim - 1 else grid.rfreq).copy()
    xi[grid.points_per_axis // 2] = 0.0
    if grid.dim == 2:
        xi = xi[:, None] if axis == 0 else xi[None, :]
    return 1j * xi


def _shift_phase(grid: Grid, shift) -> np.ndarray:
    """The multiplier of g(x) = f(x - shift) on the rfftn half-spectrum.

    The phase is exp(-i xi a) per axis, save at the Nyquist mode, its own
    mirror image, where it is cos(xi a): irfftn keeps only that part on
    the last (rfft) axis, so the full-FFT axes must keep only it too, or
    moving an x <-> y symmetric profile along x and along y gives arrays
    that are not each other's transposes.
    """
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.shape != (grid.dim,):
        raise ValueError(f"shift must have {grid.dim} components")
    nyquist = grid.points_per_axis // 2
    phases = []
    for axis, a in enumerate(shift):
        xi = grid.freq if axis < grid.dim - 1 else grid.rfreq
        phase = np.exp(-1j * xi * a)
        phase[nyquist] = np.cos(xi[nyquist] * a)
        phases.append(phase)
    return phases[0] if grid.dim == 1 else \
        phases[0][:, None] * phases[1][None, :]


def spectral_derivative(f: Field, axis: int = 0) -> Field:
    """d/dx_axis via the i*xi multiplier, zero at the Nyquist mode."""
    return Field(f.grid, apply_multiplier(
        f.values, f.grid, _derivative_symbol(f.grid, axis)))


def translate(f: Field, shift) -> Field:
    """Band-limited translation: g(x) = f(x - shift), exact on the band;
    cos(xi a) at the Nyquist mode (`_shift_phase`)."""
    return Field(f.grid, apply_multiplier(f.values, f.grid,
                                          _shift_phase(f.grid, shift)))


def translates(f: Field, shifts) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """(f(x - a), [d/dx_j f(x - a) for each axis j]) for each a in shifts:
    `translate` and `spectral_derivative` to roundoff, in 1 + k (N + 1)
    transforms for k shifts instead of 2 k (N + 1)."""
    grid = f.grid
    shape, axes = grid.shape, tuple(range(grid.dim))
    spectrum = np.fft.rfftn(f.values, s=shape, axes=axes)
    symbols = [_derivative_symbol(grid, j) for j in axes]
    out = []
    for a in shifts:
        moved = spectrum * _shift_phase(grid, a)
        out.append((np.fft.irfftn(moved, s=shape, axes=axes),
                    [np.fft.irfftn(moved * d, s=shape, axes=axes)
                     for d in symbols]))
    return out


def czt(x: np.ndarray, w: complex, axis: int = -1) -> np.ndarray:
    """Chirp-z transform X_k = sum_j x_j w^(jk), k < n = x.shape[axis].

    Bluestein: jk = (j^2 + k^2 - (k - j)^2) / 2 turns the sum into a linear
    convolution of x_j w^(j^2/2) with the reciprocal chirp w^(-l^2/2),
    |l| < n, done by FFT at the next power of two >= 2n - 1.
    """
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    chirp = w ** (np.arange(n) ** 2 / 2.0)
    nfft = 1 << (2 * n - 2).bit_length()
    kernel = np.fft.fft(1.0 / np.concatenate((chirp[:0:-1], chirp)), nfft)
    y = np.fft.ifft(kernel * np.fft.fft(x * chirp, nfft))
    return np.moveaxis(y[..., n - 1:2 * n - 1] * chirp, -1, axis)


def _dilate_1d(values: np.ndarray, scale: float) -> np.ndarray:
    """Samples of the periodic interpolant at scale*x on the whole 1d grid.

    The resampling is one `czt` (in-house Bluestein on `numpy.fft`) of the
    centred, phase-shifted spectrum along w = exp(2 pi i scale / M); the
    real part is the interpolant with the Nyquist mode split evenly.
    """
    M = values.shape[0]
    n_signed = np.fft.fftfreq(M, d=1.0 / M)  # fft-order mode numbers
    A = np.fft.fftshift(np.fft.fft(values)
                        * np.exp(1j * np.pi * n_signed * (1.0 - scale)))
    X = czt(A, np.exp(2j * np.pi * scale / M))
    return (X * np.exp(-1j * np.pi * scale * np.arange(M))).real / M


def _dilate_2d(values: np.ndarray, scale: float, rows: np.ndarray,
               even: bool = False) -> np.ndarray:
    """The 2d interpolant at (scale x_j, scale x_k) for j, k in rows.

    It is D f D^T with the periodic sinc D_jl = sin(pi t) / (M tan(pi t/M)),
    t = (scale x_j - x_l) / h, minus (v^T f v / M^2) u u^T, u_j =
    sin(pi scale x_j / h), v_l = cos(pi x_l / h): D splits the Nyquist
    mode evenly between +-pi/h, and the rank-one term makes it the chirp-z
    convention (the mode at -pi/h alone on each axis, real part taken).
    For f even about the node c = M/2 on both axes (even=True), D f D^T is
    even too: it is F f_q F^T on the quadrant nodes c, c - 1, ..., with f_q
    the quadrant and F the sum of D's columns c - i and c + i (columns c
    and 0, each its own mirror, taken once), M/2 + 1 columns instead of M,
    mirrored onto rows. The rank-one term is odd under mirroring one axis,
    so it is subtracted after the mirror. The products run on `np.einsum`:
    a windowed gemm beside the FFT work let OpenBLAS threads spin, doubling
    CPU time at the same wall time.
    """
    M = values.shape[0]
    c = M // 2
    fold = np.abs(rows - c)
    at = c - np.arange(fold.max() + 1) if even else rows  # D's rows
    t = scale * (at[:, None] - c) - (np.arange(M)[None, :] - c)
    t -= M * np.round(t / M)  # D is M-periodic in t
    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.sin(np.pi * t) / (M * np.tan(np.pi * t / M))
    D[t == 0.0] = 1.0
    f = values
    if even:
        D[:, c - 1:0:-1] += D[:, c + 1:]  # column c - i gains column c + i
        D, f = D[:, c::-1], values[c::-1, c::-1]
    out = np.einsum("jl,lk->jk", D, np.einsum("lm,km->lk", f, D))
    if even:
        out = out[np.ix_(fold, fold)]
    v = 1.0 - 2.0 * (np.arange(M) % 2)
    u = np.sin(np.pi * scale * (rows - c))
    out -= np.einsum("l,lm,m->", v, values, v) / M ** 2 * np.outer(u, u)
    return out


def dilate_window(f: Field, scale: float, rows: np.ndarray) -> np.ndarray:
    """`dilate` at the grid indices rows of every axis. In 2d only those
    points are evaluated; in 1d the whole-grid chirp-z is cheaper than a
    K x M window matrix, so it runs in full and is sliced."""
    return _window(f, scale, rows, even=False)


def dilate_even_window(f: Field, scale: float, rows: np.ndarray) -> np.ndarray:
    """`dilate_window` for f even about the centre node of each axis (not
    checked): in 2d only the mirror images of rows in one quadrant are
    evaluated (`_dilate_2d`)."""
    return _window(f, scale, rows, even=True)


def _window(f: Field, scale: float, rows: np.ndarray,
            even: bool) -> np.ndarray:
    if not scale > 0.0:
        raise ValueError(f"dilate scale must be positive, got {scale}")
    M = f.grid.points_per_axis
    if rows.size and not (0 <= rows.min() and rows.max() < M):
        raise ValueError(f"window rows must lie in 0..{M - 1}, got "
                         f"{rows.min()}..{rows.max()}")
    if f.grid.dim == 1:
        return _dilate_1d(f.values, scale)[rows]
    return _dilate_2d(f.values, scale, rows, even)


def dilate(f: Field, scale: float) -> Field:
    """Samples of the band-limited interpolant at scale*x (periodically wrapped).

    scale > 1 narrows the profile, scale < 1 widens it. The interpolant is the
    trigonometric polynomial through the samples, so the result is exact for
    band-limited data up to the usual Nyquist-mode convention. In 2d the
    whole grid goes through `_dilate_2d`'s M x M matrices, O(M^3) on einsum
    where a chirp-z pass is O(M^2 log M): about 0.15 s at 512^2 against
    0.07 s for chirp-z (2 vCPUs), a cost paid only where a caller needs
    every sample rather than a window.
    """
    rows = np.arange(f.grid.points_per_axis)
    return Field(f.grid, dilate_window(f, scale, rows))


def inner(f: Field, g: Field) -> float:
    """Discrete L2 inner product h^N sum f*g."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def rho_field(grid: Grid, centers, mu: float) -> np.ndarray:
    """Weight rho(x) = sum_j (1 + |x - q_j|)^(-mu), periodic distances."""
    centers = np.asarray(centers, dtype=float).reshape(-1, grid.dim)
    if grid.dim == 1:
        return kernels.rho_field_1d(grid.axis, centers.ravel(), mu, grid.half_width)
    return kernels.rho_field_2d(grid.axis, centers, mu, grid.half_width)


@dataclass
class FarFieldFit:
    """Algebraic-tail fit of a radial profile on the torus.

    amplitude/slope come from the refined three-term periodized model with
    image subtraction and local-slope extrapolation. `variation` is the
    spread of the image-corrected product v(r) * r^target_exponent across the
    window (in absolute radii) and `ok` means it stayed within 10% (a plateau
    exists at this box size). `contaminated` flags a profile still above 1e-3
    of its peak at r = L/2, a box too small for the tail to be meaningful;
    only the ground-state `decay_fit` sets it.
    """

    amplitude: float
    slope: float
    variation: float
    window: tuple[float, float]
    ok: bool
    contaminated: bool = False
    coefficients: tuple[float, float, float] = (np.nan, np.nan, np.nan)
    exponents: tuple[float, float, float] = (np.nan, np.nan, np.nan)

    def tail_model(self, r):
        """Free-space tail sum c_i * r^(-e_i) from the fitted model."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for c, e in zip(self.coefficients, self.exponents):
            out += c * r ** (-e)
        return out


def far_field_fit(r: np.ndarray, v: np.ndarray, L: float, dim: int,
                  s: float) -> FarFieldFit:
    """Fit v(r) ~ A r^-(N+2s) over the FIT_WINDOW radii on the torus.

    Models the window as A*P_b + B*P_(b+2s) + C*P_(b+4s) with P_e the
    periodized power law r^-e (wrap-around images included), since both the
    resolvent kernel and the ground-state tail carry r^(-2s)-relative
    transients and the torus adds image contributions that no box size can
    outrun at fixed window fractions. The reported slope extrapolates the
    local log-log slope of the image-corrected profile to r -> infinity.
    """
    beta = dim + 2.0 * s
    span = (FIT_WINDOW[0] * L, FIT_WINDOW[1] * L)
    sel = (r >= span[0]) & (r <= span[1]) & (v > 0)
    if np.count_nonzero(sel) < 8:
        return FarFieldFit(np.nan, np.nan, np.inf, span, False)
    rs, vs = r[sel], v[sel]

    pper = _periodized_power_1d if dim == 1 else _periodized_power_2d
    exps = [beta, beta + 2 * s, beta + 4 * s]
    basis = [pper(rs, e, L) for e in exps]
    coef, *_ = np.linalg.lstsq(np.column_stack(basis), vs, rcond=None)
    amplitude = float(coef[0])
    img = sum(c * (b - rs ** (-e)) for c, b, e in zip(coef, basis, exps))
    vc = vs - img
    if np.all(vc > 0) and amplitude > 0:
        sigma = np.gradient(np.log(vc), np.log(rs))
        regs = np.column_stack([np.ones_like(rs), rs ** (-2 * s), rs ** (-4 * s)])
        cfit, *_ = np.linalg.lstsq(regs, sigma, rcond=None)
        slope = float(cfit[0])
        y = vc * rs ** beta
        variation = float((np.max(y) - np.min(y)) / kernels.median(y))
        ok = variation <= 0.10
    else:
        slope, variation, ok = np.nan, np.inf, False
    return FarFieldFit(amplitude=amplitude, slope=slope,
                       variation=variation, window=span, ok=ok,
                       coefficients=tuple(float(c) for c in coef),
                       exponents=tuple(exps))


def _hurwitz_zeta(e: float, a: np.ndarray) -> np.ndarray:
    """zeta(e, a) = sum_(k >= 0) (a + k)^-e, e > 1: ten terms, then
    Euler-Maclaurin at x = a + 10 with B_2j / (2j)! terms up to B_14 (the
    first omitted one is < 1e-16 relative for a in [0.5, 1.5], e <= 5.5)."""
    x = a + 10
    out = sum((a + k) ** (-e) for k in range(10))
    out = out + x ** (1.0 - e) / (e - 1.0) + 0.5 * x ** (-e)
    term = e * x ** (-e - 1.0)  # (e)_(2j-1) x^(-e-2j+1)
    for j, b in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600,
                           1 / 47900160, -691 / 1307674368000,
                           1 / 74724249600), start=1):
        out = out + b * term
        term = term * (e + 2 * j - 1) * (e + 2 * j) / (x * x)
    return out


def _periodized_power_1d(r: np.ndarray, e: float, L: float) -> np.ndarray:
    """Image sum r^-e + sum_(k >= 1) (2Lk -+ r)^-e, closed by Hurwitz zetas."""
    a = r / (2 * L)
    return r ** (-e) + (2 * L) ** (-e) * (_hurwitz_zeta(e, 1.0 - a)
                                          + _hurwitz_zeta(e, 1.0 + a))


def _periodized_power_2d(r: np.ndarray, e: float, L: float) -> np.ndarray:
    """Angle-averaged lattice image sum for the 2d torus."""
    th = (np.arange(IMAGE_ANGLES_2D) + 0.5) * (2.0 * np.pi / IMAGE_ANGLES_2D)
    ex, ey = np.cos(th), np.sin(th)
    acc = np.zeros_like(r, dtype=float)
    shells = range(-IMAGE_SHELLS_2D, IMAGE_SHELLS_2D + 1)
    for i in shells:
        for j in shells:
            if i == 0 and j == 0:
                continue
            dx = r[:, None] * ex[None, :] - 2 * L * i
            dy = r[:, None] * ey[None, :] - 2 * L * j
            acc += np.mean((dx * dx + dy * dy) ** (-e / 2.0), axis=1)
    return r ** (-e) + acc


def radial_profile(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin a field into radial shells of width h about the origin.

    The last bin, which collects everything past r = L, is dropped.
    """
    if grid.dim == 1:
        r_all = np.abs(grid.axis)
    else:
        r_all = np.sqrt(grid.axis[:, None] ** 2 + grid.axis[None, :] ** 2)
    h, L = grid.spacing, grid.half_width
    nbins = int(L / h) + 2
    sums, counts = kernels.radial_bin(values, r_all, h, nbins)
    keep = counts > 0
    keep[-1] = False
    r = (np.arange(nbins)[keep] + 0.5) * h
    return r, sums[keep] / counts[keep]
