"""Quadrature reference for the fractional Laplacian, independent of FFTs.

The operator is evaluated through its singular-integral definition

    (-Delta)^s u(x) = d_{s,1} PV int (u(x) - u(y)) / |x - y|^(1+2s) dy,
    d_{s,1} = 4^s s Gamma(1/2 + s) / (sqrt(pi) Gamma(1 - s)),

desingularized by a Taylor layer near r = 0 and closed with analytic tails.
For the Gaussian profile the free-space operator also has the closed form
2^(2s) Gamma(1/2 + s) / Gamma(1/2) 1F1(1/2 + s; 1/2; -x^2), which the test
suite uses to validate the quadrature before the quadrature is trusted as a
reference for the spectral transform.

On a torus of period 2L the sampled Gaussian is its own periodization to
machine precision, but the operator applied to it picks up image tails that
decay only algebraically (the result behaves like |x|^(-(1+2s)) at
infinity). pv_gaussian_periodic sums those images through a large-argument
moment expansion closed with Hurwitz zeta functions.

resolvent_kernel and chirp_z_dilate are the FFT-side helpers here: the
resolvent of the discrete delta, whose mass and far-field tail the
acceptance suite checks, and the band-limited dilation summed directly
from the spectrum, one axis at a time over the whole grid, which the
package's own dilation must reproduce. image_tail is the periodic image
sum that `rescale` subtracts, every image at every point.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_hermite, gamma, hyp1f1, zeta

from fracspike.spectral import FracOperator


def pv_constant(s: float, dim: int = 1) -> float:
    """Normalization d_{s,N} of the principal-value integral."""
    return (4.0 ** s * s * gamma(dim / 2.0 + s)
            / (np.pi ** (dim / 2.0) * gamma(1.0 - s)))


def gaussian_closed_form(x, s: float, dim: int = 1):
    """(-Delta)^s exp(-|x|^2) on free space, confluent-hypergeometric form."""
    x = np.asarray(x, dtype=float)
    amp = 2.0 ** (2.0 * s) * gamma(dim / 2.0 + s) / gamma(dim / 2.0)
    return amp * hyp1f1(dim / 2.0 + s, dim / 2.0, -(x ** 2))


def _gauss_derivative(x: float, n: int) -> float:
    """d^n/dx^n exp(-x^2) = (-1)^n H_n(x) exp(-x^2), physicists' H_n."""
    return (-1.0) ** n * float(eval_hermite(n, x)) * math.exp(-x * x)


def pv_gaussian_free(x: float, s: float, delta: float = 0.1) -> float:
    """Desingularized PV quadrature of (-Delta)^s exp(-x^2) at one point.

    The radial form of the 1d integral is

        int_0^inf (2 u(x) - u(x+r) - u(x-r)) / r^(1+2s) dr.

    On [0, delta] the numerator is replaced by its even Taylor expansion
    (three terms, remainder O(delta^(8-2s))), the middle range is adaptive
    quadrature, and past R = |x| + 12 the shifted Gaussians are below
    exp(-144) so the tail integrates to 2 u(x) R^(-2s) / (2s) exactly.
    """
    u0 = math.exp(-x * x)

    near = 0.0
    for k in (1, 2, 3):
        coeff = 2.0 * _gauss_derivative(x, 2 * k) / math.factorial(2 * k)
        near -= coeff * delta ** (2 * k - 2 * s) / (2 * k - 2 * s)

    def integrand(r):
        return (2.0 * u0 - np.exp(-(x + r) ** 2) - np.exp(-(x - r) ** 2)) \
            / r ** (1.0 + 2.0 * s)

    R = abs(x) + 12.0
    mid, _ = quad(integrand, delta, R, epsabs=1e-13, epsrel=1e-12, limit=400)
    far = 2.0 * u0 * R ** (-2.0 * s) / (2.0 * s)

    return pv_constant(s) * (near + mid + far)


# even Gaussian moments mu_{2j} = int z^{2j} exp(-z^2) dz for j = 0, 1, 2
_MOMENTS = (math.sqrt(math.pi), math.sqrt(math.pi) / 2.0,
            3.0 * math.sqrt(math.pi) / 4.0)


def far_field_expansion(y: float, s: float) -> float:
    """Large-argument model of (-Delta)^s exp(-x^2) at x = y.

    With u nearly zero at y, the PV integral reduces to
    -d int u(z) |y - z|^(-(1+2s)) dz; expanding the kernel in z/y and using
    the even Gaussian moments gives

        -d sum_j ((a)_{2j} / (2j)!) mu_{2j} |y|^(-(a+2j)),   a = 1 + 2s.
    """
    a = 1.0 + 2.0 * s
    total = 0.0
    c = 1.0
    for j, mu in enumerate(_MOMENTS):
        if j > 0:
            c *= (a + 2 * j - 2) * (a + 2 * j - 1) / ((2 * j - 1) * (2 * j))
        total += c * mu * abs(y) ** (-(a + 2 * j))
    return -pv_constant(s) * total


def pv_gaussian_periodic(x: float, s: float, L: float,
                         delta: float = 0.1) -> float:
    """Torus value at x in [-L, L): free-space result plus operator images.

    Images sit at x + 2Lm, |m| >= 1, all at distance >= L from the bump, so
    each is evaluated with far_field_expansion; the lattice sums over m
    close into Hurwitz zeta functions,

        sum_{m>=1} (2Lm -+ x)^(-b) = (2L)^(-b) zeta(b, 1 -+ x / (2L)).
    """
    a = 1.0 + 2.0 * s
    xt = x / (2.0 * L)
    images = 0.0
    c = 1.0
    for j, mu in enumerate(_MOMENTS):
        if j > 0:
            c *= (a + 2 * j - 2) * (a + 2 * j - 1) / ((2 * j - 1) * (2 * j))
        b = a + 2 * j
        images += c * mu * (2.0 * L) ** (-b) * (
            float(zeta(b, 1.0 - xt)) + float(zeta(b, 1.0 + xt)))
    return pv_gaussian_free(x, s, delta) - pv_constant(s) * images


def resolvent_kernel(grid, s: float, m: float) -> np.ndarray:
    """((-Delta)^s + m)^(-1) applied to the discrete delta at x = 0, so that
    its mass h^N sum k is 1/m up to rounding."""
    delta = np.zeros(grid.shape)
    delta[(grid.points_per_axis // 2,) * grid.dim] = 1.0 / grid.cell_volume
    return FracOperator(grid, s, m).resolvent(delta)


def chirp_z_dilate(values: np.ndarray, scale: float) -> np.ndarray:
    """Samples of the trigonometric interpolant of values (on the grid
    x_j = -L + h j, M points per axis) at scale * x_j on every axis, in the
    chirp-z convention: modes n = -M/2 .. M/2 - 1, so the Nyquist mode
    sits at -M/2 alone, and the real part kept at the end.

    Per axis the interpolant is summed directly, mode by mode: the
    spectrum from one FFT, times exp(i phi_jn), phi_jn = pi n (1 - scale)
    + 2 pi n j scale / M, divided by M. The phases are reduced mod 2 pi in
    long double (on platforms where it is wider than double), so no
    chirp, power or large rounded angle enters.
    """
    out = values.astype(complex)
    turn = 8.0 * np.arctan(np.longdouble(1.0))
    s = np.longdouble(scale)
    for axis in range(values.ndim):
        M = values.shape[axis]
        n = np.arange(-(M // 2), M - M // 2, dtype=np.longdouble)
        j = np.arange(M, dtype=np.longdouble)[:, None]
        cycles = n * (1 - s) / 2 + n * j * s / M
        phase = (np.mod(cycles, 1) * turn).astype(float)
        spec = np.fft.fftshift(np.fft.fft(out, axis=axis), axes=axis)
        out = np.moveaxis(np.tensordot(np.exp(1j * phase),
                                       np.moveaxis(spec, axis, 0), axes=1),
                          0, axis) / M
    return out.real


def image_tail(decay, coords, L: float, images: int = 3) -> np.ndarray:
    """sum_{k != 0} decay.tail_model(|y - 2Lk|) at every point y of the
    broadcast coords, k over the (2 images + 1)^N - 1 image shells."""
    out = np.zeros(np.broadcast_shapes(*(c.shape for c in coords)))
    for k in itertools.product(range(-images, images + 1), repeat=len(coords)):
        if any(k):
            d = np.sqrt(sum((y - 2.0 * L * kj) ** 2 for y, kj in zip(coords, k)))
            out += decay.tail_model(np.maximum(d, 1e-6))
    return out
