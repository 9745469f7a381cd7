"""Pointwise kernels: clamping, remainder order, periodic maxima, binning,
the spike weight against its periodic-distance definition, and the median
against numpy's."""

import numpy as np
import pytest

from fracspike import kernels


def test_positive_power_clamps_negative_base():
    u = np.array([-2.0, -1e-9, 0.0, 0.5, 3.0])
    out = kernels.positive_power(u, 1.5)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[4] == pytest.approx(3.0 ** 1.5)


def test_nonlinear_remainder_is_second_order(rng):
    W = 1.0 + rng.random(128)
    phi = rng.standard_normal(128)
    p = 2.3
    for t in (1e-3, 1e-4):
        r = kernels.nonlinear_remainder(W, t * phi, p)
        # remainder of the linearization: O(t^2) with the known Hessian term
        hess = 0.5 * p * (p - 1.0) * W ** (p - 2.0) * (t * phi) ** 2
        assert np.max(np.abs(r - hess)) <= 1e-2 * t ** 2 * np.max(phi ** 2)


def test_nonlinear_derivative_is_that_of_the_remainder(rng):
    """Central differences of nonlinear_remainder in phi, pointwise, where
    W + phi stays positive and where W is negative and clamped."""
    W = np.concatenate((1.0 + rng.random(64), -rng.random(64)))
    phi = 0.5 * rng.random(128)
    p, h = 2.3, 1e-6
    central = (kernels.nonlinear_remainder(W, phi + h, p)
               - kernels.nonlinear_remainder(W, phi - h, p)) / (2.0 * h)
    np.testing.assert_allclose(kernels.nonlinear_derivative(W, phi, p),
                               central, rtol=0, atol=1e-8)


def test_local_maxima_1d_periodic():
    u = np.zeros(64)
    u[0] = 2.0  # maximum at the seam checks the periodic comparison
    u[30] = 1.5
    u[31] = 1.0
    idx = kernels.local_maxima_1d(u, 0.5)
    assert list(idx) == [0, 30]


def test_local_maxima_2d_periodic():
    u = np.zeros((32, 32))
    u[0, 0] = 3.0
    u[10, 20] = 2.0
    idx = kernels.local_maxima_2d(u, 1.0)
    assert sorted(map(tuple, idx)) == [(0, 0), (10, 20)]


def test_radial_bin_totals(rng):
    vals = rng.random(500)
    r = 10.0 * rng.random(500)
    sums, counts = kernels.radial_bin(vals, r, 1.0, 12)
    assert counts.sum() == 500
    assert sums.sum() == pytest.approx(vals.sum())
    # bin content actually lands where the radii say
    direct = vals[(r >= 3.0) & (r < 4.0)].sum()
    assert sums[3] == pytest.approx(direct)


def _periodic_distance(a, b, L):
    # distance on the circle of length 2L, taken over the nearest image
    d = abs(a - b) % (2.0 * L)
    return min(d, 2.0 * L - d)


@pytest.mark.parametrize("mu", [0.7, 1.2])
def test_rho_field_1d_periodic_distance(mu):
    L = 10.0
    x = -L + 2.0 * L * np.arange(64) / 64
    centers = np.array([-4.0, 9.8])  # 9.8 sits 0.2 from the seam at x = L
    expected = [sum((1.0 + _periodic_distance(xi, c, L)) ** (-mu)
                    for c in centers) for xi in x]
    np.testing.assert_allclose(kernels.rho_field_1d(x, centers, mu, L),
                               expected, rtol=1e-13, atol=0)


def test_rho_field_2d_periodic_distance():
    L, mu = 5.0, 1.1
    x = -L + 2.0 * L * np.arange(24) / 24
    centers = np.array([[1.0, -2.0], [-4.9, 4.8]])  # second one at a corner
    expected = np.zeros((x.size, x.size))
    for i, xi in enumerate(x):
        for j, yj in enumerate(x):
            for cx, cy in centers:
                r = np.hypot(_periodic_distance(xi, cx, L),
                             _periodic_distance(yj, cy, L))
                expected[i, j] += (1.0 + r) ** (-mu)
    np.testing.assert_allclose(kernels.rho_field_2d(x, centers, mu, L),
                               expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1025, 4096])
def test_median_is_numpy_median_bit_for_bit(rng, n):
    """Odd and even sizes, ties, signed zeros and a grid-shaped array: the
    same float64 bits as np.median."""
    cases = [rng.standard_normal(n), np.round(3.0 * rng.standard_normal(n)),
             np.where(rng.random(n) < 0.5, -0.0, 0.0),
             rng.standard_normal((n, 2)) * 1e-310]
    for a in cases:
        assert np.float64(kernels.median(a)).tobytes() == \
            np.float64(np.median(a)).tobytes()
