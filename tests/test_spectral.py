"""Fourier-side operators: exactness on the band and analytic identities."""

import numpy as np
import pytest
from scipy.signal import czt as scipy_czt
from scipy.special import zeta as scipy_zeta

from oracles import chirp_z_dilate, resolvent_kernel

from fracspike import spectral as sp
from fracspike.grid import Field, Grid


def band_limited(grid, rng, cutoff_frac=0.25):
    """Random real field supported on modes below cutoff_frac * Nyquist."""
    spec = np.fft.rfftn(rng.standard_normal(grid.shape))
    mask = grid.abs_freq <= cutoff_frac * np.max(grid.abs_freq)
    return Field(grid, np.fft.irfftn(spec * mask, s=grid.shape,
                                     axes=tuple(range(grid.dim))))


def test_laplacian_eigenfunction_1d():
    grid = Grid(1, 10.0, 128)
    k = 3.0 * np.pi / 10.0  # mode n = 3
    f = Field(grid, np.cos(k * grid.axis))
    for s in (0.3, 0.5, 0.9):
        out = sp.FracOperator(grid, s, 1.0).laplacian(f.values)
        np.testing.assert_allclose(out, k ** (2 * s) * f.values, atol=1e-12)


def test_laplacian_annihilates_constants():
    grid = Grid(2, 5.0, 32)
    f = Field(grid, np.full(grid.shape, 3.7))
    out = sp.FracOperator(grid, 0.6, 1.0).laplacian(f.values)
    assert np.max(np.abs(out)) < 1e-13


def test_laplacian_s_one_matches_classical():
    grid = Grid(1, 10.0, 256)
    u = np.exp(-grid.axis ** 2)
    f = Field(grid, u)
    out = sp.FracOperator(grid, 1.0, 1.0).laplacian(f.values)
    classical = -(4.0 * grid.axis ** 2 - 2.0) * u
    np.testing.assert_allclose(out, classical, atol=1e-9)


@pytest.mark.parametrize("dim,M", [(1, 256), (2, 64)])
def test_resolvent_composition(rng, dim, M):
    grid = Grid(dim, 8.0, M)
    f = band_limited(grid, rng)
    for s, m in ((0.35, 0.7), (0.5, 1.0), (0.85, 2.3)):
        op = sp.FracOperator(grid, s, m)
        back = op.shifted(op.resolvent(f.values))
        rel = np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 32)])
def test_zero_shift_keeps_laplacian_and_refuses_resolvent(rng, dim, M):
    """At m = 0 (-Delta)^s is that of m = 1 bit for bit and T_0 does not
    exist; m < 0 is refused at construction."""
    grid = Grid(dim, 8.0, M)
    f = band_limited(grid, rng).values
    op = sp.FracOperator(grid, 0.5, 0.0)
    np.testing.assert_array_equal(op.laplacian(f),
                                  sp.FracOperator(grid, 0.5, 1.0).laplacian(f))
    with pytest.raises(ValueError, match="positive shift"):
        op.resolvent(f)
    with pytest.raises(ValueError, match="nonnegative"):
        sp.FracOperator(grid, 0.5, -0.1)


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 32)])
def test_every_forward_transform_names_its_shape(monkeypatch, rng, dim, M):
    """Every rfftn behind apply_multiplier, the three FracOperator maps,
    translate and spectral_derivative is given s = grid.shape, so numpy
    never infers the shape, and the result has the bits of the inferred
    call."""
    grid = Grid(dim, 8.0, M)
    f = Field(grid, rng.standard_normal(grid.shape))
    symbol = grid.symbol(1.0)
    axes = tuple(range(dim))
    inferred = np.fft.irfftn(symbol * np.fft.rfftn(f.values, axes=axes),
                             s=grid.shape, axes=axes)
    calls = []
    inner = np.fft.rfftn

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", recording)
    op = sp.FracOperator(grid, 0.5, 1.0)
    for v in (f.values, f.values.ravel()):
        np.testing.assert_array_equal(
            sp.apply_multiplier(v, grid, symbol), inferred.reshape(v.shape))
        for apply in (op.laplacian, op.shifted, op.resolvent):
            apply(v)
    sp.translate(f, [0.3] * dim)
    for axis in range(dim):
        sp.spectral_derivative(f, axis)
    assert len(calls) == 2 * 4 + 1 + dim
    assert all(kw.get("s") == grid.shape for kw in calls)


def test_spectral_derivative_trig():
    grid = Grid(1, np.pi, 128)
    f = Field(grid, np.sin(2.0 * grid.axis))
    out = sp.spectral_derivative(f)
    np.testing.assert_allclose(out.values, 2.0 * np.cos(2.0 * grid.axis),
                               atol=1e-12)
    grid2 = Grid(2, np.pi, 32)
    x, y = grid2.coords()
    f2 = Field(grid2, np.sin(x) * np.cos(2 * y))
    d1 = sp.spectral_derivative(f2, axis=1)
    np.testing.assert_allclose(d1.values, -2.0 * np.sin(x) * np.sin(2 * y),
                               atol=1e-12)
    with pytest.raises(ValueError):
        sp.spectral_derivative(f, axis=1)


def test_spectral_derivative_commutes_with_the_transpose(gs_store, rng):
    """On the x <-> y symmetric 2d profile dw/dx is the transpose of dw/dy
    to rounding (with the -M/2 mode kept on axis 0 they differed by 8.8e-3
    of the peak); in 1d the Nyquist mode already dropped out, bit for bit."""
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=128)
    dx = sp.spectral_derivative(gs.field, axis=0).values
    dy = sp.spectral_derivative(gs.field, axis=1).values
    assert np.max(np.abs(dx - dy.T)) <= 1e-14 * np.max(gs.values)
    grid = Grid(1, 20.0, 256)
    f = Field(grid, rng.standard_normal(grid.shape))
    np.testing.assert_array_equal(
        sp.spectral_derivative(f).values,
        sp.apply_multiplier(f.values, grid, 1j * grid.rfreq))


def test_translate_exact_on_band(rng):
    grid = Grid(1, 10.0, 256)
    f = band_limited(grid, rng)
    # translation by a whole number of cells equals np.roll
    shift = 7 * grid.spacing
    out = sp.translate(f, shift)
    np.testing.assert_allclose(out.values, np.roll(f.values, 7), atol=1e-10)
    # off-grid translation checked against the analytic interpolant
    k = np.pi / 10.0
    g = Field(grid, np.cos(3 * k * grid.axis))
    got = sp.translate(g, 0.3456)
    np.testing.assert_allclose(got.values,
                               np.cos(3 * k * (grid.axis - 0.3456)),
                               atol=1e-12)


def test_translate_commutes_with_the_transpose(gs_store, rng):
    """Moving the x <-> y symmetric 2d profile by a along x is the transpose
    of moving it by a along y, to rounding (with exp(-i xi a) at the
    Nyquist index of axis 0 they differed by 6.2e-5 of the peak); in 1d
    the rfft axis already kept only cos(xi a) there, bit for bit."""
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=128)
    for a in (0.3 * gs.grid.spacing, 1.7):
        x = sp.translate(gs.field, (a, 0.0)).values
        y = sp.translate(gs.field, (0.0, a)).values
        assert np.max(np.abs(x - y.T)) <= 1e-14 * np.max(gs.values)
    grid = Grid(1, 20.0, 256)
    f = Field(grid, rng.standard_normal(grid.shape))
    np.testing.assert_array_equal(
        sp.translate(f, 0.37).values,
        sp.apply_multiplier(f.values, grid, np.exp(-0.37j * grid.rfreq)))


def test_translate_2d_roundtrip(rng):
    grid = Grid(2, 6.0, 64)
    f = band_limited(grid, rng)
    shift = np.array([1.234, -2.5])
    back = sp.translate(sp.translate(f, shift), -shift)
    np.testing.assert_allclose(back.values, f.values, atol=1e-10)


def test_dilate_against_analytic():
    grid = Grid(1, 20.0, 512)
    f = Field(grid, np.exp(-grid.axis ** 2))
    for scale in (0.8, 1.0, 1.3):
        out = sp.dilate(f, scale)
        np.testing.assert_allclose(out.values,
                                   np.exp(-(scale * grid.axis) ** 2),
                                   atol=1e-10)
    with pytest.raises(ValueError):
        sp.dilate(f, -1.0)


@pytest.mark.parametrize("shape,axis", [((256, 256), 0), ((256, 256), 1),
                                        ((1024,), 0)])
@pytest.mark.parametrize("scale", [0.8, 1.25])
def test_czt_matches_scipy_bitwise(shape, axis, scale, rng):
    """At power-of-two M both run the same FFT length: identical bits."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    M = shape[axis]
    w = np.exp(2j * np.pi * scale / M)
    ref = scipy_czt(x, m=M, w=w, a=1.0, axis=axis)
    assert np.array_equal(sp.czt(x, w, axis=axis), ref)


@pytest.mark.parametrize("scale", [0.8, 1.25])
def test_czt_matches_scipy_off_power_of_two(scale, rng):
    """M = 96: scipy pads to 192, this czt to 256; same transform."""
    x = rng.standard_normal((96, 3)) + 1j * rng.standard_normal((96, 3))
    w = np.exp(2j * np.pi * scale / 96)
    ref = scipy_czt(x, m=96, w=w, a=1.0, axis=0)
    err = np.max(np.abs(sp.czt(x, w, axis=0) - ref)) / np.max(np.abs(ref))
    assert err < 1e-13


def test_dilate_2d_separable():
    grid = Grid(2, 10.0, 64)
    x, y = grid.coords()
    f = Field(grid, np.exp(-(x ** 2 + 0.5 * y ** 2)))
    out = sp.dilate(f, 1.25)
    expect = np.exp(-((1.25 * x) ** 2 + 0.5 * (1.25 * y) ** 2))
    np.testing.assert_allclose(out.values, expect, atol=1e-9)


@pytest.mark.parametrize("scale", [0.8, 1.1, 1.3])
def test_dilate_2d_matches_the_chirp_z(gs_store, rng, scale):
    """The separable 2d interpolation matrices give the chirp-z dilation's
    samples to roundoff, on a field with content at every mode (Nyquist
    included) and on the ground state; a window of rows gives the same
    samples as the whole grid."""
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=128)
    noise = Field(gs.grid, rng.standard_normal(gs.grid.shape))
    for f in (gs.field, noise):
        ref = chirp_z_dilate(f.values, scale)
        out = sp.dilate(f, scale).values
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        rows = np.arange(40, 89)
        np.testing.assert_allclose(sp.dilate_window(f, scale, rows),
                                   out[40:89, 40:89], rtol=0,
                                   atol=1e-14 * np.max(np.abs(ref)))
    with pytest.raises(ValueError):
        sp.dilate_window(gs.field, 0.0, np.arange(4))
    for rows in (np.arange(-1, 3), np.arange(120, 129)):
        with pytest.raises(ValueError, match="window rows"):
            sp.dilate_window(gs.field, 1.1, rows)


@pytest.mark.parametrize("scale", [0.4, 1.1, 1.3])
def test_dilate_even_window_matches_the_generic_one(rng, scale):
    """On a field even about the centre node of both axes, with content at
    every mode, Nyquist included, the quadrant evaluation gives the
    generic window's samples to roundoff, on a centred window and on one
    off centre."""
    grid = Grid(2, 10.0, 64)
    c = grid.points_per_axis // 2
    fold = np.abs(np.arange(grid.points_per_axis) - c)
    f = Field(grid, rng.standard_normal((c + 1, c + 1))[np.ix_(fold, fold)])
    for rows in (np.arange(c - 20, c + 21), np.arange(3, 40)):
        ref = sp.dilate_window(f, scale, rows)
        np.testing.assert_allclose(sp.dilate_even_window(f, scale, rows),
                                   ref, rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("gs_args", [dict(), dict(dim=2, L=10.0, M=128)],
                         ids=["1d", "2d"])
def test_translates_match_translate_and_derivative(gs_store, gs_args):
    """One forward transform per profile gives `translate` and
    `spectral_derivative` of it to roundoff, with their Nyquist rules, at a
    sub-cell shift; on the x <-> y symmetric 2d profile a move along x is
    the transpose of the same move along y, derivatives included."""
    gs = gs_store(0.5, 2.0, **gs_args)
    grid, peak = gs.grid, np.max(gs.values)
    a = 0.37 * grid.spacing
    shifts = [np.full(grid.dim, a), np.arange(1, grid.dim + 1) * -1.3 * a]
    for shift, (w, dw) in zip(shifts, sp.translates(gs.field, shifts)):
        moved = sp.translate(gs.field, shift)
        assert np.max(np.abs(w - moved.values)) <= 1e-14 * peak
        for j in range(grid.dim):
            ref = sp.spectral_derivative(moved, axis=j).values
            assert np.max(np.abs(dw[j] - ref)) <= 1e-14 * np.max(np.abs(ref))
    if grid.dim == 2:
        (wx, (dxx, dyx)), (wy, (dxy, dyy)) = sp.translates(
            gs.field, [(a, 0.0), (0.0, a)])
        for u, v in ((wx, wy), (dxx, dyy), (dyx, dxy)):
            assert np.max(np.abs(u - v.T)) <= 1e-14 * peak


def test_inner_norm_consistency(rng):
    grid = Grid(1, 5.0, 128)
    f = Field(grid, rng.standard_normal(128))
    assert sp.inner(f, f) == pytest.approx(
        grid.cell_volume * np.sum(f.values ** 2), rel=1e-14)
    g = Field(Grid(1, 5.0, 64), np.zeros(64))
    with pytest.raises(ValueError):
        sp.inner(f, g)


def test_far_field_fit_recovers_power_law():
    L, s, dim = 40.0, 0.5, 1
    beta = dim + 2 * s
    r = np.linspace(0.5, L, 400)
    gamma = 2.7
    from fracspike.spectral import _periodized_power_1d
    v = gamma * _periodized_power_1d(r, beta, L)
    fit = sp.far_field_fit(r, v, L, dim, s)
    assert fit.ok
    assert fit.amplitude == pytest.approx(gamma, rel=1e-6)
    assert fit.slope == pytest.approx(-beta, rel=1e-3)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_hurwitz_zeta_matches_scipy(s):
    a = np.linspace(0.5, 1.5, 201)
    for e in (1 + 2 * s, 1 + 4 * s, 1 + 6 * s):  # the fit's exponents, N = 1
        ref = scipy_zeta(e, a)
        rel = np.abs(sp._hurwitz_zeta(e, a) - ref) / ref
        assert np.max(rel) <= 1e-14


@pytest.mark.parametrize("L", [10.0, 40.0])
def test_periodized_power_1d_matches_explicit_images(L):
    """The zeta-closed image sum against three explicit images plus a
    scipy-zeta tail from image 4 on."""
    r = np.linspace(0.05 * L, L, 97)
    for e in (1.5, 2.0, 3.0, 5.5):
        ref = r ** (-e)
        for k in (1, 2, 3):
            ref = ref + (2 * L * k - r) ** (-e) + (2 * L * k + r) ** (-e)
        ref = ref + (2 * L) ** (-e) * (scipy_zeta(e, 4 - r / (2 * L))
                                       + scipy_zeta(e, 4 + r / (2 * L)))
        rel = np.abs(sp._periodized_power_1d(r, e, L) - ref) / ref
        assert np.max(rel) <= 1e-14


def test_far_field_fit_too_few_points():
    fit = sp.far_field_fit(np.array([1.0, 2.0]), np.array([1.0, 0.5]),
                           40.0, 1, 0.5)
    assert not fit.ok and np.isnan(fit.amplitude)


@pytest.mark.parametrize("dim,M,m", [(1, 512, 1.0), (2, 128, 0.7)])
def test_resolvent_kernel_mass(dim, M, m):
    grid = Grid(dim, 20.0, M)
    kernel = resolvent_kernel(grid, 0.5, m)
    mass = grid.cell_volume * float(np.sum(kernel))
    assert mass == pytest.approx(1.0 / m, rel=1e-12)
    _, k = sp.radial_profile(grid, kernel)
    assert k[0] > 0  # kernel is positive near the origin
