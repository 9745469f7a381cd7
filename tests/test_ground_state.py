"""Profile solver: closed form, scaling law, decay, spectrum, rescaling."""

import dataclasses

import numpy as np
import pytest

from oracles import chirp_z_dilate, image_tail

from fracspike import ground_state, kernels, reduced
from fracspike import spectral as sp
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field, FracParams, Grid
from fracspike.ground_state import (_relative_residual, energy,
                                    energy_scaling_exponent,
                                    linearization_spectrum, rescale,
                                    solve_ground_state)


def test_closed_form_profile(gs_store, closed_form_profile):
    # the L = 40 box truncates a tail worth ~2e-3 of the peak; the tighter
    # 1e-3 comparison runs at L = 80, M = 4096 in the acceptance suite
    gs = gs_store(0.5, 2.0)
    w = closed_form_profile(gs.grid)
    rel = np.max(np.abs(gs.values - w)) / np.max(w)
    assert rel < 2.5e-3
    assert gs.residual_norm < 1e-9
    assert np.all(gs.values > 0)


def test_profile_is_even(gs_store):
    gs = gs_store(0.5, 2.0)
    u = gs.values
    # axis runs [-L, L - h); index 0 has no mirror partner
    np.testing.assert_allclose(u[1:], u[1:][::-1], rtol=1e-8)
    i_max = int(np.argmax(u))
    assert abs(gs.grid.axis[i_max]) < gs.grid.spacing


def test_energy_matches_functional(gs_store, closed_form_profile):
    gs = gs_store(0.5, 2.0)
    direct = energy(gs.grid, gs.params, 1.0, gs.values)
    assert gs.energy == pytest.approx(direct, rel=1e-12)
    # the explicit profile gives the same value to discretization accuracy
    w = closed_form_profile(gs.grid)
    assert gs.energy == pytest.approx(energy(gs.grid, gs.params, 1.0, w),
                                      rel=1e-3)


def test_reduced_energy_is_the_one_functional():
    assert reduced.energy_with_potential is ground_state.energy


@pytest.mark.parametrize("dim,M", [(1, 256), (2, 64)])
def test_one_energy_keeps_the_bits_of_both_former_functionals(dim, M):
    """J with V = 1 has the bits of the former constant-lambda functional
    (lambda/2 <v, v>), and J with V on the grid those of the former
    reduced one (1/2 h^N sum V v^2), both written out here."""
    grid, params = Grid(dim, 10.0, M), FracParams(0.5, 2.0)
    r2 = sum(c ** 2 for c in grid.coords())
    u = 1.5 * np.exp(-r2) - 0.1 * np.exp(-r2 / 9.0)  # u_+ differs from u
    V = 1.0 + 0.5 * np.exp(-r2 / 4.0)
    f = Field(grid, u)
    lap = sp.apply_multiplier(u, grid, grid.symbol(2.0 * params.s))
    kin = 0.5 * sp.inner(f, Field(grid, lap))
    nl = grid.cell_volume * float(
        np.sum(kernels.positive_power(u, params.p + 1.0))) / (params.p + 1.0)
    lam = 1.0
    assert energy(grid, params, lam, u) == \
        kin + 0.5 * lam * sp.inner(f, f) - nl
    assert energy(grid, params, V, u) == \
        kin + 0.5 * grid.cell_volume * float(np.sum(V * u ** 2)) - nl


def test_theta_exponent_values():
    assert energy_scaling_exponent(FracParams(0.5, 2.0), 1) == pytest.approx(2.0)
    assert energy_scaling_exponent(FracParams(0.75, 3.0), 1) == pytest.approx(2.0 - 1.0 / 1.5)
    assert energy_scaling_exponent(FracParams(0.5, 2.0), 2) == pytest.approx(1.0)


def test_energy_scaling_property(rng):
    """J^lam(w_lam) = lam^theta J^1(w) for fresh solves at random lam."""
    grid = Grid(1, 30.0, 512)
    params = FracParams(0.5, 2.0)
    theta = energy_scaling_exponent(params, 1)
    base = solve_ground_state(grid, params)
    for lam in rng.uniform(0.5, 2.0, size=3):
        gs = solve_ground_state(grid, params, lam=float(lam))
        assert gs.energy == pytest.approx(lam ** theta * base.energy, rel=1e-2)


def test_decay_fit(gs_store):
    gs = gs_store(0.5, 2.0, L=80.0, M=2048)
    d = gs.decay
    assert d.ok and not d.contaminated
    assert d.slope == pytest.approx(-2.0, rel=0.05)  # -(N + 2s)
    # the closed form 2/(1 + x^2) pins the tail constant at exactly 2
    assert d.amplitude == pytest.approx(2.0, rel=0.05)
    assert d.exponents[0] == pytest.approx(2.0)
    # at L = 40 the same profile is correctly flagged as box-limited
    d40 = gs_store(0.5, 2.0).decay
    assert d40.contaminated


def test_rescale_splices_tail(gs_store):
    gs = gs_store(0.5, 2.0)
    for lam in (0.5, 2.0):
        resc = rescale(gs, lam)
        fresh = solve_ground_state(gs.grid, gs.params, lam=lam)
        rel = np.max(np.abs(resc.values - fresh.values)) / np.max(fresh.values)
        # tail-splice accuracy is limited by the L = 40 far-field fit
        assert rel < 1e-2
        assert resc.source == "rescale"
        assert resc.residual_norm is None and resc.energy is None
        op = sp.FracOperator(gs.grid, gs.params.s, lam)
        assert _relative_residual(op, resc.values, gs.params.p) < 1e-2
    same = rescale(gs, 1.0)
    assert same.values == pytest.approx(gs.values)
    assert (same.residual_norm, same.energy) == (gs.residual_norm, gs.energy)


def test_rescale_fits_no_tail(gs_store, monkeypatch):
    """rescale reads the source's fit and refits nothing on its output."""
    gs = gs_store(0.5, 2.0)
    fit, calls = ground_state.decay_fit, []

    def counting_fit(*args, **kw):
        calls.append(args)
        return fit(*args, **kw)

    monkeypatch.setattr(ground_state, "decay_fit", counting_fit)
    for lam in (0.5, 2.0):
        assert rescale(gs, lam).decay is None
    assert rescale(gs, 1.0).decay is gs.decay
    assert calls == []


@pytest.mark.parametrize(
    "dim, lam",
    [pytest.param(2, lam, id=str(lam)) for lam in (0.3, 0.9, 1.05, 1.1, 1.2, 1.3)]
    + [pytest.param(1, lam, id=f"1d-{lam}") for lam in (0.3, 1.1)])
def test_dilation_image_tail_only_where_blended(gs_store, dim, lam):
    """Evaluating the interpolant only in the window |scale x_j| < L/2, on
    one quadrant in 2d, and summing the image tail on one triangle of it
    where blended changes no sample beyond roundoff. The oracle is the
    full-grid construction: the chirp-z dilation minus the image tail at
    every point, blended everywhere.
    At lambda = 0.3 (scale < 1/2) the window is wider than the box and is
    clipped to the grid."""
    gs = gs_store(0.5, 2.0, **(dict(dim=2, L=10.0, M=128) if dim == 2 else {}))
    scale = lam ** (1.0 / (2.0 * gs.params.s))
    L = gs.grid.half_width
    coords = [scale * c for c in gs.grid.coords()]
    y_r = np.sqrt(sum(c ** 2 for c in coords))
    lo, hi = 0.40 * L, 0.50 * L
    sigma = 0.5 * (1.0 + np.cos(np.pi * np.clip((y_r - lo) / (hi - lo),
                                                0.0, 1.0)))
    assert np.any(sigma == 0.0) == (scale >= 0.5)
    inner = chirp_z_dilate(gs.values, scale) - image_tail(
        gs.decay, coords, L, ground_state.TAIL_IMAGES)
    full = sigma * inner + (1.0 - sigma) * gs.decay.tail_model(
        np.maximum(y_r, 1e-6))
    out = ground_state._dilate_free_space(gs, scale)
    assert np.max(np.abs(out - full)) <= 1e-12 * np.max(full)


@pytest.mark.parametrize(
    "dim, lam",
    [pytest.param(2, lam, id=str(lam)) for lam in (0.3, 1.1, 2.0)]
    + [pytest.param(1, 1.1, id="1d-1.1")])
def test_image_tail_on_one_triangle_where_blended(gs_store, dim, lam):
    """The image sum, evaluated on the upper triangle of the quadrant where
    the blend weight is positive and mirrored across the diagonal, equals
    the full loop over every image at every quadrant point to 1e-15
    wherever sigma > 0, and is 0 elsewhere."""
    gs = gs_store(0.5, 2.0, **(dict(dim=2, L=10.0, M=128) if dim == 2 else {}))
    scale = lam ** (1.0 / (2.0 * gs.params.s))
    L, c = gs.grid.half_width, gs.grid.points_per_axis // 2
    half = np.abs(scale * gs.grid.axis[c::-1])
    mesh = [half] if dim == 1 else [half[:, None], half[None, :]]
    r = np.sqrt(sum(v ** 2 for v in mesh))
    inside = r < 0.5 * L
    tail = ground_state._image_tail(gs.decay, half, inside, L, dim)
    full = image_tail(gs.decay, mesh, L, ground_state.TAIL_IMAGES)
    assert np.max(np.abs(tail - full)[inside]) <= 1e-15 * np.max(full)
    assert not np.any(tail[~inside])


def _full_window(monkeypatch):
    """Patch rescale back to the full-window construction: the generic 2d
    dilation on every window row and the full image loop on the quadrant."""
    monkeypatch.setattr(ground_state.sp, "dilate_even_window",
                        sp.dilate_window)
    monkeypatch.setattr(ground_state, "_image_tail",
                        lambda decay, half, inside, L, dim: image_tail(
                            decay, [half[:, None], half[None, :]], L,
                            ground_state.TAIL_IMAGES))


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.1, 1.5, 2.0])
def test_rescale_on_one_quadrant(gs_store, monkeypatch, lam):
    """A 2d rescale evaluated on one quadrant and mirrored, with the
    rank-one Nyquist term subtracted on the whole window, stays within
    1e-14 of the full-window construction. Mirroring that term with the
    quadrant instead is wrong: it is odd under mirroring one axis, and u_j
    = sin(pi scale x_j / h) is nonzero at every scale but an integer."""
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=128)
    out = rescale(gs, lam).values
    with monkeypatch.context() as mp:
        _full_window(mp)
        ref = rescale(gs, lam).values
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(ref)

    c = gs.grid.points_per_axis // 2
    generic = sp.dilate_window

    def mirrored(f, scale, rows):
        fold = np.abs(rows - c)
        quad = generic(f, scale, c - np.arange(fold.max() + 1))
        return quad[np.ix_(fold, fold)]

    monkeypatch.setattr(ground_state.sp, "dilate_even_window", mirrored)
    gap = np.max(np.abs(rescale(gs, lam).values - ref)) / np.max(ref)
    # at lambda = 2 (scale 2) u vanishes on the grid, and so does the term
    assert gap > 1e-12 if lam != 2.0 else gap <= 1e-14


@pytest.mark.parametrize("gs_args", [dict(), dict(dim=2, L=10.0, M=128)],
                         ids=["1d", "2d"])
def test_dilation_without_a_tail_fit(gs_store, gs_args):
    """With no finite far-field fit, widening returns the interpolant on
    the whole grid, not only the splice window, and narrowing raises."""
    gs = gs_store(0.5, 2.0, **gs_args)
    nan_fit = dataclasses.replace(gs.decay, coefficients=(np.nan,) * 3)
    bare = dataclasses.replace(gs, decay=nan_fit)
    out = ground_state._dilate_free_space(bare, 0.9)
    ref = chirp_z_dilate(gs.values, 0.9)
    assert out.shape == gs.grid.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(ref)
    with pytest.raises(SolverDivergence):
        ground_state._dilate_free_space(bare, 1.1)


def test_rescale_validation(gs_store):
    gs = gs_store(0.5, 2.0)
    with pytest.raises(ConfigError):
        rescale(gs, -1.0)
    with pytest.raises(ConfigError):
        rescale(rescale(gs, 2.0), 0.5)  # source not at lambda = 1
    with pytest.raises(ConfigError):
        rescale(gs, 1e8)  # core falls below grid resolution


def test_divergence_reported(monkeypatch):
    monkeypatch.setattr(ground_state, "FIXED_POINT_MAX_ITER", 2)
    grid = Grid(1, 20.0, 256)
    with pytest.raises(SolverDivergence):
        solve_ground_state(grid, FracParams(0.5, 2.0))


def test_2d_profile_radial():
    grid = Grid(2, 10.0, 128)
    gs = solve_ground_state(grid, FracParams(0.5, 2.0))
    u = gs.values
    assert np.all(u > 0)
    # invariance under the two axis reflections and the diagonal swap
    np.testing.assert_allclose(u[1:, :], u[1:, :][::-1, :], rtol=1e-6)
    np.testing.assert_allclose(u[:, 1:], u[:, 1:][:, ::-1], rtol=1e-6)
    np.testing.assert_allclose(u, u.T, rtol=1e-6)


def test_linearization_kernel(gs_store):
    gs = gs_store(0.5, 2.0)
    spec = linearization_spectrum(gs)
    assert spec.kernel_dim == 1
    assert spec.kernel_overlap >= 0.99
    assert spec.lowest < -0.05  # ground state is a mountain pass, not a min
    assert spec.spectral_gap >= 0.1


def test_spectrum_bounds_against_dense_reference():
    """The K-path entries bound the dense spectrum of L the way
    SpectrumSummary says, and kappa_1 = p to solver accuracy."""
    grid = Grid(1, 20.0, 256)
    params = FracParams(0.5, 2.0)
    gs = solve_ground_state(grid, params)
    spec = linearization_spectrum(gs)
    op = sp.FracOperator(grid, params.s, gs.lam)
    n = gs.values.size
    L = np.column_stack([op.shifted(e) for e in np.eye(n)])
    L = 0.5 * (L + L.T) - np.diag(params.p * gs.values ** (params.p - 1.0))
    mu = np.linalg.eigvalsh(L)
    kernel = np.abs(mu) <= 1e-3
    assert mu[0] <= spec.lowest
    assert mu[grid.dim + 1] >= spec.eigenvalues[-1]
    assert spec.spectral_gap <= np.min(np.abs(mu[~kernel]))
    assert spec.kernel_dim == np.count_nonzero(kernel)
    kappa_1 = 1.0 - spec.lowest / gs.lam
    assert abs(kappa_1 - params.p) <= 1e-8


def test_spectrum_fft_budget(gs_store, monkeypatch):
    """FFT work of the K path on the 2d 128^2 profile stays in budget
    (measured 96: 16 to build and apply the deflated translation modes, 80
    for 20 Lanczos steps; ARPACK took 196 and Lanczos on L itself 404)."""
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=128)
    calls = []
    for name in ("rfftn", "irfftn"):
        inner = getattr(np.fft, name)

        def counting(*args, _inner=inner, **kwargs):
            calls.append(1)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    linearization_spectrum(gs)
    assert len(calls) <= 120


def test_spectrum_lanczos_failure_is_solver_divergence(gs_store, monkeypatch):
    """A Lanczos run that cannot converge in its step budget maps to
    SolverDivergence (exit code 3)."""
    gs = gs_store(0.5, 2.0)
    monkeypatch.setattr(ground_state, "EIG_MAXITER", 3)
    with pytest.raises(SolverDivergence, match="not converged after 3 steps"):
        linearization_spectrum(gs)


def test_spectrum_kernel_survives_a_loose_lanczos_tolerance(gs_store,
                                                            monkeypatch):
    """The translation modes are deflated, not searched for: on a 2d
    profile that resolves its kernel, a Lanczos tolerance of 1e-6 still
    reports both kernel directions and the same gap. (ARPACK at tol 1e-6
    held one vector of the degenerate pair and reported kernel_dim 1.)"""
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=256)
    tight = linearization_spectrum(gs)
    monkeypatch.setattr(ground_state, "EIG_TOL", 1e-6)
    loose = linearization_spectrum(gs)
    assert tight.kernel_dim == loose.kernel_dim == 2
    assert loose.kernel_overlap >= 0.99
    assert loose.spectral_gap == pytest.approx(tight.spectral_gap, abs=1e-6)


@pytest.mark.parametrize("gs_args, low, high", [
    (dict(), 1e-12, 1e-10),                       # 1.5e-11
    (dict(dim=2, L=20.0, M=512), 2e-5, 2e-4),     # 7.4e-5
    (dict(dim=2, L=10.0, M=128), 1e-2, 5e-2),     # 0.028
], ids=["1d", "2d-512", "2d-128"])
def test_spectrum_reports_the_kernel_residual(gs_store, gs_args, low, high):
    """kernel_residual is ||K Y - Y H|| of the deflated translation modes,
    at the magnitudes SpectrumSummary quotes, and the 2d kernel pair, the
    x and y translations of a symmetric profile, has one Ritz value (with
    the Nyquist mode of dw/dx kept they split, 3.09e-8 against 3.12e-8)."""
    gs = gs_store(0.5, 2.0, **gs_args)
    spec = linearization_spectrum(gs)
    assert low < spec.kernel_residual < high
    if gs.grid.dim == 2:
        kernel = spec.eigenvalues[1:3]
        assert abs(kernel[0] - kernel[1]) <= 1e-12


@pytest.mark.parametrize("dim,L,M", [(1, 40.0, 1024), (2, 10.0, 128)])
def test_polished_residual_is_that_of_the_values(dim, L, M):
    """After a Newton polish, residual_norm is max|A u - u^p| / max|u| of u."""
    grid = Grid(dim, L, M)
    params = FracParams(0.5, 2.0)
    gs = solve_ground_state(grid, params)
    assert gs.newton_steps > 0
    u = gs.values
    Au = sp.FracOperator(grid, params.s, 1.0).shifted(u)
    recomputed = np.max(np.abs(Au - u ** 2)) / np.max(np.abs(u))
    assert gs.residual_norm == pytest.approx(recomputed, rel=1e-12, abs=0)
