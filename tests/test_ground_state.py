"""Profile solver: closed form, scaling law, decay, spectrum, rescaling."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from fracspike import ground_state
from fracspike import spectral as sp
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import FracParams, Grid
from fracspike.ground_state import (energy, energy_scaling_exponent,
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
        assert resc.residual_norm < 1e-2
    assert rescale(gs, 1.0).values == pytest.approx(gs.values)


@pytest.mark.parametrize("lam", [0.9, 1.05, 1.1, 1.2, 1.3])
def test_dilation_image_tail_only_where_blended(gs_store, lam):
    """Summing the image tail only where sigma > 0 changes no sample."""
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=128)
    scale = lam ** (1.0 / (2.0 * gs.params.s))
    L = gs.grid.half_width
    coords = [scale * c for c in gs.grid.coords()]
    y_r = np.sqrt(sum(c ** 2 for c in coords))
    lo, hi = 0.40 * L, 0.50 * L
    sigma = 0.5 * (1.0 + np.cos(np.pi * np.clip((y_r - lo) / (hi - lo),
                                                0.0, 1.0)))
    assert np.any(sigma == 0.0)
    inner = sp.dilate(gs.field, scale).values - ground_state._image_tail(
        gs.decay, coords, L, 2)
    full = sigma * inner + (1.0 - sigma) * gs.decay.tail_model(
        np.maximum(y_r, 1e-6))
    assert np.array_equal(ground_state._dilate_free_space(gs, scale), full)


def test_rescale_validation(gs_store):
    gs = gs_store(0.5, 2.0)
    with pytest.raises(ConfigError):
        rescale(gs, -1.0)
    with pytest.raises(ConfigError):
        rescale(rescale(gs, 2.0), 0.5)  # source not at lambda = 1
    with pytest.raises(ConfigError):
        rescale(gs, 1e8)  # core falls below grid resolution


def test_divergence_reported():
    grid = Grid(1, 20.0, 256)
    with pytest.raises(SolverDivergence):
        solve_ground_state(grid, FracParams(0.5, 2.0), max_iter=2)


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
    (measured 196; Lanczos on L itself took 404)."""
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=128)
    calls = []
    for name in ("rfftn", "irfftn"):
        inner = getattr(np.fft, name)

        def counting(*args, _inner=inner, **kwargs):
            calls.append(1)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    linearization_spectrum(gs)
    assert len(calls) <= 240


def test_spectrum_arpack_failure_is_solver_divergence(gs_store, monkeypatch):
    """ARPACK giving up maps to SolverDivergence (exit code 3)."""
    gs = gs_store(0.5, 2.0)

    def stalled(A, k, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0),
                                  np.empty((A.shape[0], 0)))

    monkeypatch.setattr(ground_state, "eigsh", stalled)
    with pytest.raises(SolverDivergence):
        linearization_spectrum(gs)


@pytest.mark.parametrize("dim,L,M", [(1, 40.0, 1024), (2, 10.0, 128)])
def test_polished_residual_is_that_of_the_values(dim, L, M):
    """After a Newton polish, residual_norm is max|A u - u^p| / max|u| of u."""
    grid = Grid(dim, L, M)
    params = FracParams(0.5, 2.0)
    gs = solve_ground_state(grid, params)
    assert gs.newton_steps > 0
    u = gs.values
    Au = sp.fractional_laplacian(gs.field, params).values + u
    recomputed = np.max(np.abs(Au - u ** 2)) / np.max(np.abs(u))
    assert gs.residual_norm == pytest.approx(recomputed, rel=1e-12, abs=0)
