"""Profile solver: closed form, scaling law, decay, spectrum, rescaling."""

import numpy as np
import pytest

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
    assert d.exponent == pytest.approx(-2.0, rel=0.05)  # -(N + 2s)
    # the closed form 2/(1 + x^2) pins the tail constant at exactly 2
    assert d.c0 == pytest.approx(2.0, rel=0.05)
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


def test_with_spectrum_flag():
    grid = Grid(1, 20.0, 256)
    gs = solve_ground_state(grid, FracParams(0.5, 2.0), with_spectrum=True)
    assert gs.spectrum is not None
    assert gs.spectrum.kernel_dim == 1
