"""Projected linear solves, multiplier recovery, and the full correction."""

import numpy as np
import pytest

from fracspike import _krylov, kernels
from fracspike import spectral as sp
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import (CorrectionOptions, _ProjectedOperator,
                                  detect_spike_centers,
                                  full_newton_solve, multiplier_estimate,
                                  nonlinear_correction, projected_solve)
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field
from fracspike.potentials import builtin_potentials


@pytest.fixture(scope="module")
def well_setup(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    cfg = SpikeConfig(gs.grid, [[0.0]], epsilon=0.1)
    bundle = build_ansatz(V, cfg, gs)
    return gs, V, cfg, bundle


def test_kernel_direction_input_yields_zero_phi(well_setup):
    """g = Z_11 lies in span{Z}: phi = 0 and the multiplier balances it."""
    gs, V, cfg, bundle = well_setup
    g = Field(gs.grid, bundle.Z[0][0].values.copy())
    sol = projected_solve(g, V, cfg, bundle)
    assert sol.phi.sup < 1e-10
    assert sol.iterations == 0  # zero-branch, no Krylov work
    # L_W phi - g = -Z_11 = sum c Z requires c_11 = -1
    assert sol.c[0, 0] == pytest.approx(-1.0, abs=1e-10)


def test_kernel_direction_input_ignores_initial_guess(well_setup, rng):
    """The zero branch returns phi = 0 without Krylov work even given x0."""
    gs, V, cfg, bundle = well_setup
    guess = Field(gs.grid, np.exp(-0.1 * gs.grid.axis ** 2)
                  * rng.standard_normal(gs.grid.shape))
    g = Field(gs.grid, bundle.Z[0][0].values.copy())
    sol = projected_solve(g, V, cfg, bundle, x0=guess)
    assert sol.phi.sup == 0.0
    assert sol.iterations == 0


def test_projected_solve_warm_start(well_setup):
    """Starting from a nearby solution reproduces the cold solve, faster."""
    gs, V, cfg, bundle = well_setup
    x = gs.grid.axis
    near = projected_solve(Field(gs.grid, np.exp(-0.05 * (x - 3.0) ** 2)),
                           V, cfg, bundle)
    g = Field(gs.grid, np.exp(-0.05 * (x - 3.02) ** 2))
    cold = projected_solve(g, V, cfg, bundle)
    warm = projected_solve(g, V, cfg, bundle, x0=near.phi)
    assert warm.iterations < cold.iterations
    np.testing.assert_allclose(warm.phi.values, cold.phi.values, rtol=0,
                               atol=1e-8 * cold.phi.sup)
    np.testing.assert_allclose(warm.c, cold.c, rtol=1e-8)


def test_projected_solve_drops_span_z_part_of_initial_guess(well_setup):
    """An x0 with an added Z component gives the clean x0's phi and c."""
    gs, V, cfg, bundle = well_setup
    x = gs.grid.axis
    near = projected_solve(Field(gs.grid, np.exp(-0.05 * (x - 3.0) ** 2)),
                           V, cfg, bundle)
    g = Field(gs.grid, np.exp(-0.05 * (x - 3.02) ** 2))
    z = bundle.Z[0][0].values
    dirty = Field(gs.grid, near.phi.values
                  + 0.5 * near.phi.sup * z / np.max(np.abs(z)))
    clean = projected_solve(g, V, cfg, bundle, x0=near.phi)
    sol = projected_solve(g, V, cfg, bundle, x0=dirty)
    np.testing.assert_allclose(sol.phi.values, clean.phi.values, rtol=0,
                               atol=1e-12 * clean.phi.sup)
    np.testing.assert_allclose(sol.c, clean.c, rtol=1e-12)


def test_projected_solve_orthogonality(well_setup, rng):
    gs, V, cfg, bundle = well_setup
    g = Field(gs.grid, np.exp(-0.1 * gs.grid.axis ** 2)
              * rng.standard_normal(gs.grid.shape))
    sol = projected_solve(g, V, cfg, bundle)
    z = bundle.Z[0][0]
    ip = abs(sp.inner(sol.phi, z))
    assert ip <= 1e-8 * sp.norm_l2(sol.phi) * sp.norm_l2(z)
    # converged residual splits exactly into the Z component
    assert sol.consistency < 1e-8


def test_projected_solve_solves_equation(well_setup, rng):
    gs, V, cfg, bundle = well_setup
    g = Field(gs.grid, np.exp(-0.05 * (gs.grid.axis - 3.0) ** 2))
    sol = projected_solve(g, V, cfg, bundle)
    op = _ProjectedOperator(V, cfg, bundle)
    lhs = op.apply_lw(sol.phi.values)
    rhs = g.values + (op.zmat @ sol.c.ravel()).reshape(gs.grid.shape)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(g.values))


def test_multiplier_estimate_sign_convention(well_setup):
    """For g = alpha Z_11 and phi = 0 the estimated c_11 is +alpha."""
    gs, V, cfg, bundle = well_setup
    alpha = 0.37
    g = Field(gs.grid, alpha * bundle.Z[0][0].values)
    phi0 = Field(gs.grid, np.zeros(gs.grid.shape))
    est = multiplier_estimate(phi0, g, bundle, cfg)
    assert est.c[0, 0] == pytest.approx(alpha, rel=1e-10)
    # leading term alone already carries it: theta is the small remainder
    assert est.leading[0, 0] == pytest.approx(alpha * bundle.alphas[0, 0]
                                              / bundle.alphas[0, 0], rel=1e-10)
    assert abs(est.theta[0, 0]) < 1e-10
    assert est.gram_cond < 10.0


def test_gram_guard_rejects_overlapping_spikes(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("constant", lam=1.0)
    # sub-cell separation makes the Z Gram system numerically singular
    cfg = SpikeConfig(gs.grid, [[0.0], [5e-5]], 0.1, r_min=1e-6)
    bundle = build_ansatz(V, cfg, gs)
    with pytest.raises(ConfigError):
        projected_solve(bundle.E, V, cfg, bundle)


def test_nonlinear_correction_well(well_setup):
    gs, V, cfg, bundle = well_setup
    res = nonlinear_correction(V, cfg, bundle,
                               CorrectionOptions(eta=0.5))
    assert res.converged
    assert res.norm_Y < bundle.E_norm_Y  # correction smaller than the error
    # geometric contraction: every recorded ratio stays below one
    assert res.contraction_history
    assert max(res.contraction_history) < 1.0
    # phi stays orthogonal to the kernel directions
    ip = abs(sp.inner(res.phi, bundle.Z[0][0]))
    assert ip <= 1e-8 * max(sp.norm_l2(res.phi), 1e-30)
    # multipliers are O(eps * V') sized, tiny for the centered spike
    assert np.max(np.abs(res.c)) < 1e-3


def test_correction_from_its_own_fixed_point(well_setup):
    """phi0 = the converged phi: one iteration, the same phi."""
    gs, V, cfg, bundle = well_setup
    opts = CorrectionOptions(eta=0.5)
    res = nonlinear_correction(V, cfg, bundle, opts)
    again = nonlinear_correction(V, cfg, bundle, opts, phi0=res.phi)
    assert res.iterations > 1
    assert again.converged and again.iterations == 1
    np.testing.assert_allclose(again.phi.values, res.phi.values, rtol=0,
                               atol=1e-10 * res.phi.sup)


def test_correction_preserves_symmetry(well_setup):
    """Even data through an even operator: phi(-x) = phi(x)."""
    gs, V, cfg, bundle = well_setup
    res = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    phi = res.phi.values
    np.testing.assert_allclose(phi[1:], phi[1:][::-1], atol=1e-9)


def test_eta_gate(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    cfg = SpikeConfig(gs.grid, [[0.0]], epsilon=0.1)
    bundle = build_ansatz(V, cfg, gs)
    with pytest.raises(SolverDivergence):
        nonlinear_correction(V, cfg, bundle,
                             CorrectionOptions(eta=1e-6))


def test_full_newton_from_corrected_ansatz(well_setup):
    gs, V, cfg, bundle = well_setup
    res = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    u0 = Field(gs.grid, bundle.W.values + res.phi.values)
    out = full_newton_solve(V, cfg.epsilon, u0, gs.params)
    assert out.converged
    assert out.residual_norm <= 1e-10
    assert out.iterations <= 5
    assert out.spike_centers_detected.shape == (1, 1)
    assert abs(out.spike_centers_detected[0, 0]) <= gs.grid.spacing
    assert out.min_over_sup > -1e-8  # positive solution


def test_detect_spike_centers(gs_store):
    gs = gs_store(0.5, 2.0)
    x = gs.grid.axis
    u = np.exp(-(x - 5.0) ** 2) + np.exp(-(x + 5.0) ** 2) + 0.2 * np.exp(-x ** 2)
    centers = detect_spike_centers(Field(gs.grid, u), frac=0.5)
    assert centers.shape == (2, 1)
    np.testing.assert_allclose(sorted(centers.ravel()), [-5.0, 5.0],
                               atol=gs.grid.spacing)


def test_correction_two_spikes(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    cfg = SpikeConfig(gs.grid, [[-8.0], [8.0]], epsilon=0.1)
    bundle = build_ansatz(V, cfg, gs)
    res = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    assert res.converged
    assert res.c.shape == (2, 1)
    # off-center spikes feel the potential slope: c is antisymmetric-ish
    assert res.c[0, 0] == pytest.approx(-res.c[1, 0], rel=0.05)


def _two_spike_setup(gs, xi=1.0):
    """Criterion-11 two-well bumps at eps = 0.1, spikes at (+-xi, 0)."""
    dim = gs.grid.dim
    wells = [[-1.0] + [0.0] * (dim - 1), [1.0] + [0.0] * (dim - 1)]
    V = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {"b": -0.9, "center": c, "sigma": 0.5} for c in wells])
    cfg = SpikeConfig(gs.grid, xi * np.array(wells) / 0.1, epsilon=0.1)
    return V, cfg, build_ansatz(V, cfg, gs)


@pytest.mark.parametrize("gs_args, xi", [
    (dict(), 1.0),  # the 1d criterion-11 configuration
    (dict(dim=2, L=10.0, M=128), 0.3),
], ids=["1d", "2d"])
def test_fused_operator_matches_composition(gs_store, rng, gs_args, xi):
    """y + P T_m(shift y - Q (L_W Q)^T y) is P T_m P L_W y on span{Z}^perp,
    and v + T_m(shift v) is T_m L_W v, the form the Newton solve iterates."""
    gs = gs_store(0.5, 2.0, **gs_args)
    V, cfg, bundle = _two_spike_setup(gs, xi)
    op = _ProjectedOperator(V, cfg, bundle)
    shape = gs.grid.shape
    for _ in range(3):
        y = op.project(rng.standard_normal(shape))
        fused = op.apply_fused(y.ravel()).reshape(shape)
        composed = op.project(op.apply_tm(op.project(op.apply_lw(y))))
        assert np.linalg.norm(fused - composed) <= \
            1e-12 * np.linalg.norm(composed)
        v = rng.standard_normal(shape)
        newton_form = v + op.apply_tm(op.shift * v)
        reference = op.apply_tm(op.apply_lw(v))
        assert np.linalg.norm(newton_form - reference) <= \
            1e-12 * np.linalg.norm(reference)


def _count_rfftn(monkeypatch):
    calls = []
    inner = np.fft.rfftn

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting)
    return calls


def test_projected_solve_one_transform_per_krylov_iteration(gs_store,
                                                            monkeypatch):
    """Past operator set-up, a solve makes at most iterations + 4 forward
    transforms: one per Krylov iteration plus a fixed few per cycle."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    op = _ProjectedOperator(V, cfg, bundle)
    calls = _count_rfftn(monkeypatch)
    sol = projected_solve(bundle.E, V, cfg, bundle, _op=op)
    assert sol.iterations >= 10
    assert len(calls) <= sol.iterations + 4


def test_newton_one_transform_per_krylov_iteration(gs_store, monkeypatch):
    """The Newton certificate makes at most one forward transform per Krylov
    iteration plus four per Newton step and one for the seed residual."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    iterations = []
    inner = _krylov.gmres

    def counting_gmres(*args, **kwargs):
        out = inner(*args, **kwargs)
        iterations.append(len(out.history))
        return out

    monkeypatch.setattr(_krylov, "gmres", counting_gmres)
    calls = _count_rfftn(monkeypatch)
    out = full_newton_solve(V, cfg.epsilon, bundle.W, gs.params)
    assert out.converged and out.iterations >= 1
    assert sum(iterations) >= 10
    assert len(calls) <= sum(iterations) + 4 * len(iterations) + 1


def test_two_spike_krylov_budget_and_certificate(gs_store, monkeypatch):
    """Krylov work of the 1d criterion-11 correction and its Newton
    certificate stays in budget (measured 110 and 38), and the loose inner
    tolerance of the Newton steps never reaches the certificate: the
    reported residual is max|F(u)| / max|u| recomputed from u."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    iterations = []
    inner = _krylov.gmres

    def counting_gmres(*args, **kwargs):
        out = inner(*args, **kwargs)
        iterations.append(len(out.history))
        return out

    monkeypatch.setattr(_krylov, "gmres", counting_gmres)
    res = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    assert res.converged
    assert sum(iterations) <= 125
    iterations.clear()
    u0 = Field(gs.grid, bundle.W.values + res.phi.values)
    out = full_newton_solve(V, cfg.epsilon, u0, gs.params, tol=1e-10)
    assert out.converged
    assert sum(iterations) <= 50
    u = out.u.values
    F = (sp.fractional_laplacian(out.u, gs.params).values
         + V.on_grid(gs.grid, cfg.epsilon) * u
         - kernels.positive_power(u, gs.params.p))
    assert out.residual_norm == np.max(np.abs(F)) / np.max(np.abs(u))
    assert out.residual_norm <= 1e-10


def test_newton_preserves_mirror_symmetry(gs_store):
    """Metamorphic: on a mirror-symmetric V, Newton from a mirror-symmetric
    seed returns a mirror-symmetric solution, u(-x) = u(x)."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)

    def mirror(a):  # x -> -x on the periodic grid x_i = -L + i h
        return np.roll(a[::-1], 1)

    w = bundle.W.values
    seed = Field(gs.grid, 0.5 * (w + mirror(w)))
    out = full_newton_solve(V, cfg.epsilon, seed, gs.params)
    assert out.converged and out.iterations >= 1
    u = out.u.values
    assert np.max(np.abs(u - mirror(u))) <= 1e-9 * np.max(u)


def test_correction_permutes_with_seeds(gs_store):
    """Metamorphic: swapping the two seeds of the 1d criterion-11
    configuration gives the same phi and c with its rows swapped."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    swapped = SpikeConfig(gs.grid, cfg.centers[::-1], epsilon=cfg.epsilon)
    opts = CorrectionOptions(eta=0.5)
    ref = nonlinear_correction(V, cfg, bundle, opts)
    out = nonlinear_correction(V, swapped, build_ansatz(V, swapped, gs), opts)
    assert ref.converged and out.converged
    phi, phi_ref = out.phi.values, ref.phi.values
    assert np.max(np.abs(phi - phi_ref)) <= 1e-10 * np.max(np.abs(phi_ref))
    assert np.max(np.abs(out.c - ref.c[::-1])) <= \
        1e-10 * np.max(np.abs(ref.c))
