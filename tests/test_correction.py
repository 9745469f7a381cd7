"""Projected linear solves, multiplier recovery, and the full correction."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import fracspike
from fracspike import _krylov, correction, kernels
from fracspike import spectral as sp
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import (CorrectionOptions, _ProjectedOperator,
                                  detect_spike_centers,
                                  full_newton_solve,
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
    assert ip <= 1e-8 * np.sqrt(sp.inner(sol.phi, sol.phi) * sp.inner(z, z))
    # converged residual splits exactly into the Z component
    assert sol.consistency < 1e-8


def test_projected_solve_solves_equation(well_setup, rng):
    gs, V, cfg, bundle = well_setup
    g = Field(gs.grid, np.exp(-0.05 * (gs.grid.axis - 3.0) ** 2))
    sol = projected_solve(g, V, cfg, bundle)
    op = _ProjectedOperator(V, cfg, bundle)
    lhs = op.apply_lw(sol.phi.values)
    rhs = g.values + sum(c * z.values
                         for c, z in zip(sol.c.ravel(), bundle.z_flat()))
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(g.values))


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
    assert ip <= 1e-8 * max(np.sqrt(sp.inner(res.phi, res.phi)), 1e-30)
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
    out = correction.certify(V, bundle, res)
    assert out.certifies(cfg) and out.iterations <= 5


def test_certificate_names_the_check_that_fails(well_setup):
    """failed_check tries residual, positivity and spikes in turn; a spike
    counts for a centre within one grid spacing of it."""
    gs, V, cfg, bundle = well_setup
    h = gs.grid.spacing
    ok = correction.NewtonResult(
        u=bundle.W, residual_norm=0.0, iterations=0, converged=True,
        spike_centers_detected=cfg.centers + 0.9 * h, min_over_sup=1e-3,
        initial_residual=0.0)
    assert ok.failed_check(cfg) is None and ok.certifies(cfg)
    for change, check in (
            (dict(converged=False, min_over_sup=-1.0), "residual"),
            (dict(min_over_sup=0.0), "positivity"),
            (dict(spike_centers_detected=cfg.centers + 1.1 * h), "spikes"),
            (dict(spike_centers_detected=np.zeros((0, 1))), "spikes"),
            (dict(spike_centers_detected=np.vstack([cfg.centers] * 2)),
             "spikes")):
        bad = dataclasses.replace(ok, **change)
        assert bad.failed_check(cfg) == check and not bad.certifies(cfg)


def test_detect_spike_centers(gs_store):
    gs = gs_store(0.5, 2.0)
    x = gs.grid.axis
    u = np.exp(-(x - 5.0) ** 2) + np.exp(-(x + 5.0) ** 2) + 0.2 * np.exp(-x ** 2)
    centers = detect_spike_centers(Field(gs.grid, u))
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
def test_split_form_matches_composition(gs_store, rng, gs_args, xi):
    """apply(y), the form MINRES checks its true residual with, is
    P L_W P y, span{Z} part of y included."""
    gs = gs_store(0.5, 2.0, **gs_args)
    V, cfg, bundle = _two_spike_setup(gs, xi)
    op = _ProjectedOperator(V, cfg, bundle)
    shape = gs.grid.shape

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for _ in range(3):
        y = rng.standard_normal(shape).ravel()
        composed = op.project(op.apply_lw(op.project(y).reshape(shape)))
        assert close(op.apply(y), composed.ravel())


@pytest.mark.parametrize("gs_args, xi", [
    (dict(), 1.0),
    (dict(dim=2, L=10.0, M=128), 0.3),
], ids=["1d", "2d"])
def test_precond_returns_its_vector_and_image(gs_store, rng, gs_args, xi):
    """precond(r) for r in span{Z}^perp is the pair (z, A z) MINRES
    iterates: P z = P T_m P r and A z = P L_W P z, both to 1e-12."""
    gs = gs_store(0.5, 2.0, **gs_args)
    V, cfg, bundle = _two_spike_setup(gs, xi)
    op = _ProjectedOperator(V, cfg, bundle)
    shape = gs.grid.shape

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for _ in range(3):
        r = op.project(rng.standard_normal(shape)).ravel()
        z, az = op.precond(r)
        assert close(op.project(z), op.project(op.frac.resolvent(r)))
        composed = op.project(op.apply_lw(op.project(z).reshape(shape)))
        assert close(az, composed.ravel())


@pytest.mark.parametrize("gs_args, xi", [
    (dict(), 1.0),
    (dict(dim=2, L=10.0, M=128), 0.3),
], ids=["1d", "2d"])
def test_relinearized_apply_matches_composition(gs_store, rng, gs_args, xi):
    """After `relinearize` by d, in two parts, apply(y) is P L_(W+d) P y
    with L_(W+d) = L_W - (d .) applied afresh through a transform."""
    gs = gs_store(0.5, 2.0, **gs_args)
    V, cfg, bundle = _two_spike_setup(gs, xi)
    op = _ProjectedOperator(V, cfg, bundle)
    shape = gs.grid.shape
    shift = op.shift.copy()
    d = rng.standard_normal(op.shift.size)
    half = 0.5 * d
    op.relinearize(half)
    op.relinearize(d - half)

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for _ in range(3):
        y = op.project(rng.standard_normal(shape)).ravel()
        lw = op.frac.shifted(y) + (shift - d) * y
        assert close(op.apply(y), op.project(lw))


def _split_subtract_span_z(op, v, out):
    """The span{Z} sweep with c and e taken apart by np.split."""
    c, e = np.split(np.einsum("ki,i->k", op.block, v), 2)
    e -= op.lqq @ c
    out -= np.einsum("ki,k->i", op.block, np.concatenate((e, c)))
    return out


@pytest.mark.parametrize("gs_args, xi", [
    (dict(), 1.0),
    (dict(dim=2, L=10.0, M=128), 0.3),
], ids=["1d", "2d"])
def test_precond_and_apply_match_the_split_formulation(gs_store, rng,
                                                        gs_args, xi):
    """precond and apply give the very bits of the formulation with rfftn
    inferring its shape, np.split taking the contraction apart and shift
    flattened per call."""
    gs = gs_store(0.5, 2.0, **gs_args)
    V, cfg, bundle = _two_spike_setup(gs, xi)
    op = _ProjectedOperator(V, cfg, bundle)
    grid = gs.grid
    axes = tuple(range(grid.dim))
    shift = op.shift.reshape(grid.shape)

    def multiply(v, multiplier):
        half = np.fft.rfftn(v.reshape(grid.shape), axes=axes)
        return np.fft.irfftn(multiplier * half, s=grid.shape,
                             axes=axes).ravel()

    for _ in range(3):
        r = op.project(rng.standard_normal(grid.shape)).ravel()
        t = multiply(r, op.frac.inv_symbol)
        at = shift.ravel() * t
        at += r
        z, az = op.precond(r)
        np.testing.assert_array_equal(z, t)
        np.testing.assert_array_equal(az, _split_subtract_span_z(op, t, at))
        x = rng.standard_normal(grid.shape).ravel()
        ax = multiply(x, op.frac.symbol)
        ax += op.m * x
        ax += shift.ravel() * x
        np.testing.assert_array_equal(op.apply(x),
                                      _split_subtract_span_z(op, x, ax))


def test_projected_solve_never_calls_np_split(gs_store, monkeypatch):
    """A 1d projected solve takes c and e off the span{Z} contraction by
    slicing: np.split is never called."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    op = _ProjectedOperator(V, cfg, bundle)

    def refuse(*args, **kwargs):
        raise AssertionError("np.split called in a projected solve")

    monkeypatch.setattr(np, "split", refuse)
    sol = projected_solve(bundle.E, V, cfg, bundle, _op=op)
    assert sol.iterations > 0


def _owned_size(op) -> int:
    """Elements of the distinct grid-sized buffers behind op's ndarray
    attributes: a view counts through the array that owns its memory."""
    n = op.shift.size
    owners = {}
    for a in vars(op).values():
        if isinstance(a, np.ndarray):
            while a.base is not None:
                a = a.base
            if a.size >= n:
                owners[id(a)] = a.size
    return sum(owners.values())


@pytest.mark.parametrize("gs_args, xi", [
    (dict(), 1.0),
    (dict(dim=2, L=10.0, M=128), 0.3),
], ids=["1d", "2d"])
def test_projected_operator_holds_two_blocks(gs_store, gs_args, xi):
    """span{Z} is held once: the grid-sized memory of the operator is Q^T
    and (L_W Q)^T, (k N, M^N) each, and shift."""
    gs = gs_store(0.5, 2.0, **gs_args)
    V, cfg, bundle = _two_spike_setup(gs, xi)
    op = _ProjectedOperator(V, cfg, bundle)
    n, kn = gs.grid.points_per_axis ** gs.grid.dim, cfg.k * gs.grid.dim
    assert _owned_size(op) <= 2 * kn * n + op.shift.size


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
    transforms: one per Krylov iteration plus a fixed few per solve."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    op = _ProjectedOperator(V, cfg, bundle)
    calls = _count_rfftn(monkeypatch)
    sol = projected_solve(bundle.E, V, cfg, bundle, _op=op)
    assert sol.iterations >= 10
    assert len(calls) <= sol.iterations + 4


def _count_krylov(monkeypatch):
    """Iterations of every `_krylov.minres` call, one entry per solve."""
    iterations = []
    inner = _krylov.minres

    def counting_minres(*args, **kwargs):
        out = inner(*args, **kwargs)
        iterations.append(len(out.history))
        return out

    monkeypatch.setattr(_krylov, "minres", counting_minres)
    return iterations


def test_newton_one_transform_per_krylov_iteration(gs_store, monkeypatch):
    """The Newton certificate makes at most one forward transform per Krylov
    iteration plus four per Newton step and one for the seed residual."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    iterations = _count_krylov(monkeypatch)
    calls = _count_rfftn(monkeypatch)
    out = full_newton_solve(V, cfg.epsilon, bundle.W, gs.params)
    assert out.converged and out.iterations >= 1
    assert len(iterations) == out.iterations
    assert sum(iterations) >= 10
    assert len(calls) <= sum(iterations) + 4 * len(iterations) + 1


def test_carried_image_saves_a_transform_per_step(gs_store, monkeypatch):
    """Each fixed-point step after the first starts from the image
    P L_W phi its predecessor's solve ended with: an n-step correction
    makes n - 1 fewer forward transforms than with that image dropped,
    and the same steps."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    calls = _count_rfftn(monkeypatch)
    iterations = _count_krylov(monkeypatch)
    res = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    carried, steps = len(calls), list(iterations)
    calls.clear()
    iterations.clear()
    inner = correction.projected_solve

    def uncarried(*args, _image=None, **kwargs):
        return inner(*args, **kwargs)

    monkeypatch.setattr(correction, "projected_solve", uncarried)
    ref = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    assert res.converged and res.iterations == ref.iterations >= 3
    assert steps == iterations
    assert len(calls) - carried == res.iterations - 1


def test_carried_starting_residual_is_exact(gs_store, monkeypatch):
    """The starting residual a fixed-point step hands MINRES equals
    b - A x0 recomputed with a transform, to 1e-12 ||b||."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    inner = _krylov.minres
    gaps = []

    def checking(apply, precond, b, x0=None, r0=None, **kwargs):
        if r0 is not None:
            exact = b - apply(x0)
            gaps.append(np.linalg.norm(r0 - exact) / np.linalg.norm(b))
        return inner(apply, precond, b, x0=x0, r0=r0, **kwargs)

    monkeypatch.setattr(_krylov, "minres", checking)
    res = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    assert res.converged
    assert len(gaps) == res.iterations - 1 >= 2
    assert max(gaps) <= 1e-12


def test_two_spike_krylov_budget_and_certificate(gs_store, monkeypatch):
    """Krylov work of the 1d criterion-11 correction and its Newton
    certificate stays in budget (measured 30 and 37), and the loose inner
    tolerance of the Newton steps never reaches the certificate: the
    reported residual is max|F(u)| / max|u| recomputed from u."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    iterations = _count_krylov(monkeypatch)
    res = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    assert res.converged
    assert len(iterations) == res.iterations
    assert sum(iterations) <= 35
    iterations.clear()
    u0 = Field(gs.grid, bundle.W.values + res.phi.values)
    out = full_newton_solve(V, cfg.epsilon, u0, gs.params)
    assert out.converged
    assert len(iterations) == out.iterations >= 1
    assert sum(iterations) <= 45
    u = out.u.values
    F = (sp.FracOperator(gs.grid, gs.params.s, 1.0).laplacian(u)
         + V.on_grid(gs.grid, cfg.epsilon) * u
         - kernels.positive_power(u, gs.params.p))
    assert out.residual_norm == np.max(np.abs(F)) / np.max(np.abs(u))
    assert out.residual_norm <= 1e-10


@pytest.mark.parametrize("lam", [None, 1.0], ids=["two-well", "lam1"])
def test_newton_reports_its_seed_residual(gs_store, lam):
    """initial_residual is max|F| / max|u| at the seed, recomputed here, and
    no smaller than the final residual. Seeded with the corrected two-well
    ansatz it is 1.4e-3: E leaves out the discrete residual of the profiles
    rescaled to lambda_j = V(eps q_j). With V = 1 the seed is the lambda = 1
    profile itself, and the residual that of its solve."""
    gs = gs_store(0.5, 2.0)
    if lam is None:
        V, cfg, bundle = _two_spike_setup(gs)
        res = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
        u0 = Field(gs.grid, bundle.W.values + res.phi.values)
        low, high = 1e-3, 2e-3
    else:
        V = builtin_potentials("constant", lam=lam)
        cfg = SpikeConfig(gs.grid, [[0.0]], epsilon=0.1)
        u0 = Field(gs.grid, gs.values.copy())
        low, high = 0.0, 1e-10
    out = full_newton_solve(V, cfg.epsilon, u0, gs.params)
    u = u0.values
    F = (sp.FracOperator(gs.grid, gs.params.s, 1.0).laplacian(u)
         + V.on_grid(gs.grid, cfg.epsilon) * u
         - kernels.positive_power(u, gs.params.p))
    assert out.initial_residual == np.max(np.abs(F)) / np.max(np.abs(u))
    assert out.converged and out.residual_norm <= out.initial_residual
    assert low < out.initial_residual < high


def test_forced_fixed_point_lands_on_the_exact_one(gs_store):
    """Each step of `nonlinear_correction` is an inexact Newton step whose
    MINRES stops at a fixed reduction of its own residual. The paper's
    Picard loop on full-accuracy projected solves with the frozen L_W
    contracts (every ratio below one) to the same phi, to 1e-9, in more
    steps (measured 9 against 5)."""
    gs = gs_store(0.5, 2.0)
    V, cfg, bundle = _two_spike_setup(gs)
    opts = CorrectionOptions(eta=0.5)
    res = nonlinear_correction(V, cfg, bundle, opts)
    assert res.converged
    grid, p = gs.grid, gs.params.p
    phi = Field(grid, np.zeros(grid.shape))
    incs = []
    while not incs or incs[-1] > correction.CORRECTION_TOL:
        rhs = bundle.E.values + kernels.nonlinear_remainder(
            bundle.W.values, phi.values, p)
        sol = projected_solve(Field(grid, rhs), V, cfg, bundle, x0=phi)
        incs.append(float(np.max(np.abs(sol.phi.values - phi.values)
                                 / bundle.rho)))
        phi = sol.phi
        assert len(incs) <= correction.CORRECTION_MAX_ITER
    assert np.all(np.array(incs[1:]) / np.array(incs[:-1]) < 1.0)
    assert res.iterations < len(incs)
    assert np.max(np.abs(res.phi.values - phi.values)) <= \
        1e-9 * np.max(np.abs(phi.values))


def test_correction_translates_with_seeds_under_constant_v(gs_store):
    """Metamorphic: under constant V, moving both seeds by whole grid cells
    rolls phi by the same cells and leaves c as it is."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("constant", lam=1.0)
    centers = np.array([[-10.0], [12.0]])
    cells = 7
    opts = CorrectionOptions(eta=0.5)
    out = []
    for shift in (0, cells):
        cfg = SpikeConfig(gs.grid, centers + shift * gs.grid.spacing,
                          epsilon=0.1)
        out.append(nonlinear_correction(V, cfg, build_ansatz(V, cfg, gs),
                                        opts))
    ref, moved = out
    assert ref.converged and moved.converged
    phi_ref = np.roll(ref.phi.values, cells)
    scale = np.max(np.abs(phi_ref))
    assert scale > 1e-6
    assert np.max(np.abs(moved.phi.values - phi_ref)) <= 1e-10 * scale
    np.testing.assert_allclose(moved.c, ref.c, rtol=1e-8,
                               atol=1e-10 * np.max(np.abs(ref.c)))


def test_nonpositive_potential_is_a_config_error(gs_store):
    """V below zero away from the spikes: the ansatz and the Newton
    certificate both refuse it through `Potential.on_grid`."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("gaussian_bumps", a=1.0, bumps=[
        {"b": -2.0, "center": [3.0], "sigma": 1.0}])
    cfg = SpikeConfig(gs.grid, [[0.0]], epsilon=0.1)
    assert float(V(0.0)) > 0
    with pytest.raises(ConfigError, match="not positive on the grid"):
        build_ansatz(V, cfg, gs)
    with pytest.raises(ConfigError, match="not positive on the grid"):
        full_newton_solve(V, cfg.epsilon, Field(gs.grid, gs.values),
                          gs.params)


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


_DETERMINISM_SCRIPT = """
import hashlib
import numpy as np
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import CorrectionOptions, nonlinear_correction
from fracspike.grid import FracParams, Grid
from fracspike.ground_state import solve_ground_state
from fracspike.potentials import builtin_potentials
gs = solve_ground_state(Grid(2, 10.0, 128), FracParams(0.5, 2.0))
wells = [[-1.0, 0.0], [1.0, 0.0]]
V = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
    {"b": -0.9, "center": c, "sigma": 0.5} for c in wells])
cfg = SpikeConfig(gs.grid, 0.3 * np.array(wells) / 0.1, epsilon=0.1)
res = nonlinear_correction(V, cfg, build_ansatz(V, cfg, gs),
                           CorrectionOptions(eta=0.5))
assert res.converged
print(hashlib.sha256(res.phi.values.tobytes()).hexdigest())
"""


def test_correction_is_byte_identical_under_one_and_two_blas_threads():
    """A 2d correction on 128^2 (past the size at which OpenBLAS threads a
    dot product), profile included, gives the same phi bytes whether
    OpenBLAS runs one thread or two."""
    src = os.path.dirname(os.path.dirname(fracspike.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
