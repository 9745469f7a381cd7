"""Reduced energy, multiplier-driven searches, and degree counting."""

import time

import numpy as np
import pytest

from fracspike import reduced
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.ground_state import energy_scaling_exponent
from fracspike.potentials import builtin_potentials, potential_from_config
from fracspike.reduced import (SEARCH_ETA, asymptotic_energy, brouwer_degree,
                               cluster_search, critical_point_search,
                               interaction_constants, reduced_energy)


def test_constant_potential_energy_identity(gs_store):
    """I(q) = lam^theta J^1(w) for one spike in a constant potential."""
    gs = gs_store(0.5, 2.0)
    lam = 1.3
    V = builtin_potentials("constant", lam=lam)
    cfg = SpikeConfig(gs.grid, [[2.0]], epsilon=0.1)
    rep = reduced_energy(V, cfg, gs)
    theta = energy_scaling_exponent(gs.params, 1)
    assert rep.I == pytest.approx(lam ** theta * gs.energy, rel=1e-2)
    # no potential landscape: multipliers vanish identically
    assert np.max(np.abs(rep.c)) < 1e-8


def test_reduced_gradient_tracks_multipliers(gs_store):
    """grad I and c share the critical set: both vanish at the well bottom."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    center = reduced_energy(V, SpikeConfig(gs.grid, [[0.0]], 0.1), gs)
    off = reduced_energy(V, SpikeConfig(gs.grid, [[4.0]], 0.1), gs)
    assert abs(center.grad[0, 0]) < 1e-5
    assert np.max(np.abs(center.c)) < 1e-6
    assert abs(off.grad[0, 0]) > 10 * abs(center.grad[0, 0])
    assert np.max(np.abs(off.c)) > 1e-4
    # moving toward the minimum lowers I
    assert center.I < off.I


def test_reduced_energy_raises_on_failed_correction(gs_store, monkeypatch):
    """A correction the SEARCH_ETA gate refuses raises; the searches catch
    it as a failed trial."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    monkeypatch.setattr(reduced, "SEARCH_ETA", 1e-6)
    with pytest.raises(SolverDivergence, match="eta = 1e-06"):
        reduced_energy(V, SpikeConfig(gs.grid, [[4.0]], 0.1), gs)


CLUSTER_BUMP = dict(a=1.0, bumps=[{"b": 1.0, "center": [0.0], "sigma": 1.0}])


@pytest.mark.parametrize("potential, xi", [
    (CLUSTER_BUMP, [[0.5], [-0.3]]),
    (CLUSTER_BUMP, [[0.8], [-0.8]]),
    (dict(a=2.0, b=1.0), [[0.4]]),
])
def test_multiplier_gradient_matches_central_differences(gs_store, potential,
                                                         xi):
    """-alpha c / eps is grad_xi I: within 10% of central differences."""
    gs = gs_store(0.5, 2.0)
    kind = "gaussian_bumps" if "bumps" in potential else "well"
    V = builtin_potentials(kind, **potential)
    eps, h = 0.1, 1e-3
    xi = np.array(xi)
    rep = reduced_energy(V, SpikeConfig(gs.grid, xi / eps, eps), gs)
    fd = np.zeros_like(xi)
    for idx in np.ndindex(xi.shape):
        vals = []
        for sgn in (1.0, -1.0):
            shifted = xi.copy()
            shifted[idx] += sgn * h
            vals.append(reduced_energy(
                V, SpikeConfig(gs.grid, shifted / eps, eps), gs).I)
        fd[idx] = (vals[0] - vals[1]) / (2.0 * h)
    assert np.all(np.sign(rep.grad) == np.sign(fd)), (rep.grad, fd)
    np.testing.assert_allclose(rep.grad, fd, rtol=0.1)


def _count_corrections(monkeypatch):
    calls = []
    inner = reduced.nonlinear_correction

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(reduced, "nonlinear_correction", counting)
    return calls


TWO_WELL_1D = dict(a=2.0, bumps=[{"b": -0.9, "center": c, "sigma": 0.5}
                                  for c in ([-1.0], [1.0])])


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_search_without_hessian(gs_store, monkeypatch, shift):
    """A tabulated V has no closed-form Hessian: the model Hessian
    differences the table. A seed already at the minimum (0 is on the seed
    lattice, 0.3 is not) costs its own correction only, and the shifted
    well converges from the model step within 5 corrections."""
    gs = gs_store(0.5, 2.0)
    well = builtin_potentials("well", a=2.0, b=1.0)
    axis = np.linspace(-3.0, 3.0, 601)
    V = potential_from_config({"kind": "user_table", "axes": [axis.tolist()],
                               "values": well(axis - shift).tolist()})
    calls = _count_corrections(monkeypatch)
    out = critical_point_search(V, 0.1, 1, [(-2.0, 2.0)], "minimize_V", gs)
    assert out.converged and out.max_abs_c <= out.c_tol
    assert abs(out.xi_star[0, 0] - shift) < 1e-2
    if shift == 0.0:
        assert len(calls) == 1
    else:
        assert len(calls) <= 5 and out.history[1]["kind"] == "model"


@pytest.mark.parametrize("factor, refreshed", [(10.0, False), (-1.0, True)])
def test_bad_model_jacobian_still_converges(gs_store, monkeypatch, factor,
                                            refreshed):
    """A model Hessian 10x too large is repaired by the Broyden update; one
    of the wrong sign fails its line search and is replaced by differences."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("gaussian_bumps", **TWO_WELL_1D)
    model = reduced._model_hessian
    monkeypatch.setattr(reduced, "_model_hessian",
                        lambda *args: factor * model(*args))
    out = critical_point_search(V, 0.1, 2, [(-2.0, 2.0)], "minimize_V", gs)
    assert out.converged and out.max_abs_c <= out.c_tol
    kinds = [h["kind"] for h in out.history[1:]]
    assert ("fd" in kinds) == refreshed


def test_search_pinned_at_region_boundary(gs_store):
    """With the minimum outside the region the search stops on its boundary,
    where a clipped step can leave xi in place, without NaN arithmetic."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    with np.errstate(invalid="raise", divide="raise"):
        out = critical_point_search(V, 0.1, 1, [(0.5, 1.5)], "minimize_V",
                                    gs)
    assert not out.converged
    assert out.xi_star[0, 0] == 1.5


def _bump(sigma):
    return builtin_potentials("gaussian_bumps", a=1.0, bumps=[
        {"b": 1.0, "center": [0.0], "sigma": sigma}])


def _well_search(eps, region):
    def run(gs):
        V = builtin_potentials("well", a=2.0, b=1.0)
        return critical_point_search(V, eps, 1, [region], "minimize_V", gs)
    return run


def _cluster(sigma):
    return lambda gs: cluster_search(_bump(sigma), 0.1, 2, [(-1.5, 1.5)], gs)


def _pinned(edge):
    def check(out, gs, elapsed):
        assert not out.converged and out.stop == "line_search_failed"
        assert out.xi_star[0, 0] == edge
    return check


def _converged(first_kind=None, start="start"):
    """Converged, from the lattice start or the model-relaxed one."""
    def check(out, gs, elapsed):
        assert out.converged and out.stop == "converged"
        assert out.history[0]["kind"] == start
        if first_kind is not None:
            assert out.history[1]["kind"] == first_kind
    return check


def _gated(out, gs, elapsed):
    """Every trial that brings the pair closer fails the eta gate; the J
    refresh is skipped then, and the ascent stops where it stood."""
    assert not out.converged and out.stop == "corrections_failed"
    np.testing.assert_allclose(out.xi_star.ravel(), [0.1167015, -0.2451354],
                               rtol=0, atol=1e-6)


def _criterion_12(out, gs, elapsed):
    """Ends on its gradient test, which the multiplier gradient -alpha c / eps
    of the final correction meets; the model Hessian is indefinite at the
    lattice seed, so the search starts at the model's maximizer, and no
    step is a gradient step."""
    assert out.converged and out.stop == "converged"
    alphas = build_ansatz(_bump(1.0), out.q_star, gs).alphas
    grad = -alphas * out.correction.c / 0.1
    assert np.linalg.norm(grad) * 3.0 <= 1e-4 * abs(out.I_value)
    assert out.I_value >= 11.293018363  # where gradient ascent stopped
    kinds = [h["kind"] for h in out.history[1:]]
    assert out.history[0]["kind"] == "model_start" and "gradient" not in kinds


def _edge_pin(out, gs, elapsed):
    """The pair repulsion drives one spike to the region edge; the active
    set freezes it there and the other converges on the bump top."""
    assert out.converged and out.stop == "converged"
    assert np.isclose(float(np.min(out.xi_star)), -1.5, rtol=0, atol=1e-12)
    assert out.I_value >= 7.6174
    assert elapsed < 1.0


SEARCH_BUDGETS = [
    pytest.param(lambda gs: critical_point_search(
        builtin_potentials("gaussian_bumps", **TWO_WELL_1D), 0.1, 2,
        [(-2.0, 2.0)], "minimize_V", gs), 3, _converged("model"),
        id="two_well"),
    pytest.param(lambda gs: critical_point_search(
        builtin_potentials("double_well", a=1.0, b=1.0), 0.1, 2,
        [(-2.0, 2.0)], "minimize_V", gs), 5, _converged("model"),
        id="double_well"),
    pytest.param(_well_search(0.2, (-2.0, 2.0)), 1, _converged(),
                 id="minimum_eps0.2"),
    pytest.param(_well_search(0.1, (-2.0, 2.0)), 1, _converged(),
                 id="minimum_eps0.1"),
    pytest.param(_well_search(0.05, (-2.0, 2.0)), 1, _converged(),
                 id="minimum_eps0.05"),
    pytest.param(_well_search(0.1, (0.5, 1.5)), 7, _pinned(1.5),
                 id="pinned_upper"),
    pytest.param(_well_search(0.1, (-1.5, -0.5)), 7, _pinned(-1.5),
                 id="pinned_lower"),
    pytest.param(_cluster(1.0), 3, _criterion_12,
                 id="cluster_criterion_12"),
    pytest.param(_cluster(0.3), 10, _edge_pin, id="cluster_sigma0.3"),
    pytest.param(_cluster(0.7), 3, _converged(start="model_start"),
                 id="cluster_sigma0.7"),
    pytest.param(_cluster(0.5), 24, _gated, id="cluster_sigma0.5"),
]


@pytest.mark.parametrize("search, budget, check", SEARCH_BUDGETS)
def test_search_correction_budget(gs_store, monkeypatch, search, budget,
                                  check):
    """Corrections per search, counting those that fail the eta gate. Each
    search makes one start, and a trial equal to a point already corrected
    in its step costs none: the searches pinned on the region boundary stay
    within 7."""
    gs = gs_store(0.5, 2.0)
    calls = _count_corrections(monkeypatch)
    start = time.perf_counter()
    out = search(gs)
    check(out, gs, time.perf_counter() - start)
    assert len(calls) <= budget


def test_relaxed_start_is_a_model_maximizer_near_xi_star(gs_store):
    """The criterion-12 lattice start (0, -0.75) has an indefinite model
    Hessian. The search starts instead where damped Newton on the model
    energy ends: a negative definite model Hessian, inside the region, on
    or above the separation floor, and within 2e-4 of the search's xi*."""
    gs = gs_store(0.5, 2.0)
    V, eps, h = _bump(1.0), 0.1, 3e-3
    lattice = np.array([[0.0], [-0.75]])
    assert np.ptp(np.sign(np.linalg.eigvalsh(
        reduced._model_hessian(V, lattice, eps, gs, h)))) == 2
    out = _cluster(1.0)(gs)
    start = out.history[0]
    xi = np.array(start["xi"]).reshape(2, 1)
    assert start["kind"] == "model_start"
    assert np.all(np.linalg.eigvalsh(
        reduced._model_hessian(V, xi, eps, gs, h)) < 0.0)
    assert np.all((-1.5 <= xi) & (xi <= 1.5))
    assert abs(xi[0, 0] - xi[1, 0]) >= eps ** (1.0 - gs.params.s / 4.0)
    assert np.max(np.abs(xi - out.xi_star)) <= 2e-4


def test_relaxed_start_that_fails_the_gate_keeps_the_lattice_start(
        gs_store, monkeypatch):
    """On the sigma = 0.5 bump the model maximizer, +-0.165, has ||E||_Y
    0.556, above SEARCH_ETA: the search keeps the lattice start, and its
    path, without spending a correction on the relaxed point."""
    gs = gs_store(0.5, 2.0)
    calls = _count_corrections(monkeypatch)
    out = _cluster(0.5)(gs)
    assert out.history[0]["kind"] == "start"
    assert out.history[0]["xi"] == [0.0, -0.75]
    assert len(calls) == 24 and out.stop == "corrections_failed"


def test_model_relax_finds_the_saddle_of_V(gs_store):
    """The saddle mode relaxes by plain Newton steps on the model, which for
    one spike is c_* V^theta: from three points of the box it ends at V's
    saddle (0.0973, 0.0618), with an indefinite model Hessian."""
    gs = gs_store(0.5, 2, dim=2, L=20.0, M=256)
    V = builtin_potentials("gaussian_bumps", a=1.0, bumps=[
        {"b": 0.6, "center": [-0.9, 0.13], "sigma": 0.8},
        {"b": 0.5, "center": [1.0, 0.0], "sigma": 0.8}])
    lows, highs = np.array([-0.45, -0.4]), np.array([0.55, 0.6])
    for x0 in ([[0.3, 0.3]], [[-0.2, -0.3]], [[0.05, 0.05]]):
        xi, H = reduced._model_relax(V, gs, np.array(x0), 0.1, lows, highs,
                                     "degree_zero_of_gradV", 0.0, 1e-3,
                                     reduced.SEARCH_MAX_STEPS)
        assert reduced._has_inertia(H, "degree_zero_of_gradV")
        np.testing.assert_allclose(xi, [[0.0973, 0.0618]], atol=5e-4)
        assert np.hypot(*V.grad(*xi[0])) < 1e-6


def test_failed_start_raises_the_gate_error(gs_store, monkeypatch):
    """A search makes one start: when its correction fails the eta gate,
    that SolverDivergence propagates unchanged."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    monkeypatch.setattr(reduced, "SEARCH_ETA", 1e-6)
    with pytest.raises(SolverDivergence, match="eta = 1e-06"):
        critical_point_search(V, 0.1, 1, [(0.5, 1.5)], "minimize_V", gs)
    with pytest.raises(SolverDivergence, match="eta = 1e-06"):
        cluster_search(_bump(1.0), 0.1, 2, [(-1.5, 1.5)], gs)


def test_search_reports_why_it_stopped(gs_store, monkeypatch):
    """On a bump of sigma = 0.5 the eta gate rejects every trial that brings
    the pair closer: the ascent says so instead of ending like a normal stop.
    A minimum off the seed lattice (max|c| 2.6e-3 at the start, c_tol
    7.2e-7) with no step allowed stops on the step limit."""
    gs = gs_store(0.5, 2.0)
    out = _cluster(0.5)(gs)
    assert not out.converged and out.stop == "corrections_failed"
    monkeypatch.setattr(reduced, "SEARCH_MAX_STEPS", 0)
    bump = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {"b": -0.9, "center": [0.37], "sigma": 0.5}])
    out = critical_point_search(bump, 0.1, 1, [(-2.0, 2.0)], "minimize_V", gs)
    assert not out.converged and out.stop == "max_steps"
    assert out.max_abs_c > out.c_tol


@pytest.mark.parametrize("potential, search", [
    (TWO_WELL_1D, lambda V, gs: critical_point_search(
        V, 0.1, 2, [(-2.0, 2.0)], "minimize_V", gs)),
    (CLUSTER_BUMP, lambda V, gs: cluster_search(V, 0.1, 2, [(-1.5, 1.5)],
                                                gs)),
], ids=["critical_point", "cluster"])
def test_mirror_symmetric_potential_gives_mirror_symmetric_outcome(
        gs_store, potential, search):
    """V(-x) = V(x): the spikes sit at -xi and xi, and the final correction
    is even, to the accuracy the search converged to."""
    gs = gs_store(0.5, 2.0)
    out = search(builtin_potentials("gaussian_bumps", **potential), gs)
    assert out.converged
    xi = np.sort(out.xi_star.ravel())
    np.testing.assert_allclose(xi, -xi[::-1], rtol=0, atol=1e-6)
    phi = out.correction.phi.values
    mirrored = np.roll(phi[::-1], 1)  # x_j -> -x_j on the periodic grid
    assert np.max(np.abs(phi - mirrored)) <= 1e-4 * np.max(np.abs(phi))


def test_interaction_constants_shape_and_symmetry(gs_store):
    gs = gs_store(0.5, 2.0, L=80.0, M=2048)
    lam = np.array([1.0, 1.5])
    cij = interaction_constants(gs, lam)
    assert cij.shape == (2, 2)
    assert np.all(cij > 0)
    # alpha + beta symmetric combination enters the model energy
    assert cij[0, 0] == pytest.approx(gs.decay.amplitude * gs.grid.cell_volume
                                      * float(np.sum(gs.values ** 2)), rel=1e-12)


def test_asymptotic_energy_pair_term(gs_store):
    gs = gs_store(0.5, 2.0, L=80.0, M=2048)
    V = builtin_potentials("constant", lam=1.0)
    eps = 0.1
    single = asymptotic_energy(V, [[0.0]], eps, gs)
    assert single == pytest.approx(gs.energy, rel=1e-12)
    pair_near = asymptotic_energy(V, [[-1.0], [1.0]], eps, gs)
    pair_far = asymptotic_energy(V, [[-3.0], [3.0]], eps, gs)
    # attraction: closer pair sits lower, both below twice the single energy
    assert pair_near < pair_far < 2.0 * single
    with pytest.raises(ConfigError):
        asymptotic_energy(V, [[0.0], [0.0]], eps, gs)


def test_search_well_single_spike(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    out = critical_point_search(V, 0.1, 1, [(-2.0, 2.0)], "minimize_V", gs)
    assert out.converged
    assert out.mode == "minimize_V"
    assert out.max_abs_c <= out.c_tol
    assert abs(out.xi_star[0, 0]) < 1e-4  # the well bottom
    assert out.V_at_spikes[0] == pytest.approx(1.0, abs=1e-6)
    assert out.history  # iteration trace recorded


def test_search_deterministic(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    a = critical_point_search(V, 0.1, 1, [(-2.0, 2.0)], "minimize_V", gs)
    b = critical_point_search(V, 0.1, 1, [(-2.0, 2.0)], "minimize_V", gs)
    np.testing.assert_array_equal(a.xi_star, b.xi_star)


def test_search_region_validation(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    with pytest.raises(ConfigError):
        critical_point_search(V, 0.1, 1, [(-2.0, 2.0), (0.0, 1.0)],
                              "minimize_V", gs)  # wrong dimension
    with pytest.raises(ConfigError):
        critical_point_search(V, 0.1, 1, [(2.0, -2.0)], "minimize_V", gs)
    with pytest.raises(ConfigError):
        critical_point_search(V, 0.1, 1, [(-2.0, 2.0)], "spiral", gs)
    with pytest.raises(ConfigError, match="cannot place 20 spikes"):
        critical_point_search(V, 0.1, 20, [(-2.0, 2.0)], "minimize_V", gs)


def test_cluster_search_k1_reduces_to_maximize(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials(
        "gaussian_bumps", a=1.0,
        bumps=[{"b": 1.0, "center": [0.0], "sigma": 1.0}])
    out = cluster_search(V, 0.1, 1, [(-1.5, 1.5)], gs)
    assert out.mode == "maximize_V"
    assert abs(out.xi_star[0, 0]) < 1e-4


@pytest.mark.parametrize("potential, xi, rel", [
    pytest.param(CLUSTER_BUMP, [[0.0], [-0.75]], 0.15, id="xi0"),
    pytest.param(CLUSTER_BUMP, [[0.2283], [-0.2283]], 0.15, id="xi1"),
    pytest.param(TWO_WELL_1D, [[-1.0], [1.0]], 0.25, id="criterion_11_seed"),
])
def test_model_hessian_matches_multiplier_differences(gs_store, potential,
                                                       xi, rel):
    """The model Hessian every search starts from is within rel (Frobenius)
    of central differences of -alpha c / eps, with the same inertia: 15% at
    the criterion-12 seed, where it is indefinite, and at the cluster
    maximizer, where it is negative definite; 25% at the criterion-11 seed."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("gaussian_bumps", **potential)
    eps, h, xi = 0.1, 3e-3, np.array(xi)

    def grad(x):
        return reduced_energy(V, SpikeConfig(gs.grid, x / eps, eps),
                              gs).grad.ravel()

    fd = np.column_stack([(grad(xi + h * e.reshape(2, 1))
                           - grad(xi - h * e.reshape(2, 1))) / (2.0 * h)
                          for e in np.eye(2)])
    model = reduced._model_hessian(V, xi, eps, gs, h)
    assert np.linalg.norm(model - fd) <= rel * np.linalg.norm(fd)
    assert np.array_equal(np.sign(np.linalg.eigvalsh(model)),
                          np.sign(np.linalg.eigvalsh(0.5 * (fd + fd.T))))


def test_brouwer_degree_1d():
    V = builtin_potentials("well", a=2.0, b=1.0)
    assert brouwer_degree(V, [(-1.0, 1.0)]) == 1
    assert brouwer_degree(V, [(0.5, 1.5)]) == 0
    dw = builtin_potentials("double_well", a=1.0, b=1.0)
    # wells at +-1 count +1 each, the hump at 0 counts -1
    assert brouwer_degree(dw, [(0.5, 1.5)]) == 1
    assert brouwer_degree(dw, [(-0.5, 0.5)]) == -1
    assert brouwer_degree(dw, [(-1.5, 1.5)]) == 1  # additivity
    with pytest.raises(ConfigError):
        brouwer_degree(dw, [(-1.0, 0.0)])  # critical point on the boundary


def test_brouwer_degree_2d():
    V = builtin_potentials("well", a=2.0, b=1.0)
    assert brouwer_degree(V, [(-1.0, 1.0), (-1.0, 1.0)]) == 1
    assert brouwer_degree(V, [(0.5, 1.5), (0.5, 1.5)]) == 0
    dw = builtin_potentials("double_well", a=1.0, b=1.0)
    # the 2d double well has a ring of minima: enclosing box sees the
    # hump's degree only after the ring is excluded, so test off-ring boxes
    assert brouwer_degree(dw, [(-0.4, 0.4), (-0.4, 0.4)]) == 1


def test_brouwer_degree_2d_saddle():
    # V with a saddle at the origin: degree -1
    bumps = [{"b": -1.0, "center": [-1.5, 0.0], "sigma": 1.0},
             {"b": -1.0, "center": [1.5, 0.0], "sigma": 1.0}]
    V = builtin_potentials("gaussian_bumps", a=3.0, bumps=bumps)
    assert brouwer_degree(V, [(-0.7, 0.7), (-0.7, 0.7)]) == -1
    assert brouwer_degree(V, [(-2.2, -0.8), (-0.7, 0.7)]) == 1


def test_search_eta_constant():
    # the search-time contraction gate is looser than the end-use default
    assert SEARCH_ETA == 0.5
