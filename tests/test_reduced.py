"""Reduced energy, multiplier-driven searches, and degree counting."""

import hashlib
import itertools
import time

import numpy as np
import pytest

from fracspike import correction, reduced
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import CorrectionOptions, nonlinear_correction
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.ground_state import energy_scaling_exponent
from fracspike.potentials import builtin_potentials, potential_from_config
from fracspike.reduced import (asymptotic_energy, brouwer_degree,
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


def test_reduced_energy_raises_on_failed_correction(gs_store):
    """No ||E||_Y ceiling refuses a configuration: a pair one q apart on the
    bump at eps = 0.5 (||E||_Y 5.3) is corrected until a step raises the
    residual, at the second, and that divergence raises; the searches
    catch it as a failed trial."""
    gs = gs_store(0.5, 2.0)
    cfg = SpikeConfig(gs.grid, [[0.5], [-0.5]], 0.5, r_min=0.5)
    assert build_ansatz(_bump(1.0), cfg, gs).E_norm_Y > 5.0
    with pytest.raises(SolverDivergence, match="correction diverged"):
        reduced_energy(_bump(1.0), cfg, gs)


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
    """Stops line_search_failed on the region edge. Its correction is the
    one the search took at the edge and is not polished, which would cost
    these searches an 8th correction. Here it is converged to
    CORRECTION_TOL after all: the trial moved a quarter span, so its one
    Newton step from the carried phi did not contract and went on."""
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


def _sigma05(out, gs, elapsed):
    """Starts at the model maximizer +-0.1648 (||E||_Y 0.556 there) and
    converges at +-0.1652, where W + phi certifies. V at the spikes, 1.8965,
    is 5.2% below max V = 2: criterion 12's within-5% outcome is defined on
    the sigma = 1 bump and does not apply to this one."""
    assert out.converged and out.stop == "converged"
    assert out.history[0]["kind"] == "model_start"
    np.testing.assert_allclose(np.sort(out.history[0]["xi"]),
                               [-0.1648, 0.1648], rtol=0, atol=1e-4)
    np.testing.assert_allclose(np.sort(out.xi_star.ravel()),
                               [-0.1652, 0.1652], rtol=0, atol=1e-4)
    bundle = build_ansatz(_bump(0.5), out.q_star, gs)
    newton = correction.certify(_bump(0.5), bundle, out.correction)
    assert newton.certifies(out.q_star) and newton.iterations <= 3
    np.testing.assert_allclose(out.V_at_spikes, 1.8965, atol=1e-4)
    assert 1.0 - np.max(out.V_at_spikes) / 2.0 > 0.05


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
    pytest.param(_cluster(0.5), 3, _sigma05, id="cluster_sigma0.5"),
]


@pytest.mark.parametrize("search, budget, check", SEARCH_BUDGETS)
def test_search_correction_budget(gs_store, monkeypatch, search, budget,
                                  check):
    """Corrections per search, counting those that diverge. Each
    search makes one start, and a trial equal to a point already corrected
    in its step costs none: the searches pinned on the region boundary stay
    within 7."""
    gs = gs_store(0.5, 2.0)
    calls = _count_corrections(monkeypatch)
    start = time.perf_counter()
    out = search(gs)
    check(out, gs, time.perf_counter() - start)
    assert len(calls) <= budget


def test_search_trials_take_one_newton_step(gs_store, monkeypatch):
    """On the 1d two-well the start's correction takes two projected solves
    and each trial before the last one: the last meets c_tol, so its
    correction goes on to CORRECTION_TOL."""
    gs = gs_store(0.5, 2.0)
    solves, per_correction = [], []
    solve, correct = correction.projected_solve, reduced.nonlinear_correction

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def counting_correction(*args, **kwargs):
        solves.clear()
        res = correct(*args, **kwargs)
        per_correction.append(len(solves))
        return res

    monkeypatch.setattr(correction, "projected_solve", counting_solve)
    monkeypatch.setattr(reduced, "nonlinear_correction", counting_correction)
    V = builtin_potentials("gaussian_bumps", **TWO_WELL_1D)
    out = critical_point_search(V, 0.1, 2, [(-2.0, 2.0)], "minimize_V", gs)
    assert out.converged and len(per_correction) == 3
    assert per_correction[0] == 2 and per_correction[1] == 1
    assert per_correction[2] > 1


def test_converged_outcome_correction_is_at_correction_tol(gs_store):
    """A search stops only on a correction converged to CORRECTION_TOL: the
    correction at xi* from the outcome's phi stops after one step, and its
    c is the outcome's to 1e-12."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("gaussian_bumps", **TWO_WELL_1D)
    out = critical_point_search(V, 0.1, 2, [(-2.0, 2.0)], "minimize_V", gs)
    again = nonlinear_correction(V, out.q_star, build_ansatz(V, out.q_star, gs),
                                 CorrectionOptions(eta=np.inf),
                                 phi0=out.correction.phi)
    assert out.converged and again.converged and again.iterations == 1
    assert np.max(np.abs(again.c - out.correction.c)) <= 1e-12


def test_cluster_ascent_takes_full_corrections(gs_store, monkeypatch):
    """The I merit of the cluster ascent keeps full corrections: no
    correction of the criterion-12 ascent is cut after a step."""
    gs = gs_store(0.5, 2.0)
    steps = []
    correct = reduced.nonlinear_correction

    def recording(*args, _steps=0, **kwargs):
        steps.append(_steps)
        return correct(*args, _steps=_steps, **kwargs)

    monkeypatch.setattr(reduced, "nonlinear_correction", recording)
    assert _cluster(1.0)(gs).converged
    assert steps == [0, 0, 0]


def test_1d_saddle_mode_keeps_its_lattice_start(gs_store, monkeypatch):
    """A 1x1 model Hessian is never indefinite, so the 1d saddle mode never
    relaxes its start: it finds the critical point of V nearest its |grad V|
    lattice cell, here the double well's minimum (the spike at 1.008)."""
    gs = gs_store(0.5, 2.0)

    def refuse(*args):
        raise AssertionError("_model_relax ran")

    monkeypatch.setattr(reduced, "_model_relax", refuse)
    out = critical_point_search(builtin_potentials("double_well", a=1.0,
                                                   b=1.0),
                                0.1, 1, [(-0.6, 1.7)], "degree_zero_of_gradV",
                                gs)
    assert out.converged and out.history[0]["kind"] == "start"
    assert abs(out.xi_star[0, 0] - 1.008) < 1e-3


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


class _StartMade(Exception):
    pass


def test_relaxed_start_that_fails_the_gate_keeps_the_lattice_start(
        gs_store, monkeypatch):
    """_model_start keeps a relaxed point only when its model Hessian has
    the mode's inertia and its ansatz builds. A relaxed point that fails
    either (here: the unmoved lattice point, whose model Hessian is
    indefinite, or a relax that raises ConfigError) leaves the criterion-12
    search at its lattice start (0, -0.75), and that start is the one
    corrected first."""
    gs = gs_store(0.5, 2.0)

    def first_correction(V, bundle, *args):
        raise _StartMade(bundle.cfg.xi)

    def unmoved(V, gs, xi, epsilon, *args):
        return xi, reduced._model_hessian(V, xi, epsilon, gs, 3e-3)

    def refused(*args):
        raise ConfigError("relaxed point refused")

    monkeypatch.setattr(reduced, "_corrected", first_correction)
    for relax in (unmoved, refused):
        monkeypatch.setattr(reduced, "_model_relax", relax)
        with pytest.raises(_StartMade) as made:
            _cluster(1.0)(gs)
        np.testing.assert_allclose(made.value.args[0], [[0.0], [-0.75]],
                                   rtol=0, atol=1e-12)


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
    """A search makes one start: when its correction does not converge, the
    one rule that refuses a configuration, that SolverDivergence propagates
    unchanged. At eps = 0.7 the cluster's lattice start (0, -0.75) puts the
    spikes 1.07 apart in q, and its correction diverges; the well search's
    start is refused by a correction allowed a single step."""
    gs = gs_store(0.5, 2.0)
    with pytest.raises(SolverDivergence, match="correction diverged"):
        cluster_search(_bump(1.0), 0.7, 2, [(-1.5, 1.5)], gs)
    V = builtin_potentials("well", a=2.0, b=1.0)
    monkeypatch.setattr(correction, "CORRECTION_MAX_ITER", 1)
    with pytest.raises(SolverDivergence, match="correction diverged"):
        critical_point_search(V, 0.1, 1, [(0.5, 1.5)], "minimize_V", gs)


def test_search_reports_why_it_stopped(gs_store, monkeypatch):
    """When every trial's correction fails after the start, the ascent says
    so instead of ending like a normal stop, and stays at its start. A
    minimum off the seed lattice (max|c| 2.6e-3 at the start, c_tol
    7.2e-7) with no step allowed stops on the step limit."""
    gs = gs_store(0.5, 2.0)
    calls = []
    correct = reduced.nonlinear_correction

    def failing_after_start(*args, **kwargs):
        res = correct(*args, **kwargs)
        res.converged = res.converged and not calls
        calls.append(res)
        return res

    with monkeypatch.context() as m:
        m.setattr(reduced, "nonlinear_correction", failing_after_start)
        out = _cluster(1.0)(gs)
    assert not out.converged and out.stop == "corrections_failed"
    assert len(calls) > 1
    np.testing.assert_allclose(out.xi_star.ravel(), out.history[0]["xi"],
                               rtol=0, atol=1e-12)
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


def _shifted_two_well(d):
    V = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {"b": -0.9, "center": [c + d], "sigma": 0.5} for c in (-1.0, 1.0)])
    return lambda gs: critical_point_search(V, 0.1, 2, [(-2.0 + d, 2.0 + d)],
                                            "minimize_V", gs)


def _shifted_cluster(d):
    V = builtin_potentials("gaussian_bumps", a=1.0, bumps=[
        {"b": 1.0, "center": [d], "sigma": 1.0}])
    return lambda gs: cluster_search(V, 0.1, 2, [(-1.5 + d, 1.5 + d)], gs)


@pytest.mark.parametrize("cells", [0.37, 0.81])
@pytest.mark.parametrize("shifted", [_shifted_two_well, _shifted_cluster],
                         ids=["two_well", "cluster_criterion_12"])
def test_sub_cell_shift_moves_xi_star_with_it(gs_store, shifted, cells):
    """Moving V and the region by a fraction of a grid cell, d = eps h
    cells in xi, moves xi* by d: the spikes are translated off the grid by
    phase, not rounded to nodes. Measured within 5.5e-14; a translation
    that rounds shifts to whole cells stops line_search_failed, 1.5e-3 to
    4.4e-3 off. Half a cell is avoided, where such rounding ties."""
    gs = gs_store(0.5, 2.0)
    d = 0.1 * cells * gs.grid.spacing
    ref = shifted(0.0)(gs)
    out = shifted(d)(gs)
    assert ref.stop == out.stop == "converged"
    assert np.max(np.abs(out.xi_star - d - ref.xi_star)) <= 1e-10


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


def _scalar_model_energy(V, xi, epsilon, gs):
    """The model energy of one configuration, V spike by spike and the pair
    law pair by pair, as the package computed it before the batched path."""
    p, s, dim = gs.params.p, gs.params.s, gs.grid.dim
    lam = np.array([float(V(*x)) for x in xi])
    total = gs.energy * float(np.sum(lam ** energy_scaling_exponent(
        gs.params, dim)))
    if len(xi) > 1:
        alpha = 1.0 / (p - 1.0) - (dim + 2.0 * s) / (2.0 * s)
        beta = p / (p - 1.0) - dim / (2.0 * s)
        cij = reduced._profile_constant(gs) * np.outer(lam ** alpha,
                                                       lam ** beta)
        for i, j in itertools.combinations(range(len(xi)), 2):
            d = float(np.linalg.norm(xi[i] - xi[j])) / epsilon
            total -= 0.5 * (cij[i, j] + cij[j, i]) / d ** (dim + 2.0 * s)
    return total


TWO_WELL_2D = dict(a=2.0, bumps=[{"b": -0.9, "center": c, "sigma": 0.6}
                                 for c in ([-1.0, 0.0], [1.0, 0.0])])


# sha256 of each _model_hessian below as computed before the batched path
HESSIAN_DIGESTS = {
    "two_well_1d":
        "b5c746aad65d43083f3beba2b36749b97aba18e516c92b01a97b1ea36049bade",
    "two_well_2d":
        "0707a4bcf55386efa651fab700f2ab0db3d180d4e450b257613fdbdd6f2cb999",
    "criterion_12":
        "50a83266dceef5a3803f166a0c2d1e369da3c7da6aaafd60d0007dd69dfbea48",
}


@pytest.mark.parametrize("dim, potential, xi, h, digest", [
    pytest.param(1, TWO_WELL_1D, [[-1.0], [1.0]], 4e-3,
                 HESSIAN_DIGESTS["two_well_1d"], id="two_well_1d"),
    pytest.param(2, TWO_WELL_2D, [[-1.0, 0.0], [1.0, 0.0]], 1.2e-3,
                 HESSIAN_DIGESTS["two_well_2d"], id="two_well_2d"),
    pytest.param(1, CLUSTER_BUMP, [[0.0], [-0.75]], 3e-3,
                 HESSIAN_DIGESTS["criterion_12"], id="criterion_12")])
def test_batched_model_energy_is_the_scalar_one(gs_store, rng, dim,
                                                potential, xi, h, digest):
    """_model_energies over a stack gives each configuration's scalar model
    energy bit for bit, on the central-difference stencil of the search
    start and on random configurations near it; so _model_hessian, which
    takes its stencil in one call, is bit-identical to the point-by-point
    Hessian, whose sha256 digest is pinned here (numpy 2.4, OpenBLAS,
    x86-64)."""
    gs = gs_store(0.5, 2.0, **(dict(dim=2, L=20.0, M=256) if dim == 2
                               else {}))
    V = builtin_potentials("gaussian_bumps", **potential)
    xi, eps = np.array(xi), 0.1
    n = xi.size
    E = h * np.eye(n)
    stencil = [xi + (a * E[i] + b * E[j]).reshape(xi.shape)
               for i, j in itertools.combinations_with_replacement(range(n), 2)
               for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    stack = np.array(stencil + list(xi + 0.05 * rng.standard_normal(
        (20,) + xi.shape)))
    batched = reduced._model_energies(V, stack, eps, gs,
                                      reduced._profile_constant(gs))
    scalar = [_scalar_model_energy(V, x, eps, gs) for x in stack]
    np.testing.assert_array_equal(batched, scalar)
    H = reduced._model_hessian(V, xi, eps, gs, h)
    assert hashlib.sha256(H.tobytes()).hexdigest() == digest


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
