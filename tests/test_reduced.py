"""Reduced energy, multiplier-driven searches, and degree counting."""

import numpy as np
import pytest

from fracspike import reduced
from fracspike.ansatz import SpikeConfig
from fracspike.correction import CorrectionOptions
from fracspike.errors import ConfigError
from fracspike.ground_state import energy_scaling_exponent
from fracspike.potentials import builtin_potentials
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
    assert rep.converged
    assert rep.I_value == pytest.approx(lam ** theta * gs.energy, rel=1e-2)
    # no potential landscape: multipliers vanish identically
    assert np.max(np.abs(rep.c_matrix)) < 1e-8
    assert rep.theta == pytest.approx(theta)


def test_reduced_gradient_tracks_multipliers(gs_store):
    """grad I and c share the critical set: both vanish at the well bottom."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    center = reduced_energy(V, SpikeConfig(gs.grid, [[0.0]], 0.1), gs)
    off = reduced_energy(V, SpikeConfig(gs.grid, [[4.0]], 0.1), gs)
    assert abs(center.grad[0, 0]) < 1e-5
    assert np.max(np.abs(center.c_matrix)) < 1e-6
    assert abs(off.grad[0, 0]) > 10 * abs(center.grad[0, 0])
    assert np.max(np.abs(off.c_matrix)) > 1e-4
    # moving toward the minimum lowers I
    assert center.I_value < off.I_value


def test_reduced_energy_reports_failed_correction(gs_store):
    """A correction that cannot start yields a NaN report, not an exception."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    cfg = SpikeConfig(gs.grid, [[4.0]], 0.1)
    rep = reduced_energy(V, cfg, gs, opts=CorrectionOptions(eta=1e-6))
    assert not rep.converged
    assert np.isnan(rep.I_value)
    assert rep.c_matrix.shape == rep.grad.shape == (1, 1)
    assert np.all(np.isnan(rep.c_matrix)) and np.all(np.isnan(rep.grad))


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
    assert rep.converged
    fd = np.zeros_like(xi)
    for idx in np.ndindex(xi.shape):
        vals = []
        for sgn in (1.0, -1.0):
            shifted = xi.copy()
            shifted[idx] += sgn * h
            vals.append(reduced_energy(
                V, SpikeConfig(gs.grid, shifted / eps, eps), gs).I_value)
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


def test_two_well_search_correction_budget(gs_store, monkeypatch):
    """The criterion-11 search in 1d needs at most 8 corrections."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {"b": -0.9, "center": c, "sigma": 0.5} for c in ([-1.0], [1.0])])
    calls = _count_corrections(monkeypatch)
    out = critical_point_search(V, 0.1, 2, [(-2.0, 2.0)], "minimize_V", gs)
    assert out.converged
    assert len(calls) <= 8


def test_minimum_search_correction_budget(gs_store, monkeypatch):
    """The well minimum at eps = 0.1 needs at most 4 corrections."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    calls = _count_corrections(monkeypatch)
    out = critical_point_search(V, 0.1, 1, [(-2.0, 2.0)], "minimize_V", gs)
    assert out.converged
    assert len(calls) <= 4


def test_interaction_constants_shape_and_symmetry(gs_store):
    gs = gs_store(0.5, 2.0, L=80.0, M=2048)
    lam = np.array([1.0, 1.5])
    cij = interaction_constants(gs, lam)
    assert cij.shape == (2, 2)
    assert np.all(cij > 0)
    # alpha + beta symmetric combination enters the model energy
    assert cij[0, 0] == pytest.approx(gs.decay.c0 * gs.grid.cell_volume
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
    a = critical_point_search(V, 0.1, 1, [(-2.0, 2.0)], "minimize_V", gs, seed=3)
    b = critical_point_search(V, 0.1, 1, [(-2.0, 2.0)], "minimize_V", gs, seed=3)
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


def test_cluster_search_k1_reduces_to_maximize(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials(
        "gaussian_bumps", a=1.0,
        bumps=[{"b": 1.0, "center": [0.0], "sigma": 1.0}])
    out = cluster_search(V, 0.1, 1, [(-1.5, 1.5)], gs)
    assert out.mode == "maximize_V"
    assert abs(out.xi_star[0, 0]) < 1e-4


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
