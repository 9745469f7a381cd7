"""The in-house left-preconditioned GMRES against scipy's."""

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

from fracspike._krylov import gmres
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import _ProjectedOperator
from fracspike.potentials import builtin_potentials


@pytest.fixture(scope="module")
def projected_system(gs_store):
    """(A, M, b) of the 1d criterion-11 projected solve, on flat vectors."""
    gs = gs_store(0.5, 2.0)
    wells = [[-1.0], [1.0]]
    V = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {"b": -0.9, "center": c, "sigma": 0.5} for c in wells])
    cfg = SpikeConfig(gs.grid, np.array(wells) / 0.1, epsilon=0.1)
    bundle = build_ansatz(V, cfg, gs)
    op = _ProjectedOperator(V, cfg, bundle)
    shape = gs.grid.shape

    def a(y):
        return op.project(op.apply_lw(y.reshape(shape))).ravel()

    def m(r):
        return op.project(op.apply_tm(r.reshape(shape))).ravel()

    b = op.project(bundle.E.values).ravel()
    return a, m, b, op


def _scipy(a, m, b, **kw):
    n = b.size
    history = []
    x, info = scipy_gmres(LinearOperator((n, n), matvec=a, dtype=float), b,
                          M=LinearOperator((n, n), matvec=m, dtype=float),
                          atol=0.0, callback=history.append,
                          callback_type="pr_norm", **kw)
    return x, info, history


@pytest.mark.parametrize("warm, restart", [(False, 300), (True, 300),
                                           (False, 8)])
def test_matches_scipy_on_projected_system(projected_system, rng, warm,
                                           restart):
    """Same A, M, b, x0, rtol and restart: at most one iteration more than
    scipy (converging sooner is allowed), solutions within 1e-9 relative."""
    a, m, b, op = projected_system
    x0 = op.project(rng.standard_normal(b.size) * 1e-3 * np.abs(b).max()) \
        if warm else None
    kw = dict(x0=x0, rtol=1e-10, restart=restart, maxiter=40)
    ref_x, ref_info, ref_hist = _scipy(a, m, b, **kw)
    sol = gmres(lambda v: m(a(v)), a, m, b, **kw)
    assert ref_info == 0 and sol.info == 0
    assert len(sol.history) <= len(ref_hist) + 1
    assert len(sol.history) >= 10
    assert np.linalg.norm(sol.x - ref_x) <= 1e-9 * np.linalg.norm(ref_x)
    np.testing.assert_allclose(sol.residual, b - a(sol.x), rtol=0,
                               atol=1e-14 * np.linalg.norm(b))


def test_fused_operator_gives_the_same_solve(projected_system):
    """The fused P T_m P L_W in place of m(a(.)) changes only roundoff."""
    a, m, b, op = projected_system
    plain = gmres(lambda v: m(a(v)), a, m, b, rtol=1e-10, restart=300)
    fused = gmres(op.apply_fused, a, m, b, rtol=1e-10, restart=300)
    assert abs(len(fused.history) - len(plain.history)) <= 1
    assert np.linalg.norm(fused.x - plain.x) <= 1e-9 * np.linalg.norm(plain.x)


def test_starved_call_reports_failure_like_scipy(projected_system):
    a, m, b, _ = projected_system
    kw = dict(rtol=1e-10, restart=3, maxiter=2)
    _, ref_info, ref_hist = _scipy(a, m, b, **kw)
    sol = gmres(lambda v: m(a(v)), a, m, b, **kw)
    assert ref_info > 0 and sol.info == ref_info
    assert len(sol.history) == len(ref_hist) == 6


def test_zero_right_hand_side(projected_system):
    a, m, b, _ = projected_system
    sol = gmres(lambda v: m(a(v)), a, m, np.zeros_like(b), rtol=1e-10)
    assert sol.info == 0 and not sol.x.any() and sol.history == []


def test_exact_initial_guess_takes_no_arnoldi_step(projected_system, rng):
    a, m, b, op = projected_system
    x0 = op.project(rng.standard_normal(b.size))
    calls = []

    def counting_ma(v):
        calls.append(1)
        return m(a(v))

    sol = gmres(counting_ma, a, m, a(x0), x0=x0, rtol=1e-10)
    assert sol.info == 0 and sol.history == [] and calls == []
    np.testing.assert_array_equal(sol.x, x0)


def test_estimate_meeting_ptol_early_continues_the_basis(projected_system):
    """Loose rtol, one allowed cycle: the preconditioned estimate meets ptol
    steps before the true residual meets rtol. The solver checks the true
    residual there and keeps extending the same basis, so the single cycle
    still converges."""
    a, m, b, _ = projected_system
    rtol = 2e-3
    sol = gmres(lambda v: m(a(v)), a, m, b, rtol=rtol, restart=300,
                maxiter=1)
    assert sol.info == 0
    assert np.linalg.norm(b - a(sol.x)) <= rtol * np.linalg.norm(b)
    ptol = rtol * np.linalg.norm(m(b)) / np.linalg.norm(b)
    assert min(sol.history[:-1]) <= ptol


def test_cold_solve_iteration_budget(projected_system):
    """A cold solve at restart 300 takes at most 18 iterations. When the
    in-cycle check of the true residual falls short (here at step 17),
    ptol is tightened by the cycle-end rule presid * min(factor,
    atol / ||r||), so the next check comes one step later; multiplying the
    factor by the shortfall instead ran to step 20."""
    a, m, b, _ = projected_system
    sol = gmres(lambda v: m(a(v)), a, m, b, rtol=1e-10, restart=300)
    assert sol.info == 0
    assert np.linalg.norm(b - a(sol.x)) <= 1e-10 * np.linalg.norm(b)
    assert len(sol.history) <= 18
