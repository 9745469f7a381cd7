"""The in-house preconditioned MINRES against scipy's, the in-house Lanczos
against a dense eigensolver, and the symmetry of the operators they are
given."""

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import minres as scipy_minres

from fracspike._krylov import lanczos, minres
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import _ProjectedOperator
from fracspike.errors import SolverDivergence
from fracspike.potentials import builtin_potentials


def _two_well_operator(gs, xi=1.0):
    """The projected operator of the criterion-11 two-well bumps at
    eps = 0.1, spikes at (+-xi, 0), and the ansatz error E."""
    dim = gs.grid.dim
    wells = [[-1.0] + [0.0] * (dim - 1), [1.0] + [0.0] * (dim - 1)]
    V = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {"b": -0.9, "center": c, "sigma": 0.5} for c in wells])
    cfg = SpikeConfig(gs.grid, xi * np.array(wells) / 0.1, epsilon=0.1)
    bundle = build_ansatz(V, cfg, gs)
    return _ProjectedOperator(V, cfg, bundle), bundle.E.values.ravel()


@pytest.fixture(scope="module")
def projected_system(gs_store):
    """(A, M, b, op) of the 1d criterion-11 projected solve: A = P L_W P
    and M = T_m, whose projection P T_m P is the preconditioner, on flat
    vectors."""
    op, e = _two_well_operator(gs_store(0.5, 2.0))

    def m(r):
        return op.precond(r)[0]

    return op.apply, m, op.project(e), op


def _solve(op, b, **kw):
    return minres(op.apply, op.precond, b, **kw)


def _scipy(a, m, b, **kw):
    """scipy's minres on the same A and M; returns x, info, iterates."""
    n = b.size
    iterates = []
    x, info = scipy_minres(LinearOperator((n, n), matvec=a, dtype=float), b,
                           M=LinearOperator((n, n), matvec=m, dtype=float),
                           callback=lambda xk: iterates.append(xk.copy()),
                           **kw)
    return x, info, iterates


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_matches_scipy_on_projected_system(projected_system, rng, warm):
    """Same A, M, b and x0: after as many iterations as the in-house solve
    takes to rtol = 1e-10, scipy's iterate is the same to 1e-9 relative on
    span{Z}^perp (P x; A never sees the span{Z} part), and the returned
    residual is b - A x."""
    a, m, b, op = projected_system
    x0 = op.project(rng.standard_normal(b.size) * 1e-3 * np.abs(b).max()) \
        if warm else None
    sol = _solve(op, b, x0=x0, rtol=1e-10)
    assert sol.info == 0 and len(sol.history) >= 10
    assert np.linalg.norm(b - a(sol.x)) <= 1e-10 * np.linalg.norm(b)
    ref_x, _, iterates = _scipy(a, m, b, x0=x0, rtol=1e-30,
                                maxiter=len(sol.history))
    assert len(iterates) == len(sol.history)
    px, ref_px = op.project(sol.x), op.project(ref_x)
    assert np.linalg.norm(px - ref_px) <= 1e-9 * np.linalg.norm(ref_px)
    np.testing.assert_allclose(sol.residual, b - a(sol.x), rtol=0,
                               atol=1e-14 * np.linalg.norm(b))


def test_starved_call_reports_failure_like_scipy(projected_system):
    a, m, b, op = projected_system
    _, ref_info, iterates = _scipy(a, m, b, rtol=1e-10, maxiter=6)
    sol = _solve(op, b, rtol=1e-10, maxiter=6)
    assert ref_info > 0 and sol.info == ref_info
    assert len(sol.history) == len(iterates) == 6
    np.testing.assert_allclose(sol.residual, b - a(sol.x), rtol=0,
                               atol=1e-14 * np.linalg.norm(b))


def test_zero_right_hand_side(projected_system):
    _, _, b, op = projected_system
    sol = _solve(op, np.zeros_like(b), rtol=1e-10)
    assert sol.info == 0 and not sol.x.any() and sol.history == []


def test_exact_initial_guess_takes_no_arnoldi_step(projected_system, rng):
    """x0 solves the system: no Lanczos (symmetric Arnoldi) step, no
    preconditioner call."""
    a, _, _, op = projected_system
    x0 = op.project(rng.standard_normal(op.shift.size))
    calls = []

    def counting_precond(r):
        calls.append(1)
        return op.precond(r)

    sol = minres(op.apply, counting_precond, a(x0), x0=x0, rtol=1e-10)
    assert sol.info == 0 and sol.history == [] and calls == []
    np.testing.assert_array_equal(sol.x, x0)


def test_estimate_meeting_ptol_early_continues_the_basis(projected_system):
    """Loose rtol: the residual estimate meets ptol before the true residual
    meets rtol (the estimate runs ~0.6 times the true residual here). The
    solver checks the true residual there, tightens ptol and carries the
    same recurrence, so the same Krylov basis, on to convergence."""
    a, _, b, op = projected_system
    rtol = 5e-2
    sol = _solve(op, b, rtol=rtol)
    assert sol.info == 0
    assert np.linalg.norm(b - a(sol.x)) <= rtol * np.linalg.norm(b)
    assert min(sol.history[:-1]) <= rtol


def test_failed_check_tightens_ptol():
    """Diagonal A = diag(lam) with M small on every third component: the
    M-norm estimate runs far below the true residual, and sits at or below
    rtol for many iterations before the true residual gets there. After a
    failed true-residual check ptol falls by a further factor, so the
    solver checks twice in all (measured 29 iterations below rtol, 2
    checks), not at every one of those iterations."""
    n = 30
    lam = np.linspace(1.0, 50.0, n)
    mu = np.ones(n)
    mu[::3] = 1e-3
    b = np.ones(n)
    rtol = 1e-2
    checks = []

    def apply(x):  # called only for the true residual
        checks.append(1)
        return lam * x

    sol = minres(apply, lambda r: (mu * r, lam * mu * r), b, rtol=rtol)
    assert sol.info == 0
    assert np.linalg.norm(b - lam * sol.x) <= rtol * np.linalg.norm(b)
    assert sum(h <= rtol for h in sol.history) >= 20
    assert len(checks) <= 3


def test_reduce_stops_at_a_fraction_of_the_initial_residual(projected_system):
    """With reduce > 0 a warm solve stops once ||b - A x|| <= max(rtol ||b||,
    reduce ||b - A x0||); with the term at 0, or below the rtol floor, the
    output is bit-identical to the solve without it."""
    a, _, b, op = projected_system
    x0 = _solve(op, b, rtol=1e-4).x
    r0 = np.linalg.norm(b - a(x0))
    full = _solve(op, b, x0=x0, rtol=1e-10)
    sol = _solve(op, b, x0=x0, rtol=1e-10, reduce=1e-3)
    bound = max(1e-10 * np.linalg.norm(b), 1e-3 * r0)
    assert sol.info == 0 and sol.atol == pytest.approx(bound, rel=1e-12)
    assert sol.start == pytest.approx(r0, rel=1e-12)
    assert np.linalg.norm(b - a(sol.x)) <= bound
    assert 0 < len(sol.history) < len(full.history)
    for reduce in (0.0, 1e-10 * np.linalg.norm(b) / r0 / 2):
        same = _solve(op, b, x0=x0, rtol=1e-10, reduce=reduce)
        np.testing.assert_array_equal(same.x, full.x)
        np.testing.assert_array_equal(same.residual, full.residual)
        assert same.history == full.history and same.atol == full.atol


def test_apply_runs_only_for_true_residual_checks(projected_system):
    """The preconditioner pair carries A z, so a cold solve applies A once,
    for the true-residual check that ends it, and calls the preconditioner
    once per iteration plus once for b."""
    a, _, b, op = projected_system
    applies, pairs = [], []

    def counting_apply(x):
        applies.append(1)
        return op.apply(x)

    def counting_precond(r):
        pairs.append(1)
        return op.precond(r)

    sol = minres(counting_apply, counting_precond, b, rtol=1e-10)
    assert sol.info == 0 and len(sol.history) >= 10
    assert len(applies) == 1
    assert len(pairs) == len(sol.history) + 1
    np.testing.assert_allclose(sol.residual, b - a(sol.x), rtol=0,
                               atol=1e-14 * np.linalg.norm(b))


def test_cold_solve_iteration_budget(projected_system):
    """A cold solve to rtol = 1e-10 takes at most 18 iterations."""
    a, _, b, op = projected_system
    sol = _solve(op, b, rtol=1e-10)
    assert sol.info == 0
    assert np.linalg.norm(b - a(sol.x)) <= 1e-10 * np.linalg.norm(b)
    assert len(sol.history) <= 18


def test_lanczos_top_eigenvalues(rng):
    """The top Ritz values of a symmetric matrix with a doubled top
    eigenvalue match a dense solver; the doubled one shows once, and a
    starved run raises."""
    Q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    mu = np.concatenate(([3.0, 3.0, 2.5, 2.0], rng.uniform(-1.0, 1.0, 296)))
    A = (Q * mu) @ Q.T
    top = lanczos(lambda v: A @ v, rng.standard_normal(300),
                  (1e-10, 1e-10, 1e-8), maxiter=100)
    np.testing.assert_allclose(top, [3.0, 2.5, 2.0], rtol=0, atol=1e-12)
    with pytest.raises(SolverDivergence, match="after 4 steps"):
        lanczos(lambda v: A @ v, rng.standard_normal(300), (1e-10,), 4)


@pytest.mark.parametrize("gs_args, xi", [
    (dict(), 1.0),
    (dict(dim=2, L=10.0, M=128), 0.3),
], ids=["1d", "2d"])
def test_operators_are_symmetric(gs_store, rng, gs_args, xi):
    """MINRES needs symmetric A and M: <u, A v> = <A u, v> to 1e-12 for
    P L_W P and P T_m P on span{Z}^perp, and for the Newton Jacobian
    J = (-Delta)^s + m + d and T_m on the whole grid."""
    gs = gs_store(0.5, 2.0, **gs_args)
    op, _ = _two_well_operator(gs, xi)
    n = op.shift.size
    d = op.shift.ravel() + 1e-2 * rng.standard_normal(n)
    operators = {
        "P L_W P": (op.apply, True),
        "P T_m P": (lambda v: op.precond(v)[0], True),
        "J": (lambda v: op.frac.shifted(v) + d * v, False),
        "T_m": (op.frac.resolvent, False),
    }
    for name, (apply, projected) in operators.items():
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        if projected:
            u, v = op.project(u), op.project(v)
        au, av = apply(u), apply(v)
        gap = abs(u @ av - au @ v)
        assert gap <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(av), name
