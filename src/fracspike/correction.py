"""Projected linear solver, multiplier extraction, and the correction step.

The correction phi to the ansatz W solves

    (-Delta)^s phi + V(eps x) phi - p W^(p-1) phi = g + sum_ij c_ij Z_ij,
    <phi, Z_ij> = 0,

with g = E + N(phi) in the fixed point. The solver works on the projected
preconditioned system A y = P T_m L_W P y = P T_m g, whose Krylov space
stays inside span{Z}^perp by construction, and recovers the multipliers
from the Gram system afterwards. An independent damped Newton solver on the
unprojected equation provides the validation path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from fracspike import kernels
from fracspike import spectral as sp
from fracspike.ansatz import AnsatzBundle, SpikeConfig
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field, Grid
from fracspike.potentials import Potential

log = logging.getLogger(__name__)

__all__ = [
    "ProjectedSolution",
    "MultiplierEstimate",
    "CorrectionResult",
    "NewtonResult",
    "CorrectionOptions",
    "projected_solve",
    "multiplier_estimate",
    "nonlinear_correction",
    "full_newton_solve",
    "detect_spike_centers",
]

GRAM_COND_LIMIT = 1e8


@dataclass
class ProjectedSolution:
    """(phi, c) with solve diagnostics; unpacks as a (phi, c) pair."""

    phi: Field
    c: np.ndarray
    iterations: int
    consistency: float
    residual_history: list

    def __iter__(self):
        return iter((self.phi, self.c))


@dataclass
class MultiplierEstimate:
    """Gram-system multipliers split into leading term and remainder.

    c = leading + theta, with leading_ij = <g, Z_ij> / alpha_ij the
    orthogonal-basis approximation and theta the correction from Gram
    coupling, the potential term, and phi.
    """

    c: np.ndarray
    leading: np.ndarray
    theta: np.ndarray
    gram_cond: float


@dataclass
class CorrectionOptions:
    eta: float = 0.1
    tol: float = 1e-10
    max_iter: int = 40
    krylov_tol: float = 1e-10
    krylov_maxiter: int = 500


@dataclass
class CorrectionResult:
    phi: Field
    c: np.ndarray
    norm_Y: float
    iterations: int
    converged: bool
    contraction_history: list = field(default_factory=list)
    increment_history: list = field(default_factory=list)


@dataclass
class NewtonResult:
    u: Field
    residual_norm: float
    iterations: int
    spike_centers_detected: np.ndarray
    converged: bool
    min_over_sup: float


class _ProjectedOperator:
    """Shared machinery: L_W, T_m, the Z projection, and the Gram system."""

    def __init__(self, V: Potential, cfg: SpikeConfig, bundle: AnsatzBundle):
        grid = bundle.grid
        params = bundle.params
        self.grid = grid
        self.p = params.p
        self.axes = tuple(range(grid.dim))
        self.sym = grid.symbol(2.0 * params.s)
        self.V_grid = bundle.V_grid if bundle.V_grid is not None \
            else V.on_grid(grid, cfg.epsilon)
        self.m = float(np.min(self.V_grid))
        if not self.m > 0:
            raise ConfigError("potential is not positive on the grid")
        self.coeff = params.p * kernels.positive_power(
            bundle.W.values, params.p - 1.0)

        zmat = np.stack([z.values.ravel() for z in bundle.z_flat()], axis=1)
        self.zmat = zmat
        self.gram = grid.cell_volume * (zmat.T @ zmat)
        self.gram_cond = float(np.linalg.cond(self.gram))
        if self.gram_cond > GRAM_COND_LIMIT:
            raise ConfigError(
                f"Z Gram system nearly singular (cond {self.gram_cond:.2e}); "
                f"spikes too close for a stable projection")
        # orthonormal basis of span{Z} for the projection
        self.qbasis, _ = np.linalg.qr(zmat)
        self.k = bundle.cfg.k
        self.dim = grid.dim

    def apply_lw(self, v: np.ndarray) -> np.ndarray:
        lap = np.fft.irfftn(self.sym * np.fft.rfftn(v, axes=self.axes),
                            s=self.grid.shape, axes=self.axes)
        return lap + (self.V_grid - self.coeff) * v

    def apply_tm(self, v: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(np.fft.rfftn(v, axes=self.axes) / (self.sym + self.m),
                             s=self.grid.shape, axes=self.axes)

    def project(self, v: np.ndarray) -> np.ndarray:
        flat = v.ravel()
        return (flat - self.qbasis @ (self.qbasis.T @ flat)).reshape(v.shape)

    def gram_solve(self, rhs_flat: np.ndarray) -> np.ndarray:
        """Solve G c = <Z, r> for the (k, dim) multiplier matrix."""
        rhs = self.grid.cell_volume * (self.zmat.T @ rhs_flat)
        return np.linalg.solve(self.gram, rhs).reshape(self.k, self.dim)


def projected_solve(g: Field, V: Potential, cfg: SpikeConfig,
                    bundle: AnsatzBundle, tol: float = 1e-10,
                    max_iter: int = 500, x0: Field | None = None,
                    _op: _ProjectedOperator | None = None) -> ProjectedSolution:
    """Solve L_W phi = g + sum c_ij Z_ij with phi orthogonal to every Z_ij.

    Galerkin form: P L_W P phi = P g on span{Z}^perp, preconditioned by
    P T_m P. Both operators map the constraint space into itself and the
    right-hand side lies in it, so the Krylov iterates never pick up Z
    components; the converged residual L_W phi - g then sits in span{Z} and
    the Gram system G c = <Z, L_W phi - g> recovers the multipliers.

    x0 is an initial guess for phi. Its span{Z} part is invisible to the
    operator and dropped with the final projection, and the tolerance stays
    relative to ||P g||, so a guess near the solution only saves iterations.
    """
    op = _op if _op is not None else _ProjectedOperator(V, cfg, bundle)
    grid = op.grid
    n = g.values.size
    shape = grid.shape

    def mv(y):
        yy = op.project(y.reshape(shape))
        return op.project(op.apply_lw(yy)).ravel()

    def pmv(r):
        rr = op.project(r.reshape(shape))
        return op.project(op.apply_tm(rr)).ravel()

    b = op.project(g.values).ravel()
    history: list[float] = []
    iterations = 0
    if float(np.linalg.norm(b)) <= 1e-12 * float(np.linalg.norm(g.values)):
        # g in span{Z} up to roundoff: phi = 0, the Gram solve yields c
        phi_vals = np.zeros(shape)
    else:
        A = LinearOperator((n, n), matvec=mv, dtype=float)
        M = LinearOperator((n, n), matvec=pmv, dtype=float)
        # scipy checks the true residual only at cycle boundaries, and the
        # preconditioned one can cross tol a cycle before the true one does
        restart = min(max_iter, 300 if n <= 16384 else 150)
        outer = -(-max_iter // restart) + 1
        y, info = gmres(A, b, x0=None if x0 is None else x0.values.ravel(),
                        M=M, rtol=tol, atol=0.0,
                        restart=restart, maxiter=outer,
                        callback=lambda pr: history.append(float(pr)),
                        callback_type="pr_norm")
        if info != 0:
            true_rel = float(np.linalg.norm(b - mv(y))) / float(np.linalg.norm(b))
            if true_rel > 10.0 * tol:
                tail = ", ".join(f"{h:.3e}" for h in history[-5:])
                raise SolverDivergence(
                    f"projected solve did not converge (info={info}, "
                    f"{len(history)} iterations, true relative residual "
                    f"{true_rel:.3e}, last preconditioned [{tail}])")
            log.debug("projected solve: accepting true residual %.3e", true_rel)
        iterations = len(history)
        phi_vals = op.project(y.reshape(shape))
    resid = op.apply_lw(phi_vals) - g.values
    c = op.gram_solve(resid.ravel())
    model = (op.zmat @ c.ravel()).reshape(shape)
    gnorm = float(np.linalg.norm(g.values))
    consistency = float(np.linalg.norm(resid - model)) / max(gnorm, 1e-300)
    return ProjectedSolution(Field(grid, phi_vals), c, iterations,
                             consistency, history)


def multiplier_estimate(phi: Field, g: Field, bundle: AnsatzBundle,
                        cfg: SpikeConfig,
                        _op: _ProjectedOperator | None = None) -> MultiplierEstimate:
    """Multipliers from the Gram system without applying the full operator.

    Pairing the equation with Z_lk and moving L_W onto Z_lk (each profile
    satisfies (-Delta)^s Z_lk = (p w_l^(p-1) - lambda_l) Z_lk) gives

        sum_ij G_(lk),(ij) c_ij = <g, Z_lk>
            - <phi, (V(eps x) - lambda_l + p (w_l^(p-1) - W^(p-1))) Z_lk>.

    The leading term <g, Z_ij>/alpha_ij ignores Gram coupling and the phi
    correction; theta is everything else. Note the sign convention: here c
    estimates the multipliers of the equation L_W phi = g - sum c_ij Z_ij,
    so for g = alpha Z_11, phi = 0 the estimate is c_11 = +alpha.
    """
    op = _op if _op is not None else _ProjectedOperator(
        None, cfg, bundle)  # V unused when bundle carries V_grid
    if op.gram_cond > GRAM_COND_LIMIT:
        raise ConfigError(
            f"Gram condition number {op.gram_cond:.2e} exceeds "
            f"{GRAM_COND_LIMIT:.0e}")
    grid = bundle.grid
    p = bundle.params.p
    h_n = grid.cell_volume
    wp_total = kernels.positive_power(bundle.W.values, p - 1.0)

    rhs = np.zeros(op.k * op.dim)
    lead = np.zeros((op.k, op.dim))
    idx = 0
    for l in range(op.k):
        wl = kernels.positive_power(bundle.spikes[l].values, p - 1.0)
        pot_term = (bundle.V_grid - bundle.lambdas[l]
                    + p * (wl - wp_total))
        for a in range(op.dim):
            z = bundle.Z[l][a].values
            g_z = h_n * float(np.sum(g.values * z))
            phi_corr = h_n * float(np.sum(phi.values * pot_term * z))
            rhs[idx] = g_z - phi_corr
            lead[l, a] = g_z / bundle.alphas[l, a]
            idx += 1
    c = np.linalg.solve(op.gram, rhs).reshape(op.k, op.dim)
    return MultiplierEstimate(c=c, leading=lead, theta=c - lead,
                              gram_cond=op.gram_cond)


def nonlinear_correction(V: Potential, cfg: SpikeConfig, bundle: AnsatzBundle,
                         opts: CorrectionOptions | None = None) -> CorrectionResult:
    """Fixed point phi <- T_q(E + N(phi)) for the full correction Phi(q).

    N(phi) is the quadratic-and-higher remainder of the nonlinearity around
    W. Convergence is measured by the weighted sup norm of the increment;
    the per-step contraction ratios are recorded, and three consecutive
    ratios >= 1 abort the iteration with converged = False (the
    configuration is outside the contraction regime at this epsilon). Each
    projected solve starts GMRES from the current iterate, which already
    lies in span{Z}^perp.
    """
    opts = opts or CorrectionOptions()
    if bundle.E_norm_Y > opts.eta:
        raise SolverDivergence(
            f"ansatz error too large for the fixed point: ||E||_Y = "
            f"{bundle.E_norm_Y:.3e} > eta = {opts.eta}")
    grid = bundle.grid
    op = _ProjectedOperator(V, cfg, bundle)
    rho = bundle.rho
    p = bundle.params.p

    phi = Field(grid, np.zeros(grid.shape))
    c = np.zeros((cfg.k, grid.dim))
    increments: list[float] = []
    ratios: list[float] = []
    converged = False
    bad_streak = 0
    it = 0
    for it in range(1, opts.max_iter + 1):
        rhs = bundle.E.values + kernels.nonlinear_remainder(
            bundle.W.values, phi.values, p)
        sol = projected_solve(Field(grid, rhs), V, cfg, bundle,
                              tol=opts.krylov_tol,
                              max_iter=opts.krylov_maxiter, x0=phi, _op=op)
        inc = float(np.max(np.abs(sol.phi.values - phi.values) / rho))
        increments.append(inc)
        if len(increments) >= 2 and increments[-2] > 0:
            ratio = inc / increments[-2]
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
        phi, c = sol.phi, sol.c
        if inc <= opts.tol:
            converged = True
            break
        if bad_streak >= 3:
            log.warning("correction fixed point diverging at eps=%g "
                        "(three non-contracting steps)", cfg.epsilon)
            break

    norm_Y = float(np.max(np.abs(phi.values) / rho))
    return CorrectionResult(phi=phi, c=c, norm_Y=norm_Y,
                            iterations=it, converged=converged,
                            contraction_history=ratios,
                            increment_history=increments)


def detect_spike_centers(u: Field, frac: float = 0.5) -> np.ndarray:
    """Strict local maxima of u above frac * sup u, as coordinates (n, dim)."""
    grid = u.grid
    threshold = frac * float(np.max(u.values))
    if grid.dim == 1:
        idx = kernels.local_maxima_1d(u.values, threshold)
        return grid.axis[idx].reshape(-1, 1)
    idx = kernels.local_maxima_2d(u.values, threshold)
    return np.column_stack([grid.axis[idx[:, 0]], grid.axis[idx[:, 1]]])


def full_newton_solve(V: Potential, epsilon: float, u0: Field, params,
                      tol: float = 1e-10, max_iter: int = 30,
                      krylov_tol: float = 1e-10,
                      krylov_maxiter: int = 500) -> NewtonResult:
    """Damped Newton on F(u) = (-Delta)^s u + V(eps x) u - u_+^p.

    Independent of the projection machinery: the Jacobian
    (-Delta)^s + V(eps x) - p u_+^(p-1) is applied matrix-free and inverted
    by resolvent-preconditioned GMRES; steps are halved until the sup-norm
    residual decreases. Spike centers of the solution are its strict local
    maxima above half the peak.
    """
    grid = u0.grid
    axes = tuple(range(grid.dim))
    sym = grid.symbol(2.0 * params.s)
    V_grid = V.on_grid(grid, epsilon)
    m = float(np.min(V_grid))
    if not m > 0:
        raise ConfigError("potential is not positive on the grid")
    p = params.p
    n = u0.values.size

    def lap(v):
        return np.fft.irfftn(sym * np.fft.rfftn(v, axes=axes),
                             s=grid.shape, axes=axes)

    def residual_field(u):
        return lap(u) + V_grid * u - kernels.positive_power(u, p)

    def tm(v):
        return np.fft.irfftn(np.fft.rfftn(v, axes=axes) / (sym + m),
                             s=grid.shape, axes=axes)

    u = u0.values.copy()
    sup0 = float(np.max(np.abs(u)))
    if sup0 == 0.0:
        raise ConfigError("Newton seed is identically zero")
    res = residual_field(u)
    res_norm = float(np.max(np.abs(res))) / sup0
    converged = res_norm <= tol
    steps = 0
    for _ in range(max_iter):
        if converged:
            break
        coeff = p * kernels.positive_power(u, p - 1.0)

        def jmv(v):
            vv = v.reshape(grid.shape)
            return (lap(vv) + (V_grid - coeff) * vv).ravel()

        def pmv(v):
            return tm(v.reshape(grid.shape)).ravel()

        J = LinearOperator((n, n), matvec=jmv, dtype=float)
        M = LinearOperator((n, n), matvec=pmv, dtype=float)
        restart = krylov_maxiter if n <= 16384 else 200
        outer = -(-krylov_maxiter // restart)
        delta, info = gmres(J, res.ravel(), M=M, rtol=krylov_tol, atol=0.0,
                            restart=restart, maxiter=outer)
        if info != 0:
            # scipy re-checks the unpreconditioned residual at cycle ends and
            # reports failure even when the step is already usable
            true_rel = float(np.linalg.norm(jmv(delta) - res.ravel())) / \
                max(float(np.linalg.norm(res)), 1e-300)
            if true_rel > 1e-6:
                log.warning("newton: inner gmres stalled (info=%s, relative "
                            "residual %.3e)", info, true_rel)
                break
            log.debug("newton: accepting gmres step at relative residual "
                      "%.3e", true_rel)
        step = 1.0
        improved = False
        while step > 1e-4:
            u_try = u - step * delta.reshape(grid.shape)
            res_try = residual_field(u_try)
            res_try_norm = float(np.max(np.abs(res_try))) / max(
                float(np.max(np.abs(u_try))), 1e-300)
            if res_try_norm < res_norm:
                u, res, res_norm = u_try, res_try, res_try_norm
                improved = True
                break
            step *= 0.5
        if not improved:
            log.warning("newton: line search failed at residual %.3e", res_norm)
            break
        steps += 1
        converged = res_norm <= tol

    sup_u = float(np.max(u))
    centers = detect_spike_centers(Field(grid, u)) if sup_u > 0 else \
        np.zeros((0, grid.dim))
    min_over_sup = float(np.min(u)) / sup_u if sup_u > 0 else np.nan
    return NewtonResult(u=Field(grid, u), residual_norm=res_norm,
                        iterations=steps, spike_centers_detected=centers,
                        converged=converged, min_over_sup=min_over_sup)
