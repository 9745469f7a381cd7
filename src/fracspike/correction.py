"""Projected linear solver, multiplier extraction, and the correction step.

The correction phi to the ansatz W solves

    (-Delta)^s phi + V(eps x) phi - p W^(p-1) phi = g + sum_ij c_ij Z_ij,
    <phi, Z_ij> = 0,

with g = E + N(phi) in the fixed point. The Galerkin form of this system is
P L_W y = P g for y in span{Z}^perp, with P the orthogonal projection onto
span{Z}^perp, preconditioned by P T_m, T_m = ((-Delta)^s + m)^(-1), m =
the median of V(eps x) over the grid. That is the value V takes on most of
the box, so T_m L_W = I + T_m (shift .) is the identity plus a perturbation
localized at the wells; m = min V would leave V - m of order V_max - V_min
over the whole far field and spread the spectrum over [1, V_max / V_min].
GMRES iterates the preconditioned operator

    P T_m P L_W y = y + P T_m (shift y - Q (L_W Q)^T y),
    shift = V(eps x) - m - p W^(p-1),

which is the same operator written so that one application costs a single
FFT pair: T_m L_W = I + T_m (shift .) because T_m inverts the Fourier part
of L_W, P y = y on span{Z}^perp, and, L_W being symmetric (real, even
symbol), the span{Z} part Q Q^T L_W y of L_W y equals Q (L_W Q)^T y with
L_W Q computed once per operator. The Krylov space stays inside
span{Z}^perp by construction, and the multipliers come from the Gram
system afterwards. The shared damped Newton loop `_krylov.newton` on the
unprojected equation, preconditioned the same way (T_m J = I +
T_m (shift .)), provides the validation path. Both apply (-Delta)^s and T_m
through the shared `spectral.FracOperator`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from fracspike import kernels
from fracspike import spectral as sp
from fracspike import _krylov
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


def _resolvent_shift(V_grid: np.ndarray) -> float:
    """m of the preconditioner T_m = ((-Delta)^s + m)^(-1): the median of
    V(eps x) over the grid. V must be positive on the grid."""
    if not float(np.min(V_grid)) > 0:
        raise ConfigError("potential is not positive on the grid")
    return float(np.median(V_grid))


class _ProjectedOperator:
    """Shared machinery: L_W, T_m, the Z projection, and the Gram system.

    Q, the orthonormal basis of span{Z}, is kept as the contiguous rows of
    Q^T, with L_W Q beside it for the fused preconditioned operator.
    """

    def __init__(self, V: Potential, cfg: SpikeConfig, bundle: AnsatzBundle):
        grid = bundle.grid
        params = bundle.params
        self.grid = grid
        self.p = params.p
        self.V_grid = bundle.V_grid if bundle.V_grid is not None \
            else V.on_grid(grid, cfg.epsilon)
        self.m = _resolvent_shift(self.V_grid)
        self.frac = sp.FracOperator(grid, params.s, self.m)
        self.shift = self.V_grid - self.m - params.p * kernels.positive_power(
            bundle.W.values, params.p - 1.0)

        zmat = np.stack([z.values.ravel() for z in bundle.z_flat()], axis=1)
        self.zmat = zmat
        self.gram = grid.cell_volume * (zmat.T @ zmat)
        self.gram_cond = float(np.linalg.cond(self.gram))
        if self.gram_cond > GRAM_COND_LIMIT:
            raise ConfigError(
                f"Z Gram system nearly singular (cond {self.gram_cond:.2e}); "
                f"spikes too close for a stable projection")
        self.qt = np.ascontiguousarray(np.linalg.qr(zmat)[0].T)
        self.lq = np.stack([self.apply_lw(q.reshape(grid.shape)).ravel()
                            for q in self.qt])
        self.k = bundle.cfg.k
        self.dim = grid.dim

    def apply_lw(self, v: np.ndarray) -> np.ndarray:
        """L_W v for grid-shaped v."""
        return self.frac.laplacian(v) + (self.shift + self.m) * v

    def apply_tm(self, v: np.ndarray) -> np.ndarray:
        return self.frac.resolvent(v)

    def project(self, v: np.ndarray) -> np.ndarray:
        flat = v.ravel()
        return (flat - (self.qt @ flat) @ self.qt).reshape(v.shape)

    def apply_fused(self, y: np.ndarray) -> np.ndarray:
        """P T_m P L_W y for flat y in span{Z}^perp, at one FFT pair."""
        f = self.shift.ravel() * y - (self.lq @ y) @ self.qt
        return y + self.project(self.apply_tm(f))

    def gram_solve(self, rhs_flat: np.ndarray) -> np.ndarray:
        """Solve G c = <Z, r> for the (k, dim) multiplier matrix."""
        rhs = self.grid.cell_volume * (self.zmat.T @ rhs_flat)
        return np.linalg.solve(self.gram, rhs).reshape(self.k, self.dim)


def projected_solve(g: Field, V: Potential, cfg: SpikeConfig,
                    bundle: AnsatzBundle, x0: Field | None = None,
                    _op: _ProjectedOperator | None = None) -> ProjectedSolution:
    """Solve L_W phi = g + sum c_ij Z_ij with phi orthogonal to every Z_ij.

    Galerkin form: P L_W P phi = P g on span{Z}^perp, preconditioned by
    P T_m P. Both operators map the constraint space into itself and the
    right-hand side lies in it, so the Krylov iterates never pick up Z
    components; the converged residual L_W phi - g then sits in span{Z} and
    the Gram system G c = <Z, L_W phi - g> recovers the multipliers. Each
    Krylov iteration applies the fused P T_m P L_W (one FFT pair), and GMRES
    runs to the relative tolerance `_krylov.KRYLOV_RTOL`.

    x0 is an initial guess for phi. Its span{Z} part is projected out on
    entry, and the tolerance stays relative to ||P g||, so a guess near the
    solution only saves iterations.
    """
    op = _op if _op is not None else _ProjectedOperator(V, cfg, bundle)
    grid = op.grid
    shape = grid.shape

    def mv(y):
        return op.project(op.apply_lw(y.reshape(shape))).ravel()

    def pmv(r):
        return op.project(op.apply_tm(r))

    b = op.project(g.values).ravel()
    history: list[float] = []
    iterations = 0
    if float(np.linalg.norm(b)) <= 1e-12 * float(np.linalg.norm(g.values)):
        # g in span{Z} up to roundoff: phi = 0, the Gram solve yields c
        phi_vals = np.zeros(shape)
        resid = -g.values
    else:
        y0 = None if x0 is None else op.project(x0.values).ravel()
        sol = _krylov.gmres(op.apply_fused, mv, pmv, b, x0=y0,
                            rtol=_krylov.KRYLOV_RTOL)
        history = sol.history
        if sol.info != 0:
            true_rel = float(np.linalg.norm(sol.residual)) / \
                float(np.linalg.norm(b))
            if true_rel > 10.0 * _krylov.KRYLOV_RTOL:
                tail = ", ".join(f"{h:.3e}" for h in history[-5:])
                raise SolverDivergence(
                    f"projected solve did not converge (info={sol.info}, "
                    f"{len(history)} iterations, true relative residual "
                    f"{true_rel:.3e}, last preconditioned [{tail}])")
            log.debug("projected solve: accepting true residual %.3e", true_rel)
        iterations = len(history)
        phi_vals = op.project(sol.x.reshape(shape))
        # L_W phi - g = -(P g - P L_W phi) + Q Q^T (L_W phi - g), where
        # Q^T L_W phi = (L_W Q)^T phi needs no transform
        qpart = (op.lq @ phi_vals.ravel() - op.qt @ g.values.ravel()) @ op.qt
        resid = (qpart - sol.residual).reshape(shape)
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
                         opts: CorrectionOptions | None = None,
                         phi0: Field | None = None) -> CorrectionResult:
    """Fixed point phi <- T_q(E + N(phi)) for the full correction Phi(q).

    N(phi) is the quadratic-and-higher remainder of the nonlinearity around
    W. Convergence is measured by the weighted sup norm of the increment;
    the per-step contraction ratios are recorded, and three consecutive
    ratios >= 1 abort the iteration with converged = False (the
    configuration is outside the contraction regime at this epsilon). Each
    projected solve starts GMRES from the current iterate, which already
    lies in span{Z}^perp.

    phi0, typically the correction at a nearby configuration, starts the
    fixed point from its projection onto span{Z}^perp instead of from 0.
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

    phi = Field(grid, np.zeros(grid.shape) if phi0 is None
                else op.project(phi0.values))
    c = np.zeros((cfg.k, grid.dim))
    increments: list[float] = []
    ratios: list[float] = []
    converged = False
    bad_streak = 0
    it = 0
    for it in range(1, opts.max_iter + 1):
        rhs = bundle.E.values + kernels.nonlinear_remainder(
            bundle.W.values, phi.values, p)
        sol = projected_solve(Field(grid, rhs), V, cfg, bundle, x0=phi,
                              _op=op)
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
                      tol: float = 1e-10) -> NewtonResult:
    """Damped Newton on F(u) = (-Delta)^s u + V(eps x) u - u_+^p.

    Independent of the projection machinery: `_krylov.newton` with
    J = (-Delta)^s + V(eps x) - p u_+^(p-1), preconditioned by T_m with m
    the median of V(eps x) as in the projected solve, so GMRES iterates
    T_m J = I + T_m (shift .), shift = V(eps x) - m - p u_+^(p-1). The
    loose inner tolerances of its forcing term never reach the certificate:
    residual_norm is always max|F(u)| / max|u| recomputed from the returned
    u, and converged means it is <= tol. Spike centers of the solution are
    its strict local maxima above half the peak.
    """
    grid = u0.grid
    V_grid = V.on_grid(grid, epsilon)
    frac = sp.FracOperator(grid, params.s, _resolvent_shift(V_grid))
    p = params.p
    if not u0.values.any():
        raise ConfigError("Newton seed is identically zero")

    def residual(u):
        return frac.laplacian(u) + V_grid * u - kernels.positive_power(u, p)

    def shift(u):
        return V_grid - frac.m - p * kernels.positive_power(u, p - 1.0)

    u, res_norm, steps = _krylov.newton(frac, residual, shift,
                                        u0.values.copy(), tol)
    sup_u = float(np.max(u))
    centers = detect_spike_centers(Field(grid, u)) if sup_u > 0 else \
        np.zeros((0, grid.dim))
    min_over_sup = float(np.min(u)) / sup_u if sup_u > 0 else np.nan
    return NewtonResult(u=Field(grid, u), residual_norm=res_norm,
                        iterations=steps, spike_centers_detected=centers,
                        converged=res_norm <= tol, min_over_sup=min_over_sup)
