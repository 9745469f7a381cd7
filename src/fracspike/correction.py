"""Projected linear solver, multiplier extraction, and the correction step.

The correction phi to the ansatz W solves

    (-Delta)^s phi + V(eps x) phi - p W^(p-1) phi = g + sum_ij c_ij Z_ij,
    <phi, Z_ij> = 0,

with g = E + N(phi) at the solution; the Newton steps below solve it with
W + phi_k in place of W. The Galerkin form of this system is
P L_W y = P g for y in span{Z}^perp, with P the orthogonal projection onto
span{Z}^perp, preconditioned by P T_m P, T_m = ((-Delta)^s + m)^(-1), m =
the median of V(eps x) over the grid. That is the value V takes on most of
the box, so T_m L_W = I + T_m (shift .) is the identity plus a perturbation
localized at the wells; m = min V would leave V - m of order V_max - V_min
over the whole far field and spread the spectrum over [1, V_max / V_min].
Both operators are symmetric on span{Z}^perp and P T_m P is positive
definite there, so `_krylov.minres` solves the system. With Z = Q R the
QR factorization of the stacked Z_ij (Q orthonormal, R a (k N)^2
triangle) and L_W Q computed once per operator,

    A y = P L_W P y = T_m^(-1) y + shift y - (L_W Q) c - Q e,
    shift = V(eps x) - m - p W^(p-1),
    c = Q^T y,   e = Q^T L_W P y = (L_W Q)^T y - (L_W Q)^T Q c,

using that L_W is symmetric (real, with an even symbol), so Q^T L_W =
(L_W Q)^T. The operator holds [Q^T; (L_W Q)^T] as one (2 k N, n) block
and the (k N)^2 matrix (L_W Q)^T Q: one contraction with the block gives
c and (L_W Q)^T y, one expansion gives (L_W Q) c + Q e. MINRES takes the
preconditioner fused with A: for r in span{Z}^perp it returns

    t = T_m r,   A t = r + shift t - (L_W Q) c - Q e,

since T_m^(-1) t = r and Q^T r = 0. t is not P T_m P r, but P t is, and A
annihilates span{Z}, so MINRES may iterate on t: its scalars are those of
P T_m P and its iterates differ only in span{Z} parts, which the solve
projects out of its answer. An iteration thus costs one FFT pair, one
contraction and one expansion; A itself, at one FFT pair more, runs only
for the true residual. The multipliers come from the Gram system
afterwards: G = h^N Z^T Z = h^N R^T R, so G c = h^N Z^T r reduces to
R c = Q^T r, and cond(G) = cond(R)^2 is what GRAM_COND_LIMIT bounds. The
span{Z} sweeps, inner products and norms on grid vectors run on
`np.einsum`, off BLAS. The shared damped Newton loop `_krylov.newton` on
the unprojected equation, preconditioned the same way by T_m, provides
the validation path. Both apply (-Delta)^s and T_m through the shared
`spectral.FracOperator`.

The correction Phi(q) is the small solution of P [L_W phi - E - N(phi)]
= 0 on span{Z}^perp. The paper gets it as the fixed point of the
contraction phi <- T_q(E + N(phi)); `nonlinear_correction` reaches the
same phi by inexact Newton steps on the same equation. Step k solves

    P L_(W+phi_k) P phi_(k+1) = P (E + N(phi_k) - N'(phi_k) phi_k),
    N'(phi) = p ((W_+ + phi)_+^(p-1) - W_+^(p-1)),   L_(W+phi) = L_W - N'(phi),

warm-started from phi_k, and stops its MINRES once the residual of that
start has fallen by FIXED_POINT_REDUCE (1e-3), the forcing term, not at
KRYLOV_RTOL ||P g||. The residual of the start is the nonlinear residual
P (E + N(phi_k) - L_W phi_k), so the increments fall quadratically at
first and then by about the forcing term per step. Moving the operator to
the new linearization costs no transform: `relinearize` subtracts the
step's change dd in N' from shift and dd q_i from each row of (L Q)^T in
place and recomputes (L Q)^T Q; Q, R and gram_cond stay. A solve ends
with P L phi = P g - (its residual) in hand. The next step moves that
image with the operator, image -= P (dd phi), and starts from it, so its
starting residual P g' - P L' phi costs no transform either.
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
    "CorrectionResult",
    "NewtonResult",
    "CorrectionOptions",
    "projected_solve",
    "nonlinear_correction",
    "full_newton_solve",
    "certify",
    "detect_spike_centers",
]

GRAM_COND_LIMIT = 1e8
# the forcing term of the correction's Newton steps: each step's MINRES
# stops once the residual of its warm start has fallen by this factor.
# Traced at benchmark seed 0, 1e-2 and 1e-4 both cost more Krylov
# iterations: 758 and 768 against 723 on searches_1d, 100 and 95 against
# 91 on two_well_2d.
FIXED_POINT_REDUCE = 1e-3
CORRECTION_TOL = 1e-10  # on the weighted sup norm of a step's increment
CORRECTION_MAX_ITER = 40  # steps before a correction gives up
SPIKE_FRACTION = 0.5  # detect_spike_centers' threshold over sup u


@dataclass
class ProjectedSolution:
    """(phi, c) with solve diagnostics; unpacks as a (phi, c) pair."""

    phi: Field
    c: np.ndarray
    iterations: int
    # ||L_W phi - g - sum c Z|| / ||g||, the part of the residual that the
    # multipliers cannot absorb: the Krylov residual norm over ||g||
    consistency: float
    # P L phi, flat, L the operator's current linearization, as a
    # correction step's solve ended with it (P g minus the final residual):
    # set only under _reduce > 0, for the next step to start from; not a
    # field
    _image = None

    def __iter__(self):
        return iter((self.phi, self.c))


@dataclass
class CorrectionOptions:
    eta: float = 0.1  # the correction refuses an ansatz with ||E||_Y > eta

    @property
    def max_iter(self) -> int:
        """CORRECTION_MAX_ITER, read-only (perfbench reads it here)."""
        return CORRECTION_MAX_ITER


@dataclass
class CorrectionResult:
    phi: Field
    c: np.ndarray
    norm_Y: float
    iterations: int
    converged: bool
    contraction_history: list = field(default_factory=list)


@dataclass
class NewtonResult:
    """The Newton certificate. residual_norm and initial_residual are the
    relative sup norm of F at the returned u and at the seed."""

    u: Field
    residual_norm: float
    iterations: int
    spike_centers_detected: np.ndarray
    converged: bool
    min_over_sup: float
    initial_residual: float

    def failed_check(self, cfg: SpikeConfig) -> str | None:
        """The first check u fails as a solution with cfg's spikes, or None:
        "residual" (not converged), "positivity" (min u <= 0) or "spikes"
        (not cfg.k spikes, one within a grid spacing of each centre)."""
        det = self.spike_centers_detected
        near = np.linalg.norm(cfg.grid.periodic_delta(
            det, cfg.centers[:, None]), axis=-1) <= cfg.grid.spacing
        if not self.converged:
            return "residual"
        if not self.min_over_sup > 0:
            return "positivity"
        if len(det) != cfg.k or np.any(near.sum(axis=1) != 1):
            return "spikes"
        return None

    def certifies(self, cfg: SpikeConfig) -> bool:
        """True when u passes every check of `failed_check`."""
        return self.failed_check(cfg) is None


class _ProjectedOperator:
    """Shared machinery: L_W, T_m, the Z projection, and the Gram system.

    Z = Q R is held as one (2 k dim, n) block of contiguous rows, Q^T over
    (L_W Q)^T (`qt` and `lq` are views of its halves), the (k dim)^2
    matrix (L_W Q)^T Q and the triangle R; the stack of Z lives only for
    its QR. One contraction with the block gives Q^T v and (L_W Q)^T v
    together, and one expansion gives (L_W Q) a + Q b. shift is held flat,
    as `apply` and `precond` take it. `relinearize` moves L_W to
    L_W - (d .) in place, and every L_W here then stands for that operator.
    """

    def __init__(self, V: Potential, cfg: SpikeConfig, bundle: AnsatzBundle):
        grid = bundle.grid
        params = bundle.params
        self.grid = grid
        V_grid = bundle.V_grid if bundle.V_grid is not None \
            else V.on_grid(grid, cfg.epsilon)
        self.m = kernels.median(V_grid)
        self.frac = sp.FracOperator(grid, params.s, self.m)
        self.shift = (V_grid - self.m - params.p * kernels.positive_power(
            bundle.W.values, params.p - 1.0)).ravel()

        q, self.R = np.linalg.qr(
            np.stack([z.values.ravel() for z in bundle.z_flat()]).T)
        # G = h^N Z^T Z = h^N R^T R
        self.gram_cond = float(np.linalg.cond(self.R)) ** 2
        if self.gram_cond > GRAM_COND_LIMIT:
            raise ConfigError(
                f"Z Gram system nearly singular (cond {self.gram_cond:.2e}); "
                f"spikes too close for a stable projection")
        kn = q.shape[1]
        self.block = np.empty((2 * kn, q.shape[0]))
        self.qt, self.lq = self.block[:kn], self.block[kn:]
        self.qt[...] = q.T
        del q  # before L_W Q is built
        for qi, lqi in zip(self.qt, self.lq):
            lqi[...] = self.apply_lw(qi.reshape(grid.shape)).ravel()
        self.lqq = np.einsum("ki,li->kl", self.lq, self.qt)

    def relinearize(self, dd: np.ndarray) -> None:
        """Move the operator from L to L - (dd .) in place, for flat dd:
        shift -= dd and (L Q)^T -= dd Q^T row by row, (L Q)^T Q anew. No
        transform, and Q, R and gram_cond stay."""
        self.shift -= dd
        for qi, lqi in zip(self.qt, self.lq):
            lqi -= dd * qi
        self.lqq = np.einsum("ki,li->kl", self.lq, self.qt)

    def apply_lw(self, v: np.ndarray) -> np.ndarray:
        """L v for grid-shaped v, L = L_W or the operator `relinearize`
        moved it to."""
        return self.frac.laplacian(v) \
            + (self.shift + self.m).reshape(v.shape) * v

    def project(self, v: np.ndarray) -> np.ndarray:
        flat = v.ravel()
        out = np.einsum("ki,k->i", self.qt, np.einsum("ki,i->k", self.qt, flat))
        np.subtract(flat, out, out=out)
        return out.reshape(v.shape)

    def _subtract_span_z(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out -= (L_W Q) c + Q e for flat v, c = Q^T v and e = Q^T L_W P v
        = (L_W Q)^T v - (L_W Q)^T Q c: the span{Z} terms of P L_W P v, from
        one contraction and one expansion of the stacked block. c and e
        are sliced off the contraction: `np.split` spends 8-13 us a call in
        Python against a 1d (M = 1024) MINRES iteration of ~80 us, and
        slicing under a microsecond (numpy 2.4, 2 vCPUs)."""
        ce = np.einsum("ki,i->k", self.block, v)
        kn = len(self.qt)
        c, e = ce[:kn], ce[kn:]
        e -= self.lqq @ c
        out -= np.einsum("ki,k->i", self.block, np.concatenate((e, c)))
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x = P L_W P x = T_m^(-1) x + shift x - (L_W Q) c - Q e for
        flat x, since L_W P x = T_m^(-1) x + shift x - (L_W Q) c; one FFT
        pair, added term by term so that one temporary at a time lives
        beside the result."""
        out = self.frac.shifted(x)
        out += self.shift * x
        return self._subtract_span_z(x, out)

    def precond(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t, A t) for flat r in span{Z}^perp, t = T_m r, at one FFT pair:
        P t = P T_m P r, and A t = r + shift t - (L_W Q) c - Q e since
        T_m^(-1) t = r and Q^T r = 0."""
        t = self.frac.resolvent(r)
        at = self.shift * t
        at += r
        return t, self._subtract_span_z(t, at)

    def gram_solve(self, rhs_flat: np.ndarray) -> np.ndarray:
        """Solve G c = <Z, r>, i.e. R c = Q^T r, for the (k, dim) multiplier
        matrix."""
        rhs = np.einsum("ki,i->k", self.qt, rhs_flat)
        return np.linalg.solve(self.R, rhs).reshape(-1, self.grid.dim)


def projected_solve(g: Field, V: Potential, cfg: SpikeConfig,
                    bundle: AnsatzBundle, x0: Field | None = None,
                    _op: _ProjectedOperator | None = None,
                    _reduce: float = 0.0,
                    _image: np.ndarray | None = None) -> ProjectedSolution:
    """Solve L_W phi = g + sum c_ij Z_ij with phi orthogonal to every Z_ij.

    Galerkin form: P L_W P phi = P g on span{Z}^perp, preconditioned by
    P T_m P. Both operators map the constraint space into itself and the
    right-hand side lies in it, so the residuals never leave it; the
    iterates pick up span{Z} parts only where A does not see them, and phi
    is the projection of the answer. The converged residual L_W phi - g
    then sits in span{Z} and the Gram system G c = <Z, L_W phi - g>
    recovers the multipliers. MINRES iterates on the fused pair of the
    module docstring (one FFT pair per iteration) to the relative
    tolerance `_krylov.KRYLOV_RTOL`.

    With _op given, L_W is the operator's current linearization. x0 is an
    initial guess for phi; A annihilates its span{Z} part. The
    tolerance stays relative to ||P g||, so a guess near the solution only
    saves iterations. `nonlinear_correction` passes _reduce > 0 to stop
    instead once the residual of x0 has fallen by that factor (or at the
    KRYLOV_RTOL floor, whichever comes first), and _image, P L x0 for its
    previous step's solution x0 and the operator's current linearization L,
    which this solve overwrites with its starting residual P g - P L x0
    instead of applying A. Under _reduce > 0 the result carries its own
    P L phi as `_image` for the next step.
    """
    op = _op if _op is not None else _ProjectedOperator(V, cfg, bundle)
    grid = op.grid
    shape = grid.shape
    g_flat = g.values.ravel()
    b = op.project(g_flat)
    gnorm = _krylov.norm(g_flat)
    iterations = 0
    bnorm = _krylov.norm(b)
    if bnorm <= 1e-12 * gnorm:
        # g in span{Z} up to roundoff: phi = 0, the Gram solve yields c
        phi_flat = np.zeros(b.size)
        resid = -g_flat
        consistency = bnorm / max(gnorm, 1e-300)
        b = None
    else:
        y0 = None if x0 is None else x0.values.ravel()
        r0 = None if _image is None else np.subtract(b, _image, out=_image)
        sol = _krylov.minres(op.apply, op.precond, b, x0=y0, r0=r0,
                             rtol=_krylov.KRYLOV_RTOL, reduce=_reduce)
        history = sol.history
        rnorm = _krylov.norm(sol.residual)
        if sol.info != 0:
            true_rel = rnorm / bnorm
            if rnorm > 10.0 * sol.atol:
                tail = ", ".join(f"{h:.3e}" for h in history[-5:])
                raise SolverDivergence(
                    f"projected solve did not converge (info={sol.info}, "
                    f"{len(history)} iterations, true relative residual "
                    f"{true_rel:.3e}, last estimates [{tail}])")
            log.debug("projected solve: accepting true residual %.3e", true_rel)
        iterations = len(history)
        phi_flat = op.project(sol.x)
        # L_W phi - g = -(P g - P L_W phi) + Q Q^T (L_W phi - g), where
        # Q^T L_W phi = (L_W Q)^T phi needs no transform
        coef = np.einsum("ki,i->k", op.lq, phi_flat) \
            - np.einsum("ki,i->k", op.qt, g_flat)
        resid = np.einsum("ki,k->i", op.qt, coef) - sol.residual
        b -= sol.residual  # P L_W phi
        # resid - Q R c = -P residual = -residual: b and A x lie in
        # span{Z}^perp, so what the Gram fit leaves is the solve's residual
        consistency = rnorm / gnorm
    c = op.gram_solve(resid)
    out = ProjectedSolution(Field(grid, phi_flat.reshape(shape)), c,
                            iterations, consistency)
    if _reduce > 0.0:
        out._image = b
    return out


def nonlinear_correction(V: Potential, cfg: SpikeConfig, bundle: AnsatzBundle,
                         opts: CorrectionOptions | None = None,
                         phi0: Field | None = None) -> CorrectionResult:
    """The full correction Phi(q): the fixed point phi = T_q(E + N(phi)),
    found by inexact Newton steps.

    N(phi) is the quadratic-and-higher remainder of the nonlinearity around
    W. Step k solves P L_(W+phi_k) P phi_(k+1) = P (E + N(phi_k) -
    N'(phi_k) phi_k) through `projected_solve`, on one operator that
    `relinearize` moves in place by the step's change in N' (module
    docstring). Each solve starts MINRES from the current iterate, which
    already lies in span{Z}^perp, and stops once the residual of that start
    has fallen by FIXED_POINT_REDUCE (floor KRYLOV_RTOL ||P g||). Each step
    hands the next the image P L phi its solve ended with, moved to the
    next linearization as image -= P (dd phi), so the next starting
    residual costs no transform. Convergence is measured by the weighted
    sup norm of the increment, down to CORRECTION_TOL within
    CORRECTION_MAX_ITER steps. contraction_history holds the ratios of
    successive increments, which after the second step sit near the
    forcing term; three consecutive ratios >= 1 abort the iteration with
    converged = False (the configuration is outside the contraction regime
    at this epsilon).

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
    W = bundle.W.values

    phi = Field(grid, np.zeros(grid.shape) if phi0 is None
                else op.project(phi0.values))
    c = np.zeros((cfg.k, grid.dim))
    d = 0.0  # the N'(phi) that op is linearized at
    prev_inc = 0.0
    ratios: list[float] = []
    converged = False
    bad_streak = 0
    it = 0
    image = None
    for it in range(1, CORRECTION_MAX_ITER + 1):
        # L_W - N'(phi) = L_(W+phi): move op by the step's change in N'
        d_new = kernels.nonlinear_derivative(W, phi.values, p)
        dd = (d_new - d).ravel()
        op.relinearize(dd)
        if image is not None:
            image -= op.project(dd * phi.values.ravel())
        d = d_new
        del dd  # before the solve allocates its vectors
        rhs = bundle.E.values + kernels.nonlinear_remainder(
            W, phi.values, p) - d * phi.values
        sol = projected_solve(Field(grid, rhs), V, cfg, bundle, x0=phi,
                              _op=op, _reduce=FIXED_POINT_REDUCE,
                              _image=image)
        image = sol._image
        inc = float(np.max(np.abs(sol.phi.values - phi.values) / rho))
        if prev_inc > 0:
            ratio = inc / prev_inc
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
        prev_inc = inc
        phi, c = sol.phi, sol.c
        if inc <= CORRECTION_TOL:
            converged = True
            break
        if bad_streak >= 3:
            log.warning("correction fixed point diverging at eps=%g "
                        "(three non-contracting steps)", cfg.epsilon)
            break

    norm_Y = float(np.max(np.abs(phi.values) / rho))
    return CorrectionResult(phi=phi, c=c, norm_Y=norm_Y,
                            iterations=it, converged=converged,
                            contraction_history=ratios)


def detect_spike_centers(u: Field) -> np.ndarray:
    """Strict local maxima of u above SPIKE_FRACTION sup u, as (n, dim)."""
    grid = u.grid
    threshold = SPIKE_FRACTION * float(np.max(u.values))
    if grid.dim == 1:
        idx = kernels.local_maxima_1d(u.values, threshold)
        return grid.axis[idx].reshape(-1, 1)
    idx = kernels.local_maxima_2d(u.values, threshold)
    return np.column_stack([grid.axis[idx[:, 0]], grid.axis[idx[:, 1]]])


def full_newton_solve(V: Potential, epsilon: float, u0: Field,
                      params) -> NewtonResult:
    """Damped Newton on F(u) = (-Delta)^s u + V(eps x) u - u_+^p.

    Independent of the projection machinery: `_krylov.newton` with
    J = (-Delta)^s + V(eps x) - p u_+^(p-1), preconditioned by T_m with m
    the median of V(eps x) as in the projected solve, so MINRES applies
    J = T_m^(-1) + (shift .), shift = V(eps x) - m - p u_+^(p-1). The
    loose inner tolerances of its forcing term never reach the certificate:
    residual_norm is always max|F(u)| / max|u| recomputed from the returned
    u, and converged means it is <= `_krylov.RESIDUAL_TOL`. Spike centers
    of the solution come from `detect_spike_centers`.
    """
    grid = u0.grid
    V_grid = V.on_grid(grid, epsilon)
    frac = sp.FracOperator(grid, params.s, kernels.median(V_grid))
    p = params.p
    if not u0.values.any():
        raise ConfigError("Newton seed is identically zero")

    def residual(u):
        return frac.laplacian(u) + V_grid * u - kernels.positive_power(u, p)

    def shift(u):
        return V_grid - frac.m - p * kernels.positive_power(u, p - 1.0)

    u, res_norm, steps, res0 = _krylov.newton(frac, residual, shift,
                                              u0.values.copy())
    sup_u = float(np.max(u))
    centers = detect_spike_centers(Field(grid, u)) if sup_u > 0 else \
        np.zeros((0, grid.dim))
    min_over_sup = float(np.min(u)) / sup_u if sup_u > 0 else np.nan
    return NewtonResult(u=Field(grid, u), residual_norm=res_norm,
                        iterations=steps, spike_centers_detected=centers,
                        converged=res_norm <= _krylov.RESIDUAL_TOL,
                        min_over_sup=min_over_sup, initial_residual=res0)


def certify(V: Potential, bundle: AnsatzBundle,
            corr: CorrectionResult) -> NewtonResult:
    """The Newton certificate of a corrected ansatz: Newton from W + phi."""
    u0 = Field(bundle.grid, bundle.W.values + corr.phi.values)
    return full_newton_solve(V, bundle.cfg.epsilon, u0, bundle.params)
