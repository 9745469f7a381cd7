"""Reduced energy, its asymptotic model, and the critical-point searches.

The reduced energy I(q) is the full energy functional evaluated on the
corrected ansatz W_q + Phi(q). Its gradient is carried by the multipliers
of the same correction, grad_xi I = -alpha_ij c_ij / eps (alpha_ij =
||Z_ij||^2, xi = eps q), so its critical points are exactly the
configurations where all c_ij vanish. Every search step therefore costs one
correction per configuration it visits: the Newton searches drive c to zero
and the cluster ascent takes quasi-Newton steps on the multiplier gradient.
The asymptotic model c_* sum V^theta(xi_i) - (1/2) sum_{i!=j} c_ij
|q_i-q_j|^{-(N+2s)} supplies cheap seeds, the Jacobian the Newton searches
start from and the Hessian the cluster ascent starts from; its
constants were validated against measured overlap integrals (the pair
factor 1/2 and the lambda exponents empirically, see tests).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from fracspike import kernels
from fracspike import spectral as sp
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import (CorrectionOptions, CorrectionResult,
                                  nonlinear_correction)
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field, FracParams, Grid
from fracspike.ground_state import GroundState, energy_scaling_exponent
from fracspike.potentials import Potential

log = logging.getLogger(__name__)

__all__ = [
    "ReducedReport",
    "SearchOutcome",
    "reduced_energy",
    "energy_with_potential",
    "asymptotic_energy",
    "interaction_constants",
    "critical_point_search",
    "cluster_search",
    "brouwer_degree",
]

SEARCH_ETA = 0.5  # fixed-point gate during searches; default 0.1 is for end use


def energy_with_potential(grid: Grid, params: FracParams,
                          V_grid: np.ndarray, values: np.ndarray) -> float:
    """J_eps(u) = 1/2 <u, (-Delta)^s u> + 1/2 int V(eps x) u^2 - int u_+^(p+1)/(p+1)."""
    f = Field(grid, values)
    kin = 0.5 * sp.inner(f, sp.fractional_laplacian(f, params))
    pot = 0.5 * grid.cell_volume * float(np.sum(V_grid * values ** 2))
    nl = grid.cell_volume * float(
        np.sum(kernels.positive_power(values, params.p + 1.0))) / (params.p + 1.0)
    return kin + pot - nl


@dataclass
class ReducedReport:
    q: SpikeConfig
    I_value: float
    c_matrix: np.ndarray
    grad: np.ndarray
    asymptotic_value: float
    asymptotic_gap: float
    theta: float
    c_star: float
    interaction_constants: np.ndarray
    converged: bool
    correction: CorrectionResult = dc_field(repr=False, default=None)


@dataclass
class SearchOutcome:
    q_star: SpikeConfig
    mode: str
    max_abs_c: float
    V_at_spikes: np.ndarray
    converged: bool
    history: list = dc_field(default_factory=list)
    boundary_stuck: bool = False
    I_value: float = np.nan
    c_tol: float = np.nan
    correction: CorrectionResult = dc_field(repr=False, default=None)

    @property
    def xi_star(self) -> np.ndarray:
        return self.q_star.xi


def interaction_constants(gs: GroundState, lambdas) -> np.ndarray:
    """Pairwise constants c_ij = c0 * lambda_i^alpha * lambda_j^beta.

    c0 = A * h^N int w^p with A the tail amplitude of the lambda = 1
    profile's decay fit; alpha and beta are the tail and mass scaling
    exponents of the rescaled profiles.
    """
    if not np.isfinite(gs.decay.amplitude) or gs.decay.amplitude <= 0:
        raise ConfigError("interaction constants need a valid decay fit")
    p, s = gs.params.p, gs.params.s
    dim = gs.grid.dim
    alpha = 1.0 / (p - 1.0) - (dim + 2.0 * s) / (2.0 * s)
    beta = p / (p - 1.0) - dim / (2.0 * s)
    c0 = gs.decay.amplitude * gs.grid.cell_volume * float(
        np.sum(kernels.positive_power(gs.values, p)))
    lam = np.asarray(lambdas, dtype=float)
    return c0 * np.outer(lam ** alpha, lam ** beta)


def asymptotic_energy(V: Potential, xi_list, epsilon: float,
                      gs: GroundState) -> float:
    """Model energy c_* sum V^theta(xi_i) - (1/2) sum_{i!=j} c_ij / |q_i-q_j|^(N+2s).

    Distances are taken in the inner variable q = xi/eps. The 1/2 counts
    each unordered pair once, matching the measured two-spike energy
    deficit; the constants are validated against measured overlap integrals
    in the test suite.
    """
    xi = np.asarray(xi_list, dtype=float).reshape(-1, gs.grid.dim)
    theta = energy_scaling_exponent(gs.params, gs.grid.dim)
    lam = np.array([float(V(*x)) for x in xi])
    if np.any(lam <= 0):
        raise ConfigError("V must be positive at every spike position")
    c_star = gs.energy
    total = c_star * float(np.sum(lam ** theta))
    if xi.shape[0] > 1:
        cij = interaction_constants(gs, lam)
        beta_exp = gs.grid.dim + 2.0 * gs.params.s
        for i, j in itertools.combinations(range(xi.shape[0]), 2):
            d = float(np.linalg.norm(xi[i] - xi[j])) / epsilon
            if d == 0.0:
                raise ConfigError("coincident spike positions in the model")
            total -= 0.5 * (cij[i, j] + cij[j, i]) / d ** beta_exp
    return total


def reduced_energy(V: Potential, cfg: SpikeConfig, gs: GroundState,
                   mu: float | None = None,
                   opts: CorrectionOptions | None = None) -> ReducedReport:
    """I(q) = J_eps(W_q + Phi(q)) with its multipliers and gradient.

    The gradient with respect to the outer positions is the multiplier
    estimate grad_xi I = -alpha_ij c_ij / eps: moving q_ij shifts W_q along
    -Z_ij, the corrected equation leaves the residual sum c_ij Z_ij, and
    xi = eps q contributes the 1/eps. It needs no correction beyond the one
    at cfg. When the correction fails the report carries converged = False
    and NaN for I, the multipliers and the gradient.
    """
    opts = opts or CorrectionOptions(eta=SEARCH_ETA)
    theta = energy_scaling_exponent(gs.params, gs.grid.dim)
    c_star = gs.energy
    a_val = asymptotic_energy(V, cfg.xi, cfg.epsilon, gs)
    inter = interaction_constants(gs, cfg.lambdas(V)) if cfg.k > 1 else \
        np.zeros((cfg.k, cfg.k))
    try:
        pt = _corrected(V, cfg, gs, mu, opts)
    except SolverDivergence:
        nan = np.full((cfg.k, cfg.grid.dim), np.nan)
        return ReducedReport(q=cfg, I_value=np.nan, c_matrix=nan,
                             grad=nan.copy(), asymptotic_value=a_val,
                             asymptotic_gap=np.nan, theta=theta,
                             c_star=c_star, interaction_constants=inter,
                             converged=False)
    return ReducedReport(q=cfg, I_value=pt.I, c_matrix=pt.c, grad=pt.grad,
                         asymptotic_value=a_val,
                         asymptotic_gap=abs(pt.I - a_val), theta=theta,
                         c_star=c_star, interaction_constants=inter,
                         converged=True, correction=pt.correction)


class _Corrected(NamedTuple):
    I: float
    c: np.ndarray
    grad: np.ndarray
    correction: CorrectionResult
    alphas: np.ndarray


def _corrected(V, cfg, gs, mu, opts, phi0=None) -> _Corrected:
    """Build the ansatz at cfg and correct it once: I, c and grad_xi I.

    phi0 starts the fixed point from a nearby configuration's correction.
    Raises SolverDivergence when the correction does not converge.
    """
    bundle = build_ansatz(V, cfg, gs, mu=mu)
    corr = nonlinear_correction(V, cfg, bundle, opts, phi0=phi0)
    if not corr.converged:
        raise SolverDivergence(f"correction diverged at centers "
                               f"{cfg.centers.tolist()}")
    u = bundle.W.values + corr.phi.values
    I_val = energy_with_potential(cfg.grid, gs.params, bundle.V_grid, u)
    return _Corrected(I_val, corr.c, -bundle.alphas * corr.c / cfg.epsilon,
                      corr, bundle.alphas)


def _model_jacobian(V: Potential, xi: np.ndarray, epsilon: float,
                    gs: GroundState, alphas: np.ndarray) -> np.ndarray:
    """Model Jacobian of xi -> c, blocks -(eps/alpha_i) c_* hess V^theta(xi_i).

    From c = -eps grad_xi I / alpha and I ~ c_* sum V^theta(xi_i); the pair
    interaction is left out, for the Broyden updates to pick up.
    """
    theta = energy_scaling_exponent(gs.params, gs.grid.dim)
    dim = xi.shape[1]
    J = np.zeros((xi.size, xi.size))
    for i, x in enumerate(xi):
        lam, g = float(V(*x)), np.array(V.grad(*x), dtype=float)
        hess_vt = theta * lam ** (theta - 2.0) * (
            lam * np.array(V.hess(*x), dtype=float)
            + (theta - 1.0) * np.outer(g, g))
        J[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = \
            -(epsilon * gs.energy / alphas[i][:, None]) * hess_vt
    return J


def _model_hessian(V: Potential, xi: np.ndarray, epsilon: float,
                   gs: GroundState, h: float) -> np.ndarray:
    """Central-difference Hessian of asymptotic_energy in the flattened xi."""
    E, H = h * np.eye(xi.size), np.empty((xi.size, xi.size))

    def f(d):
        return asymptotic_energy(V, xi.ravel() + d, epsilon, gs)

    for i, j in itertools.combinations_with_replacement(range(xi.size), 2):
        H[i, j] = H[j, i] = (f(E[i] + E[j]) - f(E[i] - E[j])
                             - f(E[j] - E[i]) + f(-E[i] - E[j])) / (4 * h * h)
    return H


def _model_seed(V: Potential, epsilon: float, k: int, region, mode: str,
                gs: GroundState, rng: np.random.Generator,
                n_grid: int = 33) -> list[np.ndarray]:
    """Seed configurations (in xi) from the asymptotic model over the region.

    Single spikes seed at extrema of V^theta on a region scan plus a few
    random perturbations. Multi-spike seeds place spikes at the k best
    distinct scan cells (minimize/maximize) and then relax the model energy
    by coordinate descent on the scan lattice.
    """
    dim = gs.grid.dim
    lows = np.array([r[0] for r in region], dtype=float)
    highs = np.array([r[1] for r in region], dtype=float)
    axes = [np.linspace(lo, hi, n_grid) for lo, hi in zip(lows, highs)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    if mode == "degree_zero_of_gradV":
        gcomps = V.grad(*mesh)
        score = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in gcomps))
    else:
        score = np.asarray(V(*mesh), dtype=float)
    order = np.argsort(score.ravel())
    if mode in ("maximize_V", "cluster_max"):
        order = order[::-1]

    def spread_pick(count, min_sep):
        chosen = []
        for idx in order:
            x = pts[idx]
            if all(np.linalg.norm(x - y) >= min_sep for y in chosen):
                chosen.append(x)
            if len(chosen) == count:
                break
        return chosen

    span = float(np.min(highs - lows))
    seeds = []
    if k == 1:
        best = pts[order[0]]
        seeds.append(best.reshape(1, dim))
        for _ in range(2):
            jitter = rng.uniform(-0.05, 0.05, size=dim) * span
            seeds.append(np.clip(best + jitter, lows, highs).reshape(1, dim))
    else:
        # one seed at well-separated top cells, one clustered near the best
        sep = 0.25 * span
        picks = spread_pick(k, sep)
        if len(picks) == k:
            seeds.append(np.array(picks))
        tight = spread_pick(k, 0.08 * span)
        if len(tight) == k:
            seeds.append(np.array(tight))
        if not seeds:
            base = pts[order[0]]
            offs = rng.uniform(-0.2, 0.2, size=(k, dim)) * span
            seeds.append(np.clip(base + offs, lows, highs))
    return seeds


def _c_scale(V: Potential, epsilon: float, region, gs: GroundState,
             n_grid: int = 33) -> float:
    """Magnitude of the reduced gradient, c_* eps max|grad V^theta| on the region."""
    theta = energy_scaling_exponent(gs.params, gs.grid.dim)
    axes = [np.linspace(r[0], r[1], n_grid) for r in region]
    mesh = np.meshgrid(*axes, indexing="ij")
    v = np.asarray(V(*mesh), dtype=float)
    gcomps = V.grad(*mesh)
    gnorm = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in gcomps))
    grad_vtheta = theta * v ** (theta - 1.0) * gnorm
    return float(gs.energy * epsilon * np.max(grad_vtheta))


def critical_point_search(V: Potential, epsilon: float, k: int, region,
                          mode: str, gs: GroundState,
                          mu: float | None = None,
                          c_tol: float | None = None,
                          delta: float = 0.05,
                          r_min: float | None = None,
                          max_steps: int = 24,
                          seed: int = 0) -> SearchOutcome:
    """Find a spike configuration with vanishing multipliers in the region.

    Since grad_xi I = -alpha_ij c_ij / eps, the zeros of c are the critical
    points of I, and c_ij = -eps (grad_xi I)_ij / alpha_ij is the reduced
    gradient scaled by eps; c_tol defaults to 1e-6 c_* eps max|grad V^theta|
    over the region. Seeds come from the asymptotic model; each start runs a
    damped quasi-Newton iteration on q -> c(q) from the model Jacobian
    (_model_jacobian) with good-Broyden updates. When a backtracked step
    fails to lower max|c|, and at the start when V has no Hessian, the
    Jacobian is rebuilt by forward differences (one correction per column);
    the search stops when that one fails too. Corrections start their fixed
    point from the current point's phi; history entries name the Jacobian
    ("model", "broyden" or "fd") of each step. The returned outcome records
    the best iterate even when no start converges; its I_value comes from
    the final iterate's correction.

    region is a list of (lo, hi) intervals per axis in the outer variable
    xi; mode is one of minimize_V, maximize_V, degree_zero_of_gradV.
    """
    if mode not in ("minimize_V", "maximize_V", "degree_zero_of_gradV",
                    "cluster_max"):
        raise ConfigError(f"unknown search mode {mode!r}")
    grid = gs.grid
    if len(region) != grid.dim:
        raise ConfigError(f"region needs {grid.dim} intervals")
    for lo, hi in region:
        if not (lo < hi):
            raise ConfigError(f"empty region interval ({lo}, {hi})")
        if max(abs(lo), abs(hi)) / epsilon > grid.half_width:
            raise ConfigError(
                "region does not fit inside the torus at this epsilon: "
                f"|xi|/eps up to {max(abs(lo), abs(hi)) / epsilon:.1f} vs "
                f"L = {grid.half_width}")
    rng = np.random.default_rng(seed)
    opts = CorrectionOptions(eta=SEARCH_ETA)
    scale = _c_scale(V, epsilon, region, gs)
    if c_tol is None:
        c_tol = max(1e-6 * scale, 1e-10)
    if r_min is None:
        r_min = 4.0

    def make_cfg(xi_pts):
        return SpikeConfig(grid, np.asarray(xi_pts) / epsilon, epsilon,
                           delta=delta, r_min=r_min)

    best = None
    history_all = []
    for si, xi0 in enumerate(_model_seed(V, epsilon, k, region, mode, gs, rng)):
        try:
            outcome = _newton_on_c(V, make_cfg, xi0, epsilon, gs, mu, opts,
                                   c_tol, max_steps, region, mode)
        except (ConfigError, SolverDivergence) as exc:
            log.warning("search start %d failed: %s", si, exc)
            continue
        history_all.extend(outcome.history)
        if best is None or outcome.max_abs_c < best.max_abs_c:
            best = outcome
        if best.converged:
            break
    if best is None:
        raise SolverDivergence("every search start failed")
    best.history = history_all
    best.mode = mode
    best.c_tol = c_tol
    return best


def _newton_on_c(V, make_cfg, xi0, epsilon, gs, mu, opts, c_tol, max_steps,
                 region, mode) -> SearchOutcome:
    """Damped good-Broyden iteration on q -> c(q) from one seed, in xi."""
    grid = gs.grid
    dim = grid.dim
    lows = np.array([r[0] for r in region], dtype=float)
    highs = np.array([r[1] for r in region], dtype=float)
    xi = np.clip(np.asarray(xi0, dtype=float).reshape(-1, dim), lows, highs)
    k = xi.shape[0]
    n = k * dim

    pt = _corrected(V, make_cfg(xi), gs, mu, opts)
    cmax = float(np.max(np.abs(pt.c)))
    history = [{"step": 0, "max_abs_c": cmax,
                "xi": xi.ravel().tolist()}]
    # Jacobian step: small against the region, large against fd noise in c
    hx = max(1e-3 * float(np.min(highs - lows)), 1e-3 * epsilon)
    cap = 0.25 * float(np.min(highs - lows))  # step cap against the region

    def corrected_near(xi_new):
        return _corrected(V, make_cfg(xi_new), gs, mu, opts,
                          phi0=pt.correction.phi)

    def fd_jacobian():
        return np.column_stack([
            (corrected_near(xi + hx * e.reshape(k, dim)).c - pt.c).ravel()
            for e in np.eye(n)]) / hx

    def backtracked_step(J):
        """(xi, point) of the first halving of the step that lowers max|c|."""
        try:
            delta_xi = np.linalg.solve(J, -pt.c.ravel())
        except np.linalg.LinAlgError:
            delta_xi = -pt.c.ravel() * hx / max(cmax, 1e-300)
        dn = float(np.linalg.norm(delta_xi))
        if dn > cap:
            delta_xi *= cap / dn
        t = 1.0
        while t >= 0.0625:
            xi_try = np.clip(xi + t * delta_xi.reshape(k, dim), lows, highs)
            t *= 0.5
            if np.array_equal(xi_try, xi):  # clipped onto xi: same max|c|
                continue
            try:
                pt_try = corrected_near(xi_try)
            except (ConfigError, SolverDivergence):
                continue
            if float(np.max(np.abs(pt_try.c))) < cmax:
                return xi_try, pt_try
        return None

    # without a Hessian the first step refreshes J, like a failed one
    J = _model_jacobian(V, xi, epsilon, gs, pt.alphas) if V.has_hess else None
    kind = "model"
    for step in range(1, max_steps + 1):
        if cmax <= c_tol:
            break
        new = None if J is None else backtracked_step(J)
        if new is None and kind != "fd":
            J, kind = fd_jacobian(), "fd"
            new = backtracked_step(J)
        if new is not None:
            s_xi, y_c = (new[0] - xi).ravel(), (new[1].c - pt.c).ravel()
            if s_xi.any():  # clipping can leave xi where it was
                J = J + np.outer(y_c - J @ s_xi, s_xi) / (s_xi @ s_xi)
            xi, pt = new
            cmax = float(np.max(np.abs(pt.c)))
        history.append({"step": step, "max_abs_c": cmax,
                        "xi": xi.ravel().tolist(), "jacobian": kind})
        if new is None:
            break
        kind = "broyden"

    cfg = make_cfg(xi)
    v_at = np.array([float(V(*x)) for x in cfg.xi])
    return SearchOutcome(q_star=cfg, mode=mode, max_abs_c=cmax,
                         V_at_spikes=v_at, converged=bool(cmax <= c_tol),
                         history=history, I_value=pt.I,
                         correction=pt.correction)


def cluster_search(V: Potential, epsilon: float, k: int, region,
                   gs: GroundState, mu: float | None = None,
                   max_steps: int = 40, seed: int = 0,
                   ascent_tol: float = 1e-4) -> SearchOutcome:
    """Maximize I(q) under the cluster separation floor |xi_i - xi_j| >= eps^(1-s/4).

    Damped quasi-Newton ascent on grad_xi I = -alpha_ij c_ij / eps, read off
    the correction at each trial configuration (one correction per trial).
    The curvature B ~ -hess I starts as the central-difference Hessian of
    asymptotic_energy and takes a BFGS update after each accepted step with
    s.y > 0; while B is not positive definite on the free coordinates the
    step is the gradient direction of length 0.05 span. Coordinates on a
    region bound whose gradient points outward are frozen (active set); a
    step is capped at half the span, shortened to the separation floor, and
    backtracked t = 1, 1/2, ..., 1/16 until I rises. converged means the free
    gradient met |grad| span <= ascent_tol |I|; history entries name each
    step's "kind" ("gradient", "model" or "bfgs"). boundary_stuck reports a
    maximizer pinned on the floor. k = 1 reduces to the maximize mode of
    critical_point_search.
    """
    if k == 1:
        return critical_point_search(V, epsilon, 1, region, "maximize_V",
                                     gs, mu=mu, seed=seed)
    grid = gs.grid
    dim = grid.dim
    floor_xi = epsilon ** (1.0 - gs.params.s / 4.0)
    floor_q = floor_xi / epsilon
    rng = np.random.default_rng(seed)
    opts = CorrectionOptions(eta=SEARCH_ETA)
    lows = np.array([r[0] for r in region], dtype=float)
    highs = np.array([r[1] for r in region], dtype=float)
    pairs = list(itertools.combinations(range(k), 2))

    def spread_to_floor(xi):
        """Scale a seed about its centroid until every pair clears the floor."""
        d = min(float(np.linalg.norm(xi[i] - xi[j])) for i, j in pairs)
        mid = xi.mean(axis=0)
        return np.clip(mid + (xi - mid) * max(1.0, floor_xi / d), lows, highs)

    def floor_fraction(xi, p):
        """Largest t <= 1 keeping every pair of xi + t p on or above the floor."""
        t = 1.0
        for i, j in pairs:
            a, b = xi[i] - xi[j], p[i] - p[j]
            ab, bb = float(a @ b), float(b @ b)
            disc = ab * ab - bb * (float(a @ a) - floor_xi ** 2)
            if ab < 0.0 and disc > 0.0:
                t = min(t, max(0.0, (-ab - np.sqrt(disc)) / bb))
        return t

    def make_cfg(xi):
        return SpikeConfig(grid, xi / epsilon, epsilon, delta=0.05,
                           r_min=0.98 * floor_q)

    def corrected_or_none(xi):
        try:
            return _corrected(V, make_cfg(xi), gs, mu, opts)
        except SolverDivergence:
            return None

    xi = pt = None
    for cand in _model_seed(V, epsilon, k, region, "cluster_max", gs, rng):
        cand = spread_to_floor(np.asarray(cand, dtype=float))
        pt = corrected_or_none(cand)
        if pt is not None:
            xi = cand
            break
    if pt is None:
        raise SolverDivergence("correction diverged at every cluster seed; "
                               "the separation floor admits no tractable "
                               "starting configuration")
    history = [{"step": 0, "I": pt.I, "xi": xi.ravel().tolist()}]
    span = float(np.min(highs - lows))
    B = -_model_hessian(V, xi, epsilon, gs, 1e-3 * span)
    kind = "model"
    converged = False

    for step in range(1, max_steps + 1):
        g = pt.grad.ravel()
        free = ~(((xi <= lows) & (pt.grad < 0))
                 | ((xi >= highs) & (pt.grad > 0))).ravel()
        gn = float(np.linalg.norm(g[free]))
        converged = gn * span <= ascent_tol * max(abs(pt.I), 1e-300)
        if converged:
            break
        p, Bf = np.zeros(g.size), B[np.ix_(free, free)]
        try:
            np.linalg.cholesky(Bf)
            p[free], step_kind = np.linalg.solve(Bf, g[free]), kind
        except np.linalg.LinAlgError:
            p[free], step_kind = 0.05 * span * g[free] / gn, "gradient"
        p *= min(1.0, 0.5 * span / float(np.linalg.norm(p)))
        p = np.clip(xi + p.reshape(k, dim), lows, highs) - xi
        p *= floor_fraction(xi, p)
        new = None
        for t in (1.0, 0.5, 0.25, 0.125, 0.0625):
            xi_try = xi + t * p
            pt_try = None if np.array_equal(xi_try, xi) else \
                corrected_or_none(xi_try)
            if pt_try is not None and pt_try.I > pt.I:
                new = xi_try, pt_try
                break
        if new is not None:
            s, y = (new[0] - xi).ravel(), g - new[1].grad.ravel()
            if s @ y > 0.0:
                Bs = B @ s
                B += np.outer(y, y) / (s @ y) - np.outer(Bs, Bs) / (s @ Bs)
                kind = "bfgs"
            xi, pt = new
        history.append({"step": step, "I": pt.I, "xi": xi.ravel().tolist(),
                        "kind": step_kind})
        if new is None:
            break

    cfg = make_cfg(xi)
    stuck = bool(np.min(cfg.separations()) * epsilon <= 1.02 * floor_xi)
    v_at = np.array([float(V(*x)) for x in cfg.xi])
    return SearchOutcome(q_star=cfg, mode="cluster_max",
                         max_abs_c=float(np.max(np.abs(pt.c))),
                         V_at_spikes=v_at, converged=converged,
                         history=history, boundary_stuck=stuck, I_value=pt.I,
                         c_tol=np.inf, correction=pt.correction)


def brouwer_degree(V: Potential, box, n_samples: int = 64,
                   max_refine: int = 12) -> int:
    """Degree of grad V over a box, for one or two dimensions.

    One dimension: half the sign change of V' across the endpoints. Two
    dimensions: winding number of grad V around the boundary polygon,
    refining adaptively until every angle increment is below pi/4. The
    boundary must keep grad V away from zero; a margin check (smallest
    sampled |grad V| at least ten times the largest change between adjacent
    samples) rejects undecidable boxes.
    """
    arr = np.asarray(box, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, 2)
    box = [tuple(b) for b in arr]
    dim = len(box)
    if dim == 1:
        lo, hi = box[0]
        glo = float(V.grad(lo)[0])
        ghi = float(V.grad(hi)[0])
        if glo == 0.0 or ghi == 0.0:
            raise ConfigError("grad V vanishes at a box endpoint; degree "
                              "undefined")
        return int((np.sign(ghi) - np.sign(glo)) / 2)
    if dim != 2:
        raise ConfigError("degree is implemented for one and two dimensions")

    (x0, x1), (y0, y1) = box

    def boundary_points(per_side):
        ts = np.linspace(0.0, 1.0, per_side, endpoint=False)
        bottom = np.column_stack([x0 + (x1 - x0) * ts, np.full_like(ts, y0)])
        right = np.column_stack([np.full_like(ts, x1), y0 + (y1 - y0) * ts])
        top = np.column_stack([x1 - (x1 - x0) * ts, np.full_like(ts, y1)])
        left = np.column_stack([np.full_like(ts, x0), y1 - (y1 - y0) * ts])
        return np.vstack([bottom, right, top, left])

    per_side = max(8, n_samples // 4)
    for _ in range(max_refine):
        pts = boundary_points(per_side)
        gx, gy = V.grad(pts[:, 0], pts[:, 1])
        gx = np.asarray(gx, dtype=float)
        gy = np.asarray(gy, dtype=float)
        norms = np.hypot(gx, gy)
        if float(np.min(norms)) == 0.0:
            raise ConfigError("grad V vanishes on the box boundary; degree "
                              "undefined")
        ang = np.angle(gx + 1j * gy)
        dang = np.diff(np.concatenate([ang, ang[:1]]))
        dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
        g = np.column_stack([gx, gy])
        jumps = np.abs(np.diff(np.vstack([g, g[:1]]), axis=0)).max(axis=1)
        margin = float(np.min(norms)) >= 10.0 * float(np.max(jumps))
        if np.max(np.abs(dang)) < np.pi / 4.0 and margin:
            winding = float(np.sum(dang)) / (2.0 * np.pi)
            return int(np.rint(winding))
        per_side *= 2
    raise ConfigError(
        "degree did not stabilize: grad V too close to zero on the boundary "
        f"after refining to {per_side} samples per side")

