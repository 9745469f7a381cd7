"""Reduced energy, its asymptotic model, and the critical-point searches.

The reduced energy I(q) is the full energy functional evaluated on the
corrected ansatz W_q + Phi(q). Its gradient is carried by the multipliers
of the same correction, grad_xi I = -alpha_ij c_ij / eps (alpha_ij =
||Z_ij||^2, xi = eps q), so its critical points are exactly the
configurations where all c_ij vanish. Every search step therefore costs one
correction per configuration it visits. Minima, saddles and cluster maxima
all come from one quasi-Newton driver on xi -> c (_quasi_newton); only the
merit differs: critical_point_search accepts a trial when max|c| falls,
cluster_search when I rises. Under the max|c| merit a trial's correction
takes one Newton step from the carried phi (the start two, from 0), since
c barely feels an error in phi (correction module docstring); only one
that meets c_tol, or does not contract, runs until its error estimate
meets CORRECTION_TOL. The
asymptotic model c_* sum V^theta(xi_i) -
(1/2) sum_{i!=j} c_ij |q_i-q_j|^{-(N+2s)} costs no correction; its
constants were validated against measured overlap integrals (the pair
factor 1/2 and the lambda exponents empirically, see tests). Each search
makes one start, at the best cells of a region scan of V. Where the model
Hessian there lacks the inertia of the critical point sought, damped Newton
steps on the model move the start to a model critical point of that
inertia; its model Hessian, by central differences, is the search's first
Jacobian. Only a diverging correction refuses a configuration, not ||E||_Y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from fracspike import kernels
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import (CorrectionOptions, CorrectionResult,
                                  nonlinear_correction)
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field, Grid
from fracspike.ground_state import (GroundState, energy,
                                    energy_scaling_exponent)
from fracspike.potentials import Potential

__all__ = [
    "ReducedPoint",
    "SearchOutcome",
    "reduced_energy",
    "energy_with_potential",
    "asymptotic_energy",
    "interaction_constants",
    "critical_point_search",
    "cluster_search",
    "brouwer_degree",
]

SEARCH_DELTA = 0.05  # SpikeConfig.delta of every configuration a search visits
CLUSTER_MAX_STEPS = 40  # quasi-Newton steps of the cluster ascent
CLUSTER_ASCENT_TOL = 1e-4  # cluster converges at |grad I| span <= tol |I|
REGION_SCAN = 33  # lattice points per axis for the search start and c_tol
SEARCH_MAX_STEPS = 24  # quasi-Newton steps of a critical-point search
C_TOL_SCALE = 1e-6  # c_tol over the reduced-gradient scale of _c_scale
DEGREE_PER_SIDE = 16  # 2d degree: boundary samples per side at first
DEGREE_MAX_REFINE = 12  # 2d degree: doublings of those samples


# ground_state's J, under the name perfbench counts reduced energy evaluations
# by; cache.load and solve_ground_state call it as `energy`, uncounted
energy_with_potential = energy


@dataclass
class SearchOutcome:
    """Result of one search. stop says why its iteration ended:
    "converged"; "line_search_failed" (no trial met the merit, before or
    after the forward-difference refresh of J); "corrections_failed" (every
    trial's correction, or the refresh, diverged);
    "box_frozen" (every coordinate sits on a region bound with its gradient
    pointing out, a maximizer of I on the box, so converged is True); or
    "max_steps". history holds one {step, I, max_abs_c, xi, kind} entry per
    step of the search's one start, the start included, kind naming the
    step: "start" (the region-scan start) or "model_start" (the start
    relaxed on the model energy), then "model", "secant", "fd" or
    "gradient". correction is the correction at q_star: within
    CORRECTION_TOL by its error estimate when the search converged, and
    otherwise, for
    critical_point_search, the last accepted point's as the search took it,
    cut after one Newton step (two at the start) unless that step did not
    contract."""

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
    stop: str = ""

    @property
    def xi_star(self) -> np.ndarray:
        return self.q_star.xi


def interaction_constants(gs: GroundState, lambdas) -> np.ndarray:
    """Pairwise constants c_ij = c0 * lambda_i^alpha * lambda_j^beta.

    c0 = A * h^N int w^p with A the tail amplitude of the lambda = 1
    profile's decay fit; alpha and beta are the tail and mass scaling
    exponents of the rescaled profiles.
    """
    return _scaled_constants(gs, _profile_constant(gs), lambdas)


def _profile_constant(gs: GroundState) -> float:
    """c0 of interaction_constants, which depends on the profile alone."""
    if not np.isfinite(gs.decay.amplitude) or gs.decay.amplitude <= 0:
        raise ConfigError("interaction constants need a valid decay fit")
    return gs.decay.amplitude * gs.grid.cell_volume * float(
        np.sum(kernels.positive_power(gs.values, gs.params.p)))


def _scaled_constants(gs: GroundState, c0: float, lambdas) -> np.ndarray:
    p, s = gs.params.p, gs.params.s
    dim = gs.grid.dim
    alpha = 1.0 / (p - 1.0) - (dim + 2.0 * s) / (2.0 * s)
    beta = p / (p - 1.0) - dim / (2.0 * s)
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
    return _model_energy(V, xi_list, epsilon, gs, None)


def _model_energy(V: Potential, xi_list, epsilon: float, gs: GroundState,
                  c0: float | None) -> float:
    """asymptotic_energy, given c0 of interaction_constants (None: computed
    here when there is a pair)."""
    xi = np.asarray(xi_list, dtype=float).reshape(-1, gs.grid.dim)
    theta = energy_scaling_exponent(gs.params, gs.grid.dim)
    lam = np.array([float(V(*x)) for x in xi])
    if np.any(lam <= 0):
        raise ConfigError("V must be positive at every spike position")
    c_star = gs.energy
    total = c_star * float(np.sum(lam ** theta))
    if xi.shape[0] > 1:
        cij = _scaled_constants(gs, _profile_constant(gs) if c0 is None
                                else c0, lam)
        beta_exp = gs.grid.dim + 2.0 * gs.params.s
        for i, j in itertools.combinations(range(xi.shape[0]), 2):
            d = float(np.linalg.norm(xi[i] - xi[j])) / epsilon
            if d == 0.0:
                raise ConfigError("coincident spike positions in the model")
            total -= 0.5 * (cij[i, j] + cij[j, i]) / d ** beta_exp
    return total


class ReducedPoint(NamedTuple):
    """The reduced energy I at one configuration, its multipliers c and
    gradient grad_xi I, the correction, and alpha_ij = ||Z_ij||^2."""

    I: float
    c: np.ndarray
    grad: np.ndarray
    correction: CorrectionResult
    alphas: np.ndarray


def reduced_energy(V: Potential, cfg: SpikeConfig, gs: GroundState,
                   phi0: Field | None = None) -> ReducedPoint:
    """I(q) = J_eps(W_q + Phi(q)) with its multipliers and gradient.

    The gradient with respect to the outer positions is the multiplier
    estimate grad_xi I = -alpha_ij c_ij / eps: moving q_ij shifts W_q along
    -Z_ij, the corrected equation leaves the residual sum c_ij Z_ij, and
    xi = eps q contributes the 1/eps. It needs no correction beyond the one
    at cfg, whatever its ||E||_Y. phi0 starts the fixed point from a nearby
    configuration's correction. Raises SolverDivergence when the correction
    does not converge.
    """
    return _corrected(V, build_ansatz(V, cfg, gs), gs, phi0)


def _corrected(V: Potential, bundle, gs: GroundState, phi0: Field | None,
               steps: int = 0, c_tol: float = 0.0) -> ReducedPoint:
    """reduced_energy at the configuration of an ansatz already built; steps
    and c_tol cut the correction as nonlinear_correction's _steps and
    _c_tol do (0: run until its error estimate meets CORRECTION_TOL)."""
    cfg = bundle.cfg
    corr = nonlinear_correction(V, cfg, bundle,
                                CorrectionOptions(eta=np.inf), phi0=phi0,
                                _steps=steps, _c_tol=c_tol)
    if not corr.converged:
        raise SolverDivergence(f"correction diverged at centers "
                               f"{cfg.centers.tolist()}")
    u = bundle.W.values + corr.phi.values
    I_val = energy_with_potential(cfg.grid, gs.params, bundle.V_grid, u)
    return ReducedPoint(I_val, corr.c, -bundle.alphas * corr.c / cfg.epsilon,
                        corr, bundle.alphas)


def _model_hessian(V: Potential, xi: np.ndarray, epsilon: float,
                   gs: GroundState, h: float) -> np.ndarray:
    """Central-difference Hessian of asymptotic_energy in the flattened xi."""
    E, H = h * np.eye(xi.size), np.empty((xi.size, xi.size))
    c0 = _profile_constant(gs) if xi.size > gs.grid.dim else None

    def f(d):
        return _model_energy(V, xi.ravel() + d, epsilon, gs, c0)

    for i, j in itertools.combinations_with_replacement(range(xi.size), 2):
        H[i, j] = H[j, i] = (f(E[i] + E[j]) - f(E[i] - E[j])
                             - f(E[j] - E[i]) + f(-E[i] - E[j])) / (4 * h * h)
    return H


def _has_inertia(H: np.ndarray, mode: str) -> bool:
    """Whether a model Hessian has the inertia of the mode's critical points:
    positive definite (minimize_V), indefinite (degree_zero_of_gradV) or
    negative definite (maximize_V, cluster_max)."""
    ev = np.linalg.eigvalsh(H)
    if mode == "minimize_V":
        return bool(ev[0] > 0.0)
    if mode == "degree_zero_of_gradV":
        return bool(ev[0] < 0.0 < ev[-1])
    return bool(ev[-1] < 0.0)


def _model_relax(V: Potential, gs: GroundState, xi: np.ndarray, epsilon: float,
                 lows: np.ndarray, highs: np.ndarray, mode: str, floor: float,
                 h: float, max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(xi, _model_hessian there) after at most max_steps damped Newton steps
    on the central-difference gradient g of asymptotic_energy, from xi.

    With H = Q Lambda Q^T, minima and maxima take the saddle-free steps
    -+Q |Lambda|^-1 Q^T g, halved until the model energy falls (rises); the
    saddle mode takes plain Newton steps -H^-1 g. Each step is clipped to
    the region and shortened to the separation floor. The relaxation stops
    at a step below 1e-9 of the region's shortest span, or at a singular H.
    """
    c0 = _profile_constant(gs) if xi.shape[0] > 1 else None
    E = h * np.eye(xi.size)
    span = float(np.min(highs - lows))
    sign = {"minimize_V": -1.0, "degree_zero_of_gradV": 0.0}.get(mode, 1.0)

    def f(x):
        return _model_energy(V, x, epsilon, gs, c0)

    H = _model_hessian(V, xi, epsilon, gs, h)
    for _ in range(max_steps):
        g = np.array([f(xi.ravel() + e) - f(xi.ravel() - e)
                      for e in E]) / (2.0 * h)
        lam, Q = np.linalg.eigh(H)
        w = -sign * np.abs(lam) if sign else lam
        with np.errstate(all="ignore"):
            p = -(Q @ ((Q.T @ g) / w)).reshape(xi.shape)
        if not np.all(np.isfinite(p)):
            break
        f0, t = f(xi), 1.0
        while True:
            d = np.clip(xi + t * p, lows, highs) - xi
            d *= _floor_fraction(xi, d, floor)
            if np.linalg.norm(d) < 1e-9 * span:
                return xi, H
            if not sign or sign * (f(xi + d) - f0) > 0.0:
                break
            t *= 0.5
        xi = xi + d
        H = _model_hessian(V, xi, epsilon, gs, h)
    return xi, H


def _model_start(V: Potential, gs: GroundState, make_cfg, xi: np.ndarray,
                 lows: np.ndarray, highs: np.ndarray, mode: str, floor: float,
                 h: float, max_steps: int):
    """(xi, _model_hessian at xi, the ansatz at xi, history kind) of a
    search's start. The lattice start stays ("start") when its model Hessian
    has the mode's inertia, or when no Hessian of its size can have it (the
    saddle mode's indefinite inertia needs two coordinates, so one spike in
    1d keeps its |grad V| lattice cell); otherwise _model_relax moves it,
    and the relaxed point is kept ("model_start") when its model Hessian has
    that inertia and its ansatz builds."""
    epsilon = make_cfg(xi).epsilon
    H = _model_hessian(V, xi, epsilon, gs, h)
    if not _has_inertia(H, mode) and (mode != "degree_zero_of_gradV"
                                      or xi.size > 1):
        try:
            xi_m, H_m = _model_relax(V, gs, xi, epsilon, lows, highs, mode,
                                     floor, h, max_steps)
            if _has_inertia(H_m, mode):
                return (xi_m, H_m, build_ansatz(V, make_cfg(xi_m), gs),
                        "model_start")
        except ConfigError:
            pass
    return xi, H, build_ansatz(V, make_cfg(xi), gs), "start"


def region_lattice(region, n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The lattice of n points per axis over region, a (lo, hi) interval per
    axis: its meshgrid (indexing "ij") and its points, one row each."""
    mesh = np.meshgrid(*(np.linspace(lo, hi, n) for lo, hi in region),
                       indexing="ij")
    return mesh, np.column_stack([m.ravel() for m in mesh])


def _model_seed(V: Potential, k: int, region, mode: str) -> np.ndarray:
    """The lattice start of a search: k spike positions (rows, in xi).

    Scores the REGION_SCAN lattice over the region by V, or by |grad V| in
    the degree_zero_of_gradV mode, and takes the k best cells (highest for
    maximize_V, lowest otherwise) at least 0.25 of the region's shortest
    span apart, or 0.08 of it when 0.25 cannot place k. ConfigError when
    neither can. _model_start relaxes it on the model energy where its
    model Hessian lacks the mode's inertia.
    """
    mesh, pts = region_lattice(region, REGION_SCAN)
    if mode == "degree_zero_of_gradV":
        gcomps = V.grad(*mesh)
        score = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in gcomps))
    else:
        score = np.asarray(V(*mesh), dtype=float)
    order = np.argsort(score.ravel())
    if mode == "maximize_V":
        order = order[::-1]
    span = min(hi - lo for lo, hi in region)
    for sep in (0.25 * span, 0.08 * span):
        chosen = []
        for idx in order:
            if all(np.linalg.norm(pts[idx] - y) >= sep for y in chosen):
                chosen.append(pts[idx])
                if len(chosen) == k:
                    return np.array(chosen)
    raise ConfigError(f"the region scan cannot place {k} spikes at least "
                      f"{0.08 * span:g} apart")


def _c_scale(V: Potential, epsilon: float, region, gs: GroundState) -> float:
    """Magnitude of the reduced gradient, c_* eps max|grad V^theta| on the region."""
    theta = energy_scaling_exponent(gs.params, gs.grid.dim)
    mesh, _ = region_lattice(region, REGION_SCAN)
    v = np.asarray(V(*mesh), dtype=float)
    gcomps = V.grad(*mesh)
    gnorm = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in gcomps))
    grad_vtheta = theta * v ** (theta - 1.0) * gnorm
    return float(gs.energy * epsilon * np.max(grad_vtheta))


def _region_bounds(region, epsilon: float,
                   grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(lows, highs) of a search region, one (lo, hi) interval in xi per
    axis. ConfigError unless it has grid.dim nonempty intervals that fit
    inside the torus at epsilon, |xi| / epsilon <= L."""
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
    return tuple(np.array(b, dtype=float) for b in zip(*region))


def critical_point_search(V: Potential, epsilon: float, k: int, region,
                          mode: str, gs: GroundState) -> SearchOutcome:
    """Find a spike configuration with vanishing multipliers in the region.

    Since grad_xi I = -alpha_ij c_ij / eps, the zeros of c are the critical
    points of I, and c_ij = -eps (grad_xi I)_ij / alpha_ij is the reduced
    gradient scaled by eps; c_tol is C_TOL_SCALE c_* eps max|grad V^theta|
    over the region. One run of _quasi_newton, with max|c| as its merit for
    up to SEARCH_MAX_STEPS steps, starts at _model_seed, relaxed by
    _model_start to a model minimum, maximum or saddle where the lattice
    start's model Hessian is not positive definite, negative definite or
    indefinite; its ConfigError or SolverDivergence propagates when the
    start cannot be corrected. No 1x1 Hessian is indefinite, so for one
    spike in 1d the saddle mode keeps its lattice start and finds the
    critical point of V nearest the |grad V| lattice cell, whatever its
    kind (on double_well(1, 1) over (-0.6, 1.7), V's minimum: xi* = 1.008).
    Configurations have delta = SEARCH_DELTA and SpikeConfig's r_min = 4.

    region is a list of (lo, hi) intervals per axis in the outer variable
    xi; mode is one of minimize_V, maximize_V, degree_zero_of_gradV.
    """
    if mode not in ("minimize_V", "maximize_V", "degree_zero_of_gradV"):
        raise ConfigError(f"unknown search mode {mode!r}")
    grid = gs.grid
    lows, highs = _region_bounds(region, epsilon, grid)
    c_tol = max(C_TOL_SCALE * _c_scale(V, epsilon, region, gs), 1e-10)

    def make_cfg(xi_pts):
        return SpikeConfig(grid, np.asarray(xi_pts) / epsilon, epsilon,
                           delta=SEARCH_DELTA)

    out = _quasi_newton(V, gs, make_cfg, _model_seed(V, k, region, mode),
                        lows, highs, mode=mode, tol=c_tol,
                        max_steps=SEARCH_MAX_STEPS)
    out.c_tol = c_tol
    return out


def _floor_fraction(xi: np.ndarray, p: np.ndarray, floor: float) -> float:
    """Largest t <= 1 keeping every pair of xi + t p on or above the floor."""
    t = 1.0
    for i, j in itertools.combinations(range(xi.shape[0]), 2):
        a, b = xi[i] - xi[j], p[i] - p[j]
        ab, bb = float(a @ b), float(b @ b)
        disc = ab * ab - bb * (float(a @ a) - floor ** 2)
        if ab < 0.0 and disc > 0.0:
            t = min(t, max(0.0, (-ab - np.sqrt(disc)) / bb))
    return t


def _quasi_newton(V: Potential, gs: GroundState, make_cfg,
                  xi: np.ndarray, lows: np.ndarray, highs: np.ndarray, *,
                  mode: str, tol: float, max_steps: int,
                  floor: float = 0.0) -> SearchOutcome:
    """Damped quasi-Newton iteration on xi -> c from one start, in xi.

    The start is _model_start's, from xi. J, the Jacobian of xi -> c,
    starts as -(eps/alpha) times _model_hessian there and takes a
    good-Broyden update after each accepted step. The step solves
    J p = -c on the free coordinates; since J = -diag(eps/alpha) hess I this
    is also the Newton step on I. The mode's merit decides what a trial must
    do: max|c| falls (minimize_V, maximize_V, degree_zero_of_gradV;
    converged at max|c| <= tol), or I rises (cluster_max; converged at
    |grad I| span <= tol |I| on the free coordinates). Under the I merit a
    trial after a model, secant or fd step is also accepted when it lowers
    max|c| on the free coordinates, since near the maximizer the computed I
    cannot resolve the step; a step that is not an ascent direction is
    replaced by a gradient step of 0.05 span, and a coordinate on a region
    bound whose gradient points outward is frozen.
    Every step is capped at a quarter span and shortened to the separation
    floor; the trials xi + t p, t = 1, 1/2, ..., 1/16, are clipped to the
    region (and kept on the floor), and one equal to xi or already corrected
    in this step costs no correction. When the line search fails, J is
    refreshed by forward differences (one correction per free coordinate)
    and the step retried once, unless every trial's correction raised (the
    search then stops with corrections_failed). Trials start their fixed
    point from the current phi. Raises SolverDivergence or ConfigError when
    the start itself cannot be corrected.
    Under the max|c| merit every correction, the refresh's included, is cut
    after one Newton step (two at the start, which has no phi to carry;
    one from phi = 0 mis-steers the first step) unless that step does not
    contract or meets tol: nonlinear_correction's _steps and _c_tol. A
    converged outcome's correction is therefore within CORRECTION_TOL by
    its error estimate, and an
    unconverged one keeps its last accepted point's as it was taken. The I
    merit keeps full corrections.
    """
    epsilon = make_cfg(xi).epsilon
    ascent = mode == "cluster_max"
    n = xi.size
    span = float(np.min(highs - lows))
    hx = max(1e-3 * span, 1e-3 * epsilon)  # small against the region
    steps = 0 if ascent else 1  # Newton steps of a trial's correction
    xi, H, bundle, start_kind = _model_start(V, gs, make_cfg, xi, lows,
                                             highs, mode, floor, hx, max_steps)
    pt = _corrected(V, bundle, gs, None, 2 * steps, tol)
    del bundle  # not held past its correction
    J = -(epsilon / pt.alphas.reshape(n, 1)) * H

    def entry(step, kind):
        return {"step": step, "I": pt.I,
                "max_abs_c": float(np.max(np.abs(pt.c))),
                "xi": xi.ravel().tolist(), "kind": kind}

    def near(xi_new):
        return _corrected(V, build_ansatz(V, make_cfg(xi_new), gs), gs,
                          pt.correction.phi, steps, tol)

    def line_search(J, kind, free, tried):
        """(xi, point, kind, every trial raised) of the first accepted trial."""
        g, c = pt.grad.ravel(), pt.c.ravel()
        p = np.zeros(n)
        try:
            p[free] = np.linalg.solve(J[np.ix_(free, free)], -c[free])
        except np.linalg.LinAlgError:
            kind = "gradient"
        if kind == "gradient" or (ascent and not p @ g > 0.0):
            p[free] = 0.05 * span * g[free] / np.linalg.norm(g[free])
            kind = "gradient"
        p *= min(1.0, 0.25 * span / max(float(np.linalg.norm(p)), 1e-300))
        p *= _floor_fraction(xi, p.reshape(xi.shape), floor)
        c_free = float(np.max(np.abs(c[free])))
        trials = raised = 0
        for t in (1.0, 0.5, 0.25, 0.125, 0.0625):
            d = np.clip(xi + t * p.reshape(xi.shape), lows, highs) - xi
            xi_try = xi + _floor_fraction(xi, d, floor) * d
            key = xi_try.tobytes()
            if np.array_equal(xi_try, xi) or key in tried:
                continue
            tried.add(key)
            trials += 1
            try:
                trial = near(xi_try)
            except (ConfigError, SolverDivergence):
                raised += 1
                continue
            lower_c = float(np.max(np.abs(trial.c.ravel()[free]))) < c_free
            if (trial.I > pt.I or (kind != "gradient" and lower_c)
                    if ascent else lower_c):
                return xi_try, trial, kind, False
        return None, None, kind, trials > 0 and raised == trials

    def refresh(J, free):
        """J with its free columns replaced by forward differences of c."""
        J = J.copy()
        for col in np.flatnonzero(free):
            e = np.zeros(n)
            e[col] = hx
            J[:, col] = (near(xi + e.reshape(xi.shape)).c - pt.c).ravel() / hx
        return J

    history = [entry(0, start_kind)]
    kind = "model"
    for step in itertools.count(1):
        free = np.ones(n, dtype=bool)
        if ascent:
            free = ~(((xi <= lows) & (pt.grad < 0))
                     | ((xi >= highs) & (pt.grad > 0))).ravel()
            converged = float(np.linalg.norm(pt.grad.ravel()[free])) * span \
                <= tol * max(abs(pt.I), 1e-300)
        else:
            converged = float(np.max(np.abs(pt.c))) <= tol
        if not free.any() or converged or step > max_steps:
            stop = "box_frozen" if not free.any() else \
                "converged" if converged else "max_steps"
            break
        tried = set()
        xi_new, pt_new, step_kind, raised = line_search(J, kind, free, tried)
        if xi_new is None and kind != "fd" and not raised:
            try:
                J, kind = refresh(J, free), "fd"
            except (ConfigError, SolverDivergence):
                raised = True
            else:
                xi_new, pt_new, step_kind, raised = line_search(J, kind, free,
                                                                tried)
        if xi_new is not None:
            s, y = (xi_new - xi).ravel(), (pt_new.c - pt.c).ravel()
            J = J + np.outer(y - J @ s, s) / (s @ s)
            xi, pt = xi_new, pt_new
        history.append(entry(step, step_kind))
        if xi_new is None:
            stop = "corrections_failed" if raised else "line_search_failed"
            break
        kind = "secant"

    cfg = make_cfg(xi)
    return SearchOutcome(q_star=cfg, mode=mode, max_abs_c=history[-1]["max_abs_c"],
                         V_at_spikes=np.array([float(V(*x)) for x in cfg.xi]),
                         converged=converged, history=history, I_value=pt.I,
                         correction=pt.correction, stop=stop)


def cluster_search(V: Potential, epsilon: float, k: int, region,
                   gs: GroundState) -> SearchOutcome:
    """Maximize I(q) under the cluster separation floor |xi_i - xi_j| >= eps^(1-s/4).

    The maximize_V lattice seed, spread about its centroid to clear the
    floor, and relaxed by _model_start to a model maximizer above the floor
    where its model Hessian is not negative definite (for the criterion-12
    bump, from (0, -0.75) to +-0.2282), starts one run of _quasi_newton
    with I as its merit: steps on
    grad_xi I = -alpha_ij c_ij / eps, read off the correction at each trial,
    from the central-difference Hessian of asymptotic_energy, with the region
    bounds as an active set and steps shortened to the floor. converged means
    the free gradient met |grad| span <= CLUSTER_ASCENT_TOL |I| within
    CLUSTER_MAX_STEPS steps; stop says why the ascent ended otherwise, and a
    start that cannot be corrected raises. boundary_stuck reports a
    maximizer pinned on the floor. k = 1 reduces to the maximize mode of
    critical_point_search.
    """
    if k == 1:
        return critical_point_search(V, epsilon, 1, region, "maximize_V", gs)
    grid = gs.grid
    lows, highs = _region_bounds(region, epsilon, grid)
    floor_xi = epsilon ** (1.0 - gs.params.s / 4.0)

    def make_cfg(xi):
        return SpikeConfig(grid, xi / epsilon, epsilon, delta=SEARCH_DELTA,
                           r_min=0.98 * floor_xi / epsilon)

    start = _model_seed(V, k, region, "maximize_V")
    d = min(float(np.linalg.norm(start[i] - start[j]))
            for i, j in itertools.combinations(range(k), 2))
    mid = start.mean(axis=0)
    xi = np.clip(mid + (start - mid) * max(1.0, floor_xi / d), lows, highs)
    out = _quasi_newton(V, gs, make_cfg, xi, lows, highs, mode="cluster_max",
                        tol=CLUSTER_ASCENT_TOL, max_steps=CLUSTER_MAX_STEPS,
                        floor=floor_xi)
    out.c_tol = np.inf
    out.boundary_stuck = bool(np.min(out.q_star.separations()) * epsilon
                              <= 1.02 * floor_xi)
    return out


def brouwer_degree(V: Potential, box) -> int:
    """Degree of grad V over a box, for one or two dimensions.

    One dimension: half the sign change of V' across the endpoints. Two
    dimensions: winding number of grad V around the boundary polygon,
    from DEGREE_PER_SIDE samples per side, doubled up to DEGREE_MAX_REFINE
    times until every angle increment is below pi/4. The boundary must keep
    grad V away from zero; a margin check (smallest sampled |grad V| at
    least ten times the largest change between adjacent samples) rejects
    undecidable boxes.
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

    per_side = DEGREE_PER_SIDE
    for _ in range(DEGREE_MAX_REFINE):
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

