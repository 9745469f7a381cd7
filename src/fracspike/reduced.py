"""Reduced energy, its asymptotic model, and the critical-point searches.

The reduced energy I(q) is the full energy functional evaluated on the
corrected ansatz W_q + Phi(q). Its gradient is carried by the multipliers
of the same correction, grad_xi I = -alpha_ij c_ij / eps (alpha_ij =
||Z_ij||^2, xi = eps q), so its critical points are exactly the
configurations where all c_ij vanish. Every search step therefore costs one
correction per configuration it visits. Minima, saddles and cluster maxima
all come from one quasi-Newton driver on xi -> c (_quasi_newton); only the
merit differs: critical_point_search accepts a trial when max|c| falls,
cluster_search when I rises. The asymptotic model c_* sum V^theta(xi_i) -
(1/2) sum_{i!=j} c_ij |q_i-q_j|^{-(N+2s)} supplies cheap seeds and, by
central differences, the Hessian every search starts from; its constants
were validated against measured overlap integrals (the pair factor 1/2 and
the lambda exponents empirically, see tests).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from fracspike import kernels
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import (CorrectionOptions, CorrectionResult,
                                  nonlinear_correction)
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field
from fracspike.ground_state import (GroundState, energy,
                                    energy_scaling_exponent)
from fracspike.potentials import Potential

log = logging.getLogger(__name__)

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

SEARCH_ETA = 0.5  # fixed-point gate during searches; default 0.1 is for end use
SEARCH_DELTA = 0.05  # SpikeConfig.delta of every configuration a search visits
CLUSTER_MAX_STEPS = 40  # quasi-Newton steps of the cluster ascent
CLUSTER_ASCENT_TOL = 1e-4  # cluster converges at |grad I| span <= tol |I|
REGION_SCAN = 33  # lattice points per axis for the model seeds and c_tol
SEARCH_MAX_STEPS = 24  # quasi-Newton steps of each critical-point start
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
    trial's correction, or the refresh, raised, e.g. on the eta gate);
    "box_frozen" (every coordinate sits on a region bound with its gradient
    pointing out, a maximizer of I on the box, so converged is True); or
    "max_steps". history holds one {step, I, max_abs_c, xi, kind} entry per
    step of every start, kind naming the step: "start", "model", "secant",
    "fd" or "gradient"."""

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
    at cfg, gated at SEARCH_ETA. phi0 starts the fixed point from a nearby
    configuration's correction. Raises SolverDivergence when the correction
    does not converge.
    """
    bundle = build_ansatz(V, cfg, gs)
    corr = nonlinear_correction(V, cfg, bundle,
                                CorrectionOptions(eta=SEARCH_ETA), phi0=phi0)
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


def region_lattice(region, n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The lattice of n points per axis over region, a (lo, hi) interval per
    axis: its meshgrid (indexing "ij") and its points, one row each."""
    mesh = np.meshgrid(*(np.linspace(lo, hi, n) for lo, hi in region),
                       indexing="ij")
    return mesh, np.column_stack([m.ravel() for m in mesh])


def _model_seed(V: Potential, epsilon: float, k: int, region, mode: str,
                gs: GroundState, rng: np.random.Generator) -> list[np.ndarray]:
    """Seed configurations (in xi) from the asymptotic model over the region.

    Single spikes seed at extrema of V^theta on a region scan plus a few
    random perturbations. Multi-spike seeds place spikes at the k best
    distinct scan cells (minimize/maximize) and then relax the model energy
    by coordinate descent on the scan lattice.
    """
    dim = gs.grid.dim
    lows = np.array([r[0] for r in region], dtype=float)
    highs = np.array([r[1] for r in region], dtype=float)
    mesh, pts = region_lattice(region, REGION_SCAN)
    if mode == "degree_zero_of_gradV":
        gcomps = V.grad(*mesh)
        score = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in gcomps))
    else:
        score = np.asarray(V(*mesh), dtype=float)
    order = np.argsort(score.ravel())
    if mode == "maximize_V":
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


def _c_scale(V: Potential, epsilon: float, region, gs: GroundState) -> float:
    """Magnitude of the reduced gradient, c_* eps max|grad V^theta| on the region."""
    theta = energy_scaling_exponent(gs.params, gs.grid.dim)
    mesh, _ = region_lattice(region, REGION_SCAN)
    v = np.asarray(V(*mesh), dtype=float)
    gcomps = V.grad(*mesh)
    gnorm = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in gcomps))
    grad_vtheta = theta * v ** (theta - 1.0) * gnorm
    return float(gs.energy * epsilon * np.max(grad_vtheta))


def critical_point_search(V: Potential, epsilon: float, k: int, region,
                          mode: str, gs: GroundState, *,
                          seed: int = 0) -> SearchOutcome:
    """Find a spike configuration with vanishing multipliers in the region.

    Since grad_xi I = -alpha_ij c_ij / eps, the zeros of c are the critical
    points of I, and c_ij = -eps (grad_xi I)_ij / alpha_ij is the reduced
    gradient scaled by eps; c_tol is C_TOL_SCALE c_* eps max|grad V^theta|
    over the region. Seeds come from the asymptotic model, clipped to the
    region; a seed that clips onto an earlier one is skipped. Each start runs
    _quasi_newton with max|c| as its merit for up to SEARCH_MAX_STEPS steps;
    the search stops at the first converged start. The returned outcome is
    the start with the lowest max|c| even when none converges, with the
    history of every start. Configurations have delta = SEARCH_DELTA and
    SpikeConfig's r_min = 4.

    region is a list of (lo, hi) intervals per axis in the outer variable
    xi; mode is one of minimize_V, maximize_V, degree_zero_of_gradV.
    """
    if mode not in ("minimize_V", "maximize_V", "degree_zero_of_gradV"):
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
    c_tol = max(C_TOL_SCALE * _c_scale(V, epsilon, region, gs), 1e-10)
    lows, highs = (np.array(b, dtype=float) for b in zip(*region))

    def make_cfg(xi_pts):
        return SpikeConfig(grid, np.asarray(xi_pts) / epsilon, epsilon,
                           delta=SEARCH_DELTA)

    best = None
    history_all, started = [], []
    for si, xi0 in enumerate(_model_seed(V, epsilon, k, region, mode, gs, rng)):
        xi0 = np.clip(xi0, lows, highs)
        if any(np.array_equal(xi0, x) for x in started):
            continue
        started.append(xi0)
        try:
            outcome = _quasi_newton(V, gs, make_cfg, xi0, lows, highs,
                                    ascent=False, tol=c_tol,
                                    max_steps=SEARCH_MAX_STEPS)
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
                  ascent: bool, tol: float, max_steps: int,
                  floor: float = 0.0) -> SearchOutcome:
    """Damped quasi-Newton iteration on xi -> c from one start, in xi.

    J, the Jacobian of xi -> c, starts as -(eps/alpha) times _model_hessian
    and takes a good-Broyden update after each accepted step. The step solves
    J p = -c on the free coordinates; since J = -diag(eps/alpha) hess I this
    is also the Newton step on I. The merit decides what a trial must do:
    max|c| falls (ascent False, converged at max|c| <= tol), or I rises
    (ascent True, converged at |grad I| span <= tol |I| on the free
    coordinates). Under the I merit a trial after a model, secant or fd step
    is also accepted when it lowers max|c| on the free coordinates, since
    near the maximizer the computed I cannot resolve the step; a step that is
    not an ascent direction is replaced by a gradient step of 0.05 span, and
    a coordinate on a region bound whose gradient points outward is frozen.
    Every step is capped at a quarter span and shortened to the separation
    floor; the trials xi + t p, t = 1, 1/2, ..., 1/16, are clipped to the
    region (and kept on the floor), and one equal to xi or already corrected
    in this step costs no correction. When the line search fails, J is
    refreshed by forward differences (one correction per free coordinate)
    and the step retried once, unless every trial's correction raised (the
    search then stops with corrections_failed). Trials start their fixed
    point from the current phi. Raises SolverDivergence or ConfigError when
    the start itself cannot be corrected.
    """
    cfg = make_cfg(xi)
    epsilon = cfg.epsilon
    pt = reduced_energy(V, cfg, gs)
    n = xi.size
    span = float(np.min(highs - lows))
    hx = max(1e-3 * span, 1e-3 * epsilon)  # small against the region
    J = -(epsilon / pt.alphas.reshape(n, 1)) * _model_hessian(V, xi, epsilon,
                                                              gs, hx)

    def entry(step, kind):
        return {"step": step, "I": pt.I,
                "max_abs_c": float(np.max(np.abs(pt.c))),
                "xi": xi.ravel().tolist(), "kind": kind}

    def near(xi_new):
        return reduced_energy(V, make_cfg(xi_new), gs, pt.correction.phi)

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

    history = [entry(0, "start")]
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
    return SearchOutcome(q_star=cfg, mode="", max_abs_c=history[-1]["max_abs_c"],
                         V_at_spikes=np.array([float(V(*x)) for x in cfg.xi]),
                         converged=converged, history=history, I_value=pt.I,
                         correction=pt.correction, stop=stop)


def cluster_search(V: Potential, epsilon: float, k: int, region,
                   gs: GroundState, *, seed: int = 0) -> SearchOutcome:
    """Maximize I(q) under the cluster separation floor |xi_i - xi_j| >= eps^(1-s/4).

    The first model seed, spread about its centroid to clear the floor, whose
    correction converges starts _quasi_newton with I as its merit: steps on
    grad_xi I = -alpha_ij c_ij / eps, read off the correction at each trial,
    from the central-difference Hessian of asymptotic_energy, with the region
    bounds as an active set and steps shortened to the floor. converged means
    the free gradient met |grad| span <= CLUSTER_ASCENT_TOL |I| within
    CLUSTER_MAX_STEPS steps; stop says why the ascent ended otherwise.
    boundary_stuck reports a maximizer pinned on the floor. k = 1 reduces to
    the maximize mode of critical_point_search.
    """
    if k == 1:
        return critical_point_search(V, epsilon, 1, region, "maximize_V",
                                     gs, seed=seed)
    grid = gs.grid
    floor_xi = epsilon ** (1.0 - gs.params.s / 4.0)
    rng = np.random.default_rng(seed)
    lows, highs = (np.array(b, dtype=float) for b in zip(*region))

    def make_cfg(xi):
        return SpikeConfig(grid, xi / epsilon, epsilon, delta=SEARCH_DELTA,
                           r_min=0.98 * floor_xi / epsilon)

    for cand in _model_seed(V, epsilon, k, region, "maximize_V", gs, rng):
        d = min(float(np.linalg.norm(cand[i] - cand[j]))
                for i, j in itertools.combinations(range(k), 2))
        mid = cand.mean(axis=0)
        xi = np.clip(mid + (cand - mid) * max(1.0, floor_xi / d), lows, highs)
        try:
            out = _quasi_newton(V, gs, make_cfg, xi, lows, highs,
                                ascent=True, tol=CLUSTER_ASCENT_TOL,
                                max_steps=CLUSTER_MAX_STEPS, floor=floor_xi)
            break
        except SolverDivergence:
            continue
    else:
        raise SolverDivergence("correction diverged at every cluster seed; "
                               "the separation floor admits no tractable "
                               "starting configuration")
    out.mode, out.c_tol = "cluster_max", np.inf
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

