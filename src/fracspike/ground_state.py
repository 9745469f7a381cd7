"""Ground-state profiles of (-Delta)^s w + lambda w = w^p and their spectra.

The profile is found by the stabilized fixed-point iteration

    w  <-  S^(p/(p-1)) * ((-Delta)^s + lambda)^(-1) [w^p],
    S  =  <w, ((-Delta)^s + lambda) w> / <w, w^p>,

seeded with a Gaussian. Once an increment falls below NEWTON_HANDOFF = 1e-2
a damped Newton polish takes over; on the 2d 512^2 profile that is 15
fixed-point iterations and 4 Newton steps. Solutions at other lambda come
from the exact scaling w_lambda(x) = lambda^(1/(p-1)) w(lambda^(1/(2s)) x)
applied through band-limited dilation, so the discrete profile is only ever
computed once per (s, p, N) at lambda = 1. The dilated interpolant is
kept only in a window about the core, and the fitted algebraic tail
spliced in outside it; in 2d only one quadrant of that window is
evaluated, and mirrored.

Nondegeneracy (ker L = span{dw/dx_j} for L = (-Delta)^s + lambda - p w^(p-1))
is read off the compact operator K = B^(-1/2) p w^(p-1) B^(-1/2),
B = (-Delta)^s + lambda, since L = B^(1/2) (I - K) B^(1/2). By Sylvester's law
of inertia L and I - K have the same inertia, so the kernel is the set of
kappa = 1 and the Morse index the number of kappa > 1; kappa_1 = p exactly,
with eigenvector B^(1/2) w. By Ostrowski's quantitative form of the law
(Proc. NAS 45, 1959), mu_j(L) = theta_j (1 - kappa_j) with
theta_j >= lambda, which turns the top of K into certified bounds on the
spectrum of L. The expected kernel, B^(1/2) dw/dx_j, is deflated rather
than searched for: its Ritz values come from an N x N compression, and an
in-house Lanczos run (`_krylov.lanczos`) on the rest of K gives kappa_1
and, by Cauchy interlacing, an upper bound on kappa_(N+2). An exactly
degenerate kernel pair, such as the 2d (dw/dx, dw/dy), is thus counted
whatever the Lanczos tolerance. On 2 vCPUs criterion 5's 2d 512^2
spectrum takes 20 Lanczos steps, 96 FFTs and 0.6-0.7 s, with a gap bound
of 0.160 lambda; the 1d cases take 4-6 ms warm and give 0.245 lambda
(s = 0.5, p = 2) and 0.412 lambda (s = 0.75, p = 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from fracspike import kernels
from fracspike import spectral as sp
from fracspike._krylov import (RESIDUAL_TOL, lanczos, newton, norm,
                               relative_sup, residual)
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field, FracParams, Grid

# fixed-point increment below which the Newton polish takes over
NEWTON_HANDOFF = 1e-2
# fixed-point iterations before the profile solve gives up
FIXED_POINT_MAX_ITER = 500
# image shells per axis of the periodic tail that rescale subtracts
TAIL_IMAGES = 3
# Ritz residual bound for kappa_1; the next eigenvalue takes 100 EIG_TOL
EIG_TOL = 1e-10
# Lanczos steps before the spectrum gives up (the 2d 512^2 profile takes 20)
EIG_MAXITER = 100

__all__ = [
    "GroundState",
    "SpectrumSummary",
    "solve_ground_state",
    "rescale",
    "energy",
    "energy_scaling_exponent",
    "decay_fit",
    "linearization_spectrum",
]


@dataclass
class SpectrumSummary:
    """Bounds on the N + 2 lowest eigenvalues mu_j of
    L = (-Delta)^s + lambda - p w^(p-1), from the top kappa_j of K.

    eigenvalues holds lambda (1 - kappa_j), ascending. Each entry has the
    sign of mu_j and |mu_j| >= |entry|: lowest (j = 1, kappa_1 = p) is an
    upper bound on mu_1 < 0, and every entry with kappa_j < 1, the last one
    included, is a lower bound on mu_j. The N kernel entries are the Ritz
    values of K on Y, the orthonormalized B^(1/2) dw/dx_j, each within
    kernel_residual = ||R|| = ||K Y - Y (Y^T K Y)|| of an eigenvalue of K,
    so for them the bounds hold up to lambda ||R||: 1.5e-11 in 1d and
    7.4e-5 on the 2d 512^2 profile, but 0.03 on a 2d grid too coarse to
    resolve the kernel (128^2, L = 10), where they are estimates only.
    kernel_dim counts entries with |lambda (1 - kappa)| at most the
    kernel_tol that `linearization_spectrum` was given.
    kernel_overlap is the Davis-Kahan bound sqrt(1 - (||R|| / delta)^2) on
    the cosine of the largest angle between span Y and the invariant
    subspace of K that those Ritz values approximate, delta their distance
    to kappa_1 and kappa_(N+2); it is 0 when kernel_dim is 0 or
    ||R|| >= delta. spectral_gap, the
    smallest |entry| outside the kernel set, is a lower bound on the true
    gap, lambda min(kappa_1 - 1, 1 - kappa_(N+2)) when kernel_dim = N.
    """

    eigenvalues: np.ndarray
    lowest: float
    kernel_dim: int
    kernel_overlap: float
    spectral_gap: float
    kernel_residual: float


@dataclass
class GroundState:
    """Profile of (-Delta)^s w + lam w = w^p. residual_norm, energy and decay
    (the far-field fit) are None once rescaled to lam != 1: no caller of
    `rescale` reads them, and it reads the lambda = 1 source's fit."""

    grid: Grid
    params: FracParams
    lam: float
    values: np.ndarray
    residual_norm: float | None
    iterations: int
    newton_steps: int
    energy: float | None
    decay: sp.FarFieldFit | None
    source: str = "solve"

    @property
    def field(self) -> Field:
        return Field(self.grid, self.values)


def _relative_residual(op: sp.FracOperator, u: np.ndarray, p: float) -> float:
    """relative_sup of the profile equation's residual, lambda = op.m: the
    certified norm."""
    return relative_sup(residual(op, op.m, u, p), u)


def energy(grid: Grid, params: FracParams, V, values: np.ndarray) -> float:
    """J(v) = 1/2 <v, (-Delta)^s v> + 1/2 int V v^2 - 1/(p+1) int (v_+)^(p+1),
    V a constant lambda (J^lambda; c_* = J^1(w)) or V(eps x) on the grid
    (J_eps; the reduced energy I(q) = J_eps(W_q + Phi(q)))."""
    f = Field(grid, values)
    lap = sp.apply_multiplier(values, grid, grid.symbol(2.0 * params.s))
    kin = 0.5 * sp.inner(f, Field(grid, lap))
    quad = 0.5 * grid.cell_volume * float(np.sum(V * values ** 2))
    nl = grid.cell_volume * float(
        np.sum(kernels.positive_power(values, params.p + 1.0))) / (params.p + 1.0)
    return kin + quad - nl


def energy_scaling_exponent(params: FracParams, dim: int) -> float:
    """theta with J^lambda(w_lambda) = lambda^theta J^1(w)."""
    return (params.p + 1.0) / (params.p - 1.0) - dim / (2.0 * params.s)


def decay_fit(grid: Grid, params: FracParams,
              values: np.ndarray) -> sp.FarFieldFit:
    """Fit the algebraic tail of a profile; target exponent is -(N+2s).

    The window, `spectral.FIT_WINDOW`, comes back in absolute radii;
    `contaminated` is set when the profile is still above 1e-3 of its peak
    at r = L/2.
    """
    r, v = sp.radial_profile(grid, values)
    fit = sp.far_field_fit(r, v, grid.half_width, grid.dim, params.s)
    v_max = float(np.max(np.abs(values)))
    half = np.argmin(np.abs(r - grid.half_width / 2.0))
    fit.contaminated = bool(np.abs(v[half]) > 1e-3 * v_max)
    return fit


def solve_ground_state(grid: Grid, params: FracParams,
                       lam: float = 1.0) -> GroundState:
    """Positive radial profile solving (-Delta)^s w + lambda w = w^p, to a
    relative sup-norm residual of at most RESIDUAL_TOL.

    Raises
    ------
    SolverDivergence
        If FIXED_POINT_MAX_ITER iterations do not reach RESIDUAL_TOL, or the
        stabilizing factor S leaves (0, inf).
    """
    params.check_subcritical(grid.dim)
    if not lam > 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    p, s = params.p, params.s
    op = sp.FracOperator(grid, s, lam)

    coords = grid.coords()
    r2 = sum(c ** 2 for c in coords)
    width = lam ** (-1.0 / (2.0 * s))
    u = 2.0 * lam ** (1.0 / (p - 1.0)) * np.exp(-r2 / width ** 2)

    gamma = p / (p - 1.0)
    res = np.inf
    newton_steps = 0
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        up = kernels.positive_power(u, p)
        Au = op.shifted(u)
        denom = float(np.sum(u * up))
        if denom == 0.0:
            raise SolverDivergence("fixed-point iterate collapsed to zero")
        S = float(np.sum(u * Au)) / denom
        if not (0.0 < S < np.inf):
            raise SolverDivergence(f"stabilizing factor left (0, inf): S = {S}")
        u_new = S ** gamma * op.resolvent(up)
        increment = float(np.max(np.abs(u_new - u)) / np.max(np.abs(u)))
        u = u_new
        res = _relative_residual(op, u, p)
        if res <= RESIDUAL_TOL:
            break
        if increment < NEWTON_HANDOFF:
            u, res, newton_steps, _ = newton(op, lam, p, u)
            break
    if res > RESIDUAL_TOL:
        raise SolverDivergence(
            f"ground state did not reach {RESIDUAL_TOL} (residual "
            f"{res:.3e} after {it} iterations)")

    return GroundState(
        grid=grid, params=params, lam=lam, values=u,
        residual_norm=res, iterations=it, newton_steps=newton_steps,
        energy=energy(grid, params, lam, u),
        decay=decay_fit(grid, params, u),
    )


def _image_tail(decay: sp.FarFieldFit, half: np.ndarray, inside: np.ndarray,
                L: float, dim: int) -> np.ndarray:
    """Estimated wrap-around contribution sum_{k != 0} w(|y - 2Lk|) on the
    quadrant mesh of the per-axis radii half (0 <= half < L), evaluated
    where inside and 0 elsewhere.

    Uses the fitted tail model, two powers per image (`tail_model`), valid
    because the estimate is only consumed at points whose images all sit
    at radius >= 1.5 L, well inside the algebraic regime. In 2d the image
    lattice is symmetric under y0 <-> y1, so only the upper triangle is
    evaluated and mirrored.
    """
    out = np.zeros(inside.shape)
    at = np.nonzero(inside if dim == 1 else np.triu(inside))
    y = [half[i] for i in at]
    vals = np.zeros(y[0].shape)
    for k in itertools.product(range(-TAIL_IMAGES, TAIL_IMAGES + 1),
                               repeat=dim):
        if any(k):
            d = [yj - 2.0 * L * kj for yj, kj in zip(y, k)]
            d = np.abs(d[0]) if dim == 1 else np.hypot(*d)
            vals += decay.tail_model(np.maximum(d, 1e-6))
    out[at] = vals
    if dim == 2:
        out.T[at] = vals
    return out


def _dilate_free_space(gs: GroundState, scale: float) -> np.ndarray:
    """Samples of w(scale * x) for the free-space profile w.

    Band-limited dilation evaluates the periodic interpolant, which for
    scale > 1 wraps compressed copies of the core back into the box (the
    points scale * x sweep several periods). Inside |scale * x| <= 0.4 L the
    interpolant is kept minus the fitted image contribution; beyond 0.5 L the
    fitted algebraic tail takes over, with a cosine blend between. So only
    the window |scale * x_j| < 0.5 L of each axis is dilated (117 of 256
    rows at lambda = 1.1 on L = 20). The profile is even about the node
    x = 0, as `spectral.dilate_even_window` requires, and so is its
    dilation but for the rank-one Nyquist term: in 2d the interpolant is
    evaluated on the window's quadrant x_j <= 0 (59 of its 117 rows,
    against 129 folded columns) and mirrored. The radial parts are
    computed on the quadrant and mirrored too, the image sum only where
    the blend weight is positive and, in 2d, on one side of the diagonal.
    With no finite tail fit (on grids of 64 points per axis or fewer the
    fit window holds too few radial bins), scale <= 1 returns the
    interpolant on every node (`spectral.dilate`, the same even path) and
    scale > 1 raises SolverDivergence.
    """
    grid, L = gs.grid, gs.grid.half_width
    if not np.all(np.isfinite(gs.decay.coefficients)):
        if scale <= 1.0:
            return sp.dilate(gs.field, scale).values
        raise SolverDivergence(
            "rescale to lambda > 1 needs a converged far-field fit on the "
            "source profile to continue the tail across periods")

    def mesh(v):  # per-axis coordinates v as broadcastable grid arrays
        return [v] if grid.dim == 1 else [v[:, None], v[None, :]]

    def mirror(idx):  # node i of every axis reads quadrant node |i - c|
        return np.ix_(*[np.abs(idx - c)] * grid.dim)

    # the radial parts on the nodes c, c - 1, ..., 0 of each axis
    c = grid.points_per_axis // 2  # the node x = 0
    half = np.abs(scale * grid.axis[c::-1])
    lo, hi = 0.40 * L, 0.50 * L
    K = int(np.count_nonzero(half < hi)) - 1
    r = np.sqrt(sum(v ** 2 for v in mesh(half)))
    outer = gs.decay.tail_model(np.maximum(r, 1e-6))
    sigma = 0.5 * (1.0 + np.cos(np.pi * np.clip((r - lo) / (hi - lo), 0.0, 1.0)))
    near = (slice(0, K + 1),) * grid.dim
    tail = _image_tail(gs.decay, half[:K + 1], sigma[near] > 0.0, L, grid.dim)

    # a window wider than the box (scale < 1/2) is clipped to its M nodes
    span = slice(max(c - K, 0), min(c + K + 1, grid.points_per_axis))
    rows = np.arange(span.start, span.stop)
    w = mirror(rows)
    inner = sp.dilate_even_window(gs.field, scale, rows) - tail[w]
    # sigma is exactly 0 outside the window: the fitted tail alone
    out = outer[mirror(np.arange(grid.points_per_axis))]
    out[(span,) * grid.dim] = sigma[w] * inner + (1.0 - sigma[w]) * outer[w]
    return out


def rescale(gs: GroundState, lam_new: float) -> GroundState:
    """Exact scaling to another lambda, w_lam(x) = lam^(1/(p-1)) w(lam^(1/(2s)) x).

    Requires the source profile solved at lambda = 1 and the rescaled core to
    stay resolvable (lambda^(1/(2s)) h <= 0.5). The dilation targets the
    free-space profile: outside the window where the band-limited interpolant
    is trustworthy the fitted algebraic tail is spliced in, so compressing
    (lambda > 1) does not drag periodic images of the core into the box.
    Only the values are computed: residual_norm, energy and decay are None,
    or the source's at lambda = 1.
    """
    if gs.lam != 1.0:
        raise ConfigError("rescale requires a ground state solved at lambda = 1")
    if not lam_new > 0:
        raise ConfigError(f"lambda must be positive, got {lam_new}")
    p, s = gs.params.p, gs.params.s
    scale = lam_new ** (1.0 / (2.0 * s))
    if scale * gs.grid.spacing > 0.5:
        raise ConfigError(
            f"rescaled core unresolvable: lambda^(1/2s) * h = "
            f"{scale * gs.grid.spacing:.3f} > 0.5; use a finer grid")
    same = scale == 1.0
    vals = lam_new ** (1.0 / (p - 1.0)) * (
        gs.values if same else _dilate_free_space(gs, scale))
    return GroundState(
        grid=gs.grid, params=gs.params, lam=lam_new, values=vals,
        residual_norm=gs.residual_norm if same else None,
        iterations=gs.iterations, newton_steps=gs.newton_steps,
        energy=gs.energy if same else None,
        decay=gs.decay if same else None, source="rescale")


def linearization_spectrum(gs: GroundState,
                           kernel_tol: float = 1e-3) -> SpectrumSummary:
    """Inertia and bounds of L from the top of the compact operator K.

    K = B^(-1/2) p w^(p-1) B^(-1/2), B = (-Delta)^s + lambda, costs one FFT
    multiplier sandwich per apply. The translation modes are deflated, not
    searched for: Y, the orthonormalized B^(1/2) dw/dx_j, gives the kernel
    Ritz values as the eigenvalues of H = Y^T K Y, with residual
    R = K Y - Y H. Lanczos on the compression (I - Y Y^T) K (I - Y Y^T),
    from a fixed-seed Gaussian vector that reaches every symmetry sector,
    gives its top two eigenvalues nu_1 and nu_2; nu_1 = kappa_1 = p up to
    the angle between span Y and the kernel, and by Cauchy interlacing
    kappa_(N+2) <= nu_2. SolverDivergence if the Lanczos run does not
    converge.
    """
    grid, params, lam = gs.grid, gs.params, gs.lam
    half = (grid.symbol(2.0 * params.s) + lam) ** -0.5  # B^(-1/2)
    coeff = (params.p * kernels.positive_power(gs.values, params.p - 1.0)).ravel()

    def apply_k(y):
        return sp.apply_multiplier(coeff * sp.apply_multiplier(y, grid, half),
                                   grid, half)

    Y = np.zeros((grid.dim, gs.values.size))

    def project(v):
        return v - np.einsum("ij,i->j", Y, np.einsum("ij,j->i", Y, v))

    for j in range(grid.dim):  # Gram-Schmidt on the rows filled so far
        dw = sp.spectral_derivative(gs.field, j).values
        y = project(sp.apply_multiplier(dw, grid, 1.0 / half).ravel())
        Y[j] = y / norm(y)

    KY = np.array([apply_k(y) for y in Y])
    H = np.einsum("ik,jk->ij", Y, KY)
    H = 0.5 * (H + H.T)
    R = KY - np.einsum("ij,jk->ik", H, Y)
    r_norm = float(np.sqrt(np.max(np.linalg.eigvalsh(
        np.einsum("ik,jk->ij", R, R)))))
    h = np.linalg.eigvalsh(H)

    v0 = project(np.random.default_rng(0).standard_normal(gs.values.size))
    nu = lanczos(lambda v: project(apply_k(v)), v0,
                 (EIG_TOL, 100.0 * EIG_TOL), EIG_MAXITER)
    kappa = np.sort(np.concatenate((nu, h)))[::-1]
    vals = lam * (1.0 - kappa)

    kernel_mask = np.abs(vals) <= kernel_tol
    kernel_dim = int(np.count_nonzero(kernel_mask))
    separation = min(nu[0] - h[-1], h[0] - nu[1])
    kernel_overlap = 0.0
    if kernel_dim and r_norm < separation:
        kernel_overlap = float(np.sqrt(1.0 - (r_norm / separation) ** 2))
    outside = np.abs(vals[~kernel_mask])
    spectral_gap = float(np.min(outside)) if outside.size else np.inf

    return SpectrumSummary(eigenvalues=vals, lowest=float(vals[0]),
                           kernel_dim=kernel_dim, kernel_overlap=kernel_overlap,
                           spectral_gap=spectral_gap, kernel_residual=r_norm)
