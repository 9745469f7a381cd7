"""Ground-state profiles of (-Delta)^s w + lambda w = w^p and their spectra.

The profile is found by the stabilized fixed-point iteration

    w  <-  S^(p/(p-1)) * ((-Delta)^s + lambda)^(-1) [w^p],
    S  =  <w, ((-Delta)^s + lambda) w> / <w, w^p>,

seeded with a Gaussian. Once an increment falls below NEWTON_HANDOFF = 1e-2
a damped Newton polish takes over; on the 2d 512^2 profile that is 15
fixed-point iterations and 4 Newton steps. Solutions at other lambda come
from the exact scaling w_lambda(x) = lambda^(1/(p-1)) w(lambda^(1/(2s)) x)
applied through band-limited dilation, so the discrete profile is only ever
computed once per (s, p, N) at lambda = 1.

Nondegeneracy (ker L = span{dw/dx_j} for L = (-Delta)^s + lambda - p w^(p-1))
is read off the compact operator K = B^(-1/2) p w^(p-1) B^(-1/2),
B = (-Delta)^s + lambda, since L = B^(1/2) (I - K) B^(1/2). By Sylvester's law
of inertia L and I - K have the same inertia, so the kernel is the set of
kappa = 1 and the Morse index the number of kappa > 1; kappa_1 = p exactly,
with eigenvector B^(1/2) w. By Ostrowski's quantitative form of the law
(Proc. NAS 45, 1959), mu_j(L) = theta_j (1 - kappa_j) with
theta_j >= lambda, which turns the top of K into certified bounds on the
spectrum of L. The top N + 2 kappa converge in one Lanczos run: criterion 5's
2d 512^2 spectrum takes ~200 FFTs and 1.6-1.9 s on 2 vCPUs (448 FFTs and
11.8-13.0 s on L itself), with a gap bound of 0.160 lambda; the 1d cases
give 0.245 lambda (s = 0.5, p = 2) and 0.412 lambda (s = 0.75, p = 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fracspike import kernels
from fracspike import spectral as sp
from fracspike._krylov import newton, relative_sup
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field, FracParams, Grid

# fixed-point increment below which the Newton polish takes over
NEWTON_HANDOFF = 1e-2
# relative accuracy of the Ritz values of K
EIG_TOL = 1e-10

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


def _power(u: np.ndarray, p: float) -> np.ndarray:
    """u^p, odd-extended for non-integer p so negative undershoots stay finite."""
    if float(p).is_integer():
        return u ** int(p)
    return np.sign(u) * np.abs(u) ** p


@dataclass
class SpectrumSummary:
    """Bounds on the N + 2 lowest eigenvalues mu_j of
    L = (-Delta)^s + lambda - p w^(p-1), from the top kappa_j of K.

    eigenvalues holds lambda (1 - kappa_j), ascending. Each entry has the
    sign of mu_j and |mu_j| >= |entry|: lowest (j = 1, kappa_1 = p) is an
    upper bound on mu_1 < 0, and every entry with kappa_j < 1, the last one
    included, is a lower bound on mu_j. kernel_dim counts entries with
    |lambda (1 - kappa)| <= kernel_tol; kernel_overlap is the smallest
    correlation of their vectors B^(-1/2) y with the span of the translation
    modes dw/dx_j; spectral_gap, the smallest |entry| outside the kernel set,
    is a lower bound on the true gap, lambda min(kappa_1 - 1, 1 - kappa_(N+2))
    when kernel_dim = N.
    """

    eigenvalues: np.ndarray
    lowest: float
    kernel_dim: int
    kernel_overlap: float
    spectral_gap: float
    kernel_tol: float


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
    """max |A u - u^p| / max |u|, A = (-Delta)^s + lambda: the certified norm."""
    return relative_sup(op.shifted(u) - _power(u, p), u)


def energy(grid: Grid, params: FracParams, lam: float, values: np.ndarray) -> float:
    """J^lambda(v) = 1/2 <v, (-Delta)^s v> + lambda/2 <v, v> - 1/(p+1) sum (v_+)^(p+1)."""
    f = Field(grid, values)
    kin = 0.5 * sp.inner(f, sp.fractional_laplacian(f, params))
    quad = 0.5 * lam * sp.inner(f, f)
    pot = grid.cell_volume * float(
        np.sum(kernels.positive_power(values, params.p + 1.0))) / (params.p + 1.0)
    return kin + quad - pot


def energy_scaling_exponent(params: FracParams, dim: int) -> float:
    """theta with J^lambda(w_lambda) = lambda^theta J^1(w)."""
    return (params.p + 1.0) / (params.p - 1.0) - dim / (2.0 * params.s)


def decay_fit(grid: Grid, params: FracParams, values: np.ndarray,
              window: tuple[float, float] = (0.2, 0.4)) -> sp.FarFieldFit:
    """Fit the algebraic tail of a profile; target exponent is -(N+2s).

    The window comes back in absolute radii; `contaminated` is set when the
    profile is still above 1e-3 of its peak at r = L/2.
    """
    r, v = sp.radial_profile(grid, values)
    fit = sp.far_field_fit(r, v, grid.half_width, grid.dim, params.s, window)
    v_max = float(np.max(np.abs(values)))
    half = np.argmin(np.abs(r - grid.half_width / 2.0))
    fit.contaminated = bool(np.abs(v[half]) > 1e-3 * v_max)
    return fit


def solve_ground_state(grid: Grid, params: FracParams, lam: float = 1.0,
                       tol: float = 1e-10, max_iter: int = 500) -> GroundState:
    """Positive radial profile solving (-Delta)^s w + lambda w = w^p.

    Parameters
    ----------
    tol : float
        Convergence target for the relative sup-norm equation residual.

    Raises
    ------
    SolverDivergence
        If the iteration exhausts max_iter without reaching tol, or the
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
    residual = np.inf
    newton_steps = 0
    for it in range(1, max_iter + 1):
        up = _power(u, p)
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
        residual = _relative_residual(op, u, p)
        if residual <= tol:
            break
        if increment < NEWTON_HANDOFF:
            # damped Newton on F(u) = A u - u^p, J = A - p u^(p-1)
            u, residual, newton_steps = newton(
                op, lambda v: op.shifted(v) - _power(v, p),
                lambda v: -p * _power(v, p - 1.0), u, tol)
            break
    if residual > tol:
        raise SolverDivergence(
            f"ground state did not reach tol={tol} (residual {residual:.3e} "
            f"after {it} iterations)")

    return GroundState(
        grid=grid, params=params, lam=lam, values=u,
        residual_norm=residual, iterations=it, newton_steps=newton_steps,
        energy=energy(grid, params, lam, u),
        decay=decay_fit(grid, params, u),
    )


def _image_tail(decay: sp.FarFieldFit, coords: list[np.ndarray], L: float,
                dim: int, n_images: int = 3) -> np.ndarray:
    """Estimated wrap-around contribution sum_{k != 0} w(|y - 2Lk|).

    Uses the fitted tail model, valid because the estimate is only consumed
    at points whose images all sit at radius >= 1.5 L, well inside the
    algebraic regime.
    """
    out = np.zeros(np.broadcast_shapes(*(c.shape for c in coords)))
    rng = range(-n_images, n_images + 1)
    if dim == 1:
        y = coords[0]
        for k in rng:
            if k != 0:
                out += decay.tail_model(np.maximum(np.abs(y - 2.0 * L * k), 1e-6))
    else:
        y0, y1 = coords
        for k0 in rng:
            for k1 in rng:
                if k0 == 0 and k1 == 0:
                    continue
                d = np.hypot(y0 - 2.0 * L * k0, y1 - 2.0 * L * k1)
                out += decay.tail_model(np.maximum(d, 1e-6))
    return out


def _dilate_free_space(gs: GroundState, scale: float) -> np.ndarray:
    """Samples of w(scale * x) for the free-space profile w.

    Band-limited dilation evaluates the periodic interpolant, which for
    scale > 1 wraps compressed copies of the core back into the box (the
    points scale * x sweep several periods). Inside |scale * x| <= 0.4 L the
    interpolant is kept minus the fitted image contribution; beyond 0.5 L the
    fitted algebraic tail takes over, with a cosine blend between.
    """
    grid = gs.grid
    L = grid.half_width
    w_t = sp.dilate(gs.field, scale).values
    coords = [scale * c for c in grid.coords()]
    y_r = np.sqrt(sum(c ** 2 for c in coords))
    lo, hi = 0.40 * L, 0.50 * L
    sigma = 0.5 * (1.0 + np.cos(np.pi * np.clip((y_r - lo) / (hi - lo), 0.0, 1.0)))
    if not np.all(np.isfinite(gs.decay.coefficients)):
        if scale <= 1.0:
            return w_t
        raise SolverDivergence(
            "rescale to lambda > 1 needs a converged far-field fit on the "
            "source profile to continue the tail across periods")
    # sigma is exactly 0 beyond 0.5 L: sum the image tail only where it is not
    near = sigma > 0.0
    inner = np.zeros(grid.shape)
    inner[near] = w_t[near] - _image_tail(
        gs.decay, [np.broadcast_to(c, grid.shape)[near] for c in coords], L,
        grid.dim)
    outer = gs.decay.tail_model(np.maximum(y_r, 1e-6))
    return sigma * inner + (1.0 - sigma) * outer


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

    One ARPACK Lanczos run (largest-algebraic) on
    K = B^(-1/2) p w^(p-1) B^(-1/2), B = (-Delta)^s + lambda, from a start
    vector that mixes the profile with its translation modes so the Krylov
    space is not confined to the even-symmetry sector. A degenerate kernel
    pair enters the Krylov space only through rounding, which the tight
    EIG_TOL leaves time for. Each apply of K is one FFT multiplier sandwich.
    The kernel vectors B^(-1/2) y are compared with the translation modes
    dw/dx_j. SolverDivergence if ARPACK fails.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    grid, params, lam = gs.grid, gs.params, gs.lam
    n = gs.values.size
    half = (grid.symbol(2.0 * params.s) + lam) ** -0.5  # B^(-1/2)
    coeff = (params.p * kernels.positive_power(gs.values, params.p - 1.0)).ravel()

    def mv(y):
        return sp.apply_multiplier(coeff * sp.apply_multiplier(y, grid, half),
                                   grid, half)

    dws = np.column_stack(
        [sp.spectral_derivative(gs.field, ax).values.ravel()
         for ax in range(grid.dim)])
    v0 = (gs.values.ravel() / np.linalg.norm(gs.values)
          + np.sum(dws / np.linalg.norm(dws, axis=0), axis=1))
    try:
        kappa, Y = eigsh(LinearOperator((n, n), matvec=mv, dtype=float),
                         k=grid.dim + 2, which="LA", v0=v0, tol=EIG_TOL)
    except ArpackError as exc:
        raise SolverDivergence(f"linearization spectrum: {exc}") from exc
    order = np.argsort(kappa)[::-1]
    vals, Y = lam * (1.0 - kappa[order]), Y[:, order]

    Q, _ = np.linalg.qr(dws)  # orthonormal basis of the translation modes
    kernel_mask = np.abs(vals) <= kernel_tol
    overlaps = []
    for i in np.nonzero(kernel_mask)[0]:
        v = sp.apply_multiplier(Y[:, i], grid, half)
        overlaps.append(float(np.linalg.norm(Q.T @ v) / np.linalg.norm(v)))
    kernel_dim = int(np.count_nonzero(kernel_mask))
    kernel_overlap = min(overlaps) if overlaps else 0.0
    outside = np.abs(vals[~kernel_mask])
    spectral_gap = float(np.min(outside)) if outside.size else np.inf

    return SpectrumSummary(eigenvalues=vals, lowest=float(vals[0]),
                           kernel_dim=kernel_dim, kernel_overlap=kernel_overlap,
                           spectral_gap=spectral_gap, kernel_tol=kernel_tol)
