"""Ground-state profiles of (-Delta)^s w + lambda w = w^p and their spectra.

The profile is found by the stabilized fixed-point iteration

    w  <-  S^(p/(p-1)) * ((-Delta)^s + lambda)^(-1) [w^p],
    S  =  <w, ((-Delta)^s + lambda) w> / <w, w^p>,

seeded with a Gaussian, followed by a damped Newton polish once the
increments are small. Solutions at other lambda come from the exact scaling
w_lambda(x) = lambda^(1/(p-1)) w(lambda^(1/(2s)) x) applied through
band-limited dilation, so the discrete profile is only ever computed once
per (s, p, N) at lambda = 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh, lobpcg

from fracspike import kernels
from fracspike import spectral as sp
from fracspike._krylov import gmres
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import Field, FracParams, Grid

log = logging.getLogger(__name__)

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
    """Lowest eigenvalues of L = (-Delta)^s + lambda - p w^(p-1).

    kernel_dim counts eigenvalues with |mu| <= kernel_tol; kernel_overlap is
    the smallest correlation of those eigenvectors with the span of the
    translation modes dw/dx_j; spectral_gap is the smallest |mu| outside the
    kernel set.
    """

    eigenvalues: np.ndarray
    lowest: float
    kernel_dim: int
    kernel_overlap: float
    spectral_gap: float
    kernel_tol: float


@dataclass
class GroundState:
    grid: Grid
    params: FracParams
    lam: float
    values: np.ndarray
    residual_norm: float
    iterations: int
    newton_steps: int
    energy: float
    decay: sp.FarFieldFit
    spectrum: SpectrumSummary | None = None
    source: str = "solve"

    @property
    def field(self) -> Field:
        return Field(self.grid, self.values)


def _relative_residual(op: sp.FracOperator, u: np.ndarray, p: float) -> float:
    """max |A u - u^p| / max |u|, A = (-Delta)^s + lambda: the certified norm."""
    return float(np.max(np.abs(op.shifted(u) - _power(u, p)))
                 / np.max(np.abs(u)))


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
                       tol: float = 1e-10, max_iter: int = 500,
                       newton_threshold: float = 1e-6,
                       with_spectrum: bool = False,
                       n_eigs: int = 6) -> GroundState:
    """Positive radial profile solving (-Delta)^s w + lambda w = w^p.

    Parameters
    ----------
    tol : float
        Convergence target for the relative sup-norm equation residual.
    newton_threshold : float
        Fixed-point increment below which the Newton polish takes over.
    with_spectrum : bool
        Also compute the linearization spectrum summary (adds an eigensolve).

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
        if increment < newton_threshold:
            u, residual, newton_steps = _newton_polish(op, p, u, tol)
            break
    if residual > tol:
        raise SolverDivergence(
            f"ground state did not reach tol={tol} (residual {residual:.3e} "
            f"after {it} iterations)")

    gs = GroundState(
        grid=grid, params=params, lam=lam, values=u,
        residual_norm=residual, iterations=it, newton_steps=newton_steps,
        energy=energy(grid, params, lam, u),
        decay=decay_fit(grid, params, u),
    )
    if with_spectrum:
        gs.spectrum = linearization_spectrum(gs, n_eigs=n_eigs)
    return gs


def _newton_polish(op, p, u, tol, max_steps=8):
    """Damped Newton on F(u) = A u - u^p with resolvent-preconditioned GMRES.

    GMRES iterates T J = I - T (p u^(p-1) .), one FFT pair per iteration.
    Every trial is judged by its own relative residual, the norm the fixed
    point reports.
    """
    steps = 0
    res = _relative_residual(op, u, p)
    for _ in range(max_steps):
        if res <= tol:
            break
        F = op.shifted(u) - _power(u, p)
        coeff = (p * _power(u, p - 1.0)).ravel()

        def jmv(v):
            return op.shifted(v) - coeff * v

        def tjmv(v):
            return v - op.resolvent(coeff * v)

        sol = gmres(tjmv, jmv, op.resolvent, F.ravel(), rtol=1e-10,
                    restart=20, maxiter=400)
        if sol.info != 0:
            log.debug("newton polish: gmres info=%s", sol.info)
            break
        delta = sol.x.reshape(u.shape)
        step = 1.0
        while step > 1e-4:
            u_try = u - step * delta
            res_try = _relative_residual(op, u_try, p)
            if res_try < res:
                u, res = u_try, res_try
                break
            step *= 0.5
        else:
            break
        steps += 1
    return u, res, steps


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
    amp = lam_new ** (1.0 / (p - 1.0))
    if scale == 1.0:
        vals = amp * gs.values.copy()
    else:
        vals = amp * _dilate_free_space(gs, scale)

    return GroundState(
        grid=gs.grid, params=gs.params, lam=lam_new, values=vals,
        residual_norm=_relative_residual(sp.FracOperator(gs.grid, s, lam_new),
                                         vals, p), iterations=gs.iterations,
        newton_steps=gs.newton_steps,
        energy=energy(gs.grid, gs.params, lam_new, vals),
        decay=decay_fit(gs.grid, gs.params, vals),
        spectrum=None, source="rescale")


def linearization_spectrum(gs: GroundState, n_eigs: int = 6,
                           kernel_tol: float = 1e-3,
                           tol: float = 1e-9) -> SpectrumSummary:
    """Lowest eigenvalues of the linearized operator, matrix-free.

    ARPACK Lanczos (smallest-algebraic) with the profile as the starting
    vector; falls back to resolvent-preconditioned LOBPCG if ARPACK stalls.
    The translation modes dw/dx_j are computed spectrally and used to
    classify near-zero eigenvectors.
    """
    grid, params = gs.grid, gs.params
    n = gs.values.size
    op = sp.FracOperator(grid, params.s, gs.lam)
    coeff = (params.p * kernels.positive_power(gs.values, params.p - 1.0)).ravel()

    def mv(v):
        v = v.ravel()  # lobpcg passes (n, 1) columns
        return op.shifted(v) - coeff * v

    A = LinearOperator((n, n), matvec=mv, dtype=float)
    # mix the profile with its translation modes so the Krylov space is not
    # confined to the even-symmetry sector (degenerate kernel pairs would be
    # missed from a radial start)
    v0 = gs.values.ravel().copy()
    v0 /= np.linalg.norm(v0)
    for ax in range(grid.dim):
        dw = sp.spectral_derivative(gs.field, ax).values.ravel()
        nrm = np.linalg.norm(dw)
        if nrm > 0:
            v0 += dw / nrm
    v0 /= np.linalg.norm(v0)
    try:
        vals, vecs = eigsh(A, k=n_eigs, which="SA", v0=v0,
                           tol=tol, maxiter=50000,
                           ncv=min(n, max(40, 4 * n_eigs)))
    except Exception as exc:  # ArpackNoConvergence or breakdown
        log.debug("eigsh failed (%s); falling back to lobpcg", exc)
        M = LinearOperator((n, n), matvec=op.resolvent, dtype=float)
        rng = np.random.default_rng(1234)
        cols = [gs.values.ravel()]
        for ax in range(grid.dim):
            cols.append(sp.spectral_derivative(gs.field, ax).values.ravel())
        while len(cols) < max(n_eigs + 2, 8):
            cols.append(rng.normal(size=n))
        X, _ = np.linalg.qr(np.column_stack(cols))
        vals, vecs = lobpcg(A, X[:, :n_eigs + 2], M=M, largest=False,
                            tol=tol, maxiter=4000)
        order = np.argsort(vals)[:n_eigs]
        vals, vecs = vals[order], vecs[:, order]

    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    # orthonormal basis of the translation modes
    dws = np.column_stack(
        [sp.spectral_derivative(gs.field, ax).values.ravel()
         for ax in range(grid.dim)])
    Q, _ = np.linalg.qr(dws)

    kernel_mask = np.abs(vals) <= kernel_tol
    overlaps = []
    for i in np.nonzero(kernel_mask)[0]:
        v = vecs[:, i] / np.linalg.norm(vecs[:, i])
        overlaps.append(float(np.linalg.norm(Q.T @ v)))
    kernel_dim = int(np.count_nonzero(kernel_mask))
    kernel_overlap = min(overlaps) if overlaps else 0.0
    outside = np.abs(vals[~kernel_mask])
    spectral_gap = float(np.min(outside)) if outside.size else np.inf

    return SpectrumSummary(eigenvalues=vals, lowest=float(vals[0]),
                           kernel_dim=kernel_dim, kernel_overlap=kernel_overlap,
                           spectral_gap=spectral_gap, kernel_tol=kernel_tol)
