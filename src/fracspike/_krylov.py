"""Preconditioned MINRES and the damped Newton loop built on it.

Every system the package solves is self-adjoint: the reduction is
variational, so L_W, its Galerkin projection P L_W P on span{Z}^perp and
the Newton Jacobian J are symmetric, and the preconditioner T_m =
((-Delta)^s + m)^(-1) is symmetric positive definite. `minres` is the
short-recurrence MINRES of Paige & Saunders (SIAM J. Numer. Anal. 12, 1975)
as scipy's `minres` (1.17) writes it, so a solve holds a fixed handful of
vectors however many iterations it takes.

The preconditioner is fused with the operator: precond(r) returns the
pair (z, A z), z = M r. Each Lanczos vector is a multiple of some M r, so
its image under A is already in hand, and an iteration costs one
preconditioner call (one FFT pair, plus whatever A adds to M r without a
transform) and nothing else; A itself is applied only for the true
residual. z need only agree with M r up to the null space of A: the
projected solve passes z = T_m r for M = P T_m P, since A = P L_W P
annihilates span{Z}, and the iterates then differ from those of the
projected preconditioner by span{Z} parts that A never sees.

The stop rule is that of scipy's GMRES, ||b - A x|| <= atol, checked
whenever the residual estimate meets ptol (at first atol); a failed check
sets ptol = presid * min(ptol_factor, atol / ||r||) with ptol_factor
quartered, and the recurrence goes on. The estimate is the M-norm of the
residual that MINRES tracks, scaled by the ratio of the 2-norm to the
M-norm of the initial residual. By default atol = rtol ||b||. A caller
that iterates on the solution, such as the inexact Newton steps of
`correction.nonlinear_correction`, passes reduce > 0 for atol =
max(rtol ||b||, reduce ||r0||), r0 = b - A x0 the residual of its warm
start: the solve then removes a fixed share of the error it starts with,
and rtol ||b|| stays the floor (a start already below it returns at once).
That caller also knows A x0 from its previous solve, moved to the step's
operator without a transform, and passes r0 so that the start costs no
application of A.

Inner products run on `np.einsum`, not BLAS: OpenBLAS threads a dot product
above ~10^4 elements, its threads spin between calls, and the last digits
of a threaded sum depend on the thread count.

`residual` is the one equation, F(u) = (-Delta)^s u + V u - u_+^p, and
`newton` the one damped Newton-Krylov loop on it: the ground-state polish
(V = lambda) and the certificate of the full equation (V = V(eps x)) both
call it. `lanczos` finds the top of a symmetric spectrum for
`ground_state.linearization_spectrum`; it keeps its whole basis and
reorthogonalizes each new vector against it, so a run of a few dozen steps
holds a few dozen vectors.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from fracspike import kernels
from fracspike.errors import SolverDivergence

log = logging.getLogger(__name__)

Apply = Callable[[np.ndarray], np.ndarray]
Precond = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# no solve was measured above 40 iterations
MAXITER = 600
# relative tolerance of every projected solve, and the floor of the Newton
# forcing term
KRYLOV_RTOL = 1e-10
NEWTON_MAX_STEPS = 30


class KrylovResult(NamedTuple):
    """x; info (0 on convergence, maxiter otherwise, as in scipy); history,
    the residual estimate over ||b|| after each iteration (len(history) is
    the number of Krylov iterations); residual, b - A x as last computed;
    atol, the bound on ||residual|| that the solve aimed at; start,
    ||b - A x0||, the residual norm it started from."""

    x: np.ndarray
    info: int
    history: list
    residual: np.ndarray
    atol: float
    start: float


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """The Euclidean inner product of two arrays of one shape, off BLAS."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def norm(a: np.ndarray) -> float:
    return math.sqrt(dot(a, a))


def minres(apply: Apply, precond: Precond, b: np.ndarray,
           x0: np.ndarray | None = None, rtol: float = 1e-5,
           maxiter: int = MAXITER, reduce: float = 0.0,
           r0: np.ndarray | None = None) -> KrylovResult:
    """Solve A x = b, A = apply symmetric, from x0 (default 0).

    precond(r) returns (z, A z) with z = M r for a symmetric positive
    definite M, up to the null space of A. All maps act on flat vectors;
    apply returns a fresh array, which the true residual overwrites, and
    each pair from precond is fresh too, since the recurrence scales A z
    in place and then uses it as scratch. maxiter counts iterations. r0,
    when the caller already knows b - A x0, saves the transform pair of
    computing it: the solve takes the array over as one of its two
    residual vectors. The solve stops at
    ||b - A x|| <= max(rtol ||b||, reduce ||b - A x0||).
    """
    n = b.size
    history: list[float] = []
    bnrm2 = norm(b)
    if bnrm2 == 0.0:
        return KrylovResult(np.zeros(n), 0, history, np.zeros(n), 0.0, 0.0)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float).ravel()
    atol = rtol * bnrm2
    eps = np.finfo(float).eps

    def residual(x):  # b - A x, over apply's fresh array
        r = apply(x)
        np.subtract(b, r, out=r)
        return r

    if r0 is not None:
        r2 = r0.ravel()
    else:
        r2 = residual(x) if x.any() else b.copy()
    rnorm = start = norm(r2)
    if rnorm < atol:
        return KrylovResult(x, 0, history, r2, atol, start)
    atol = max(atol, reduce * rnorm)
    y, ay = precond(r2)
    beta = math.sqrt(dot(r2, y))
    scale = rnorm / beta  # M-norm estimates to the 2-norm
    ptol_factor, ptol = 1.0, atol
    oldb = dbar = epsln = 0.0
    phibar, cs, sn = beta, -1.0, 0.0
    # the next residual overwrites r1 and the two swap, so r0, when given,
    # serves the whole solve; v and the spent A y double as scratch
    r1, v, w, w2 = np.empty(n), np.empty(n), np.zeros(n), np.zeros(n)
    for itn in range(1, maxiter + 1):
        np.multiply(y, 1.0 / beta, out=v)
        ay *= 1.0 / beta  # A v
        if itn > 1:
            r1 *= -beta / oldb
            r1 += ay
        else:
            r1[...] = ay
        alfa = dot(v, r1)
        np.multiply(r2, alfa / beta, out=ay)
        r1 -= ay
        r1, r2 = r2, r1
        del y, ay  # spent: the preconditioner may reuse their memory
        y, ay = precond(r2)
        oldb, beta = beta, math.sqrt(max(dot(r2, y), 0.0))
        # previous rotation, then the one that annihilates beta
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w_k = (v - oldeps w_(k-2) - delta w_(k-1)) / gamma over w_(k-2)
        w, w2 = w2, w
        w *= -oldeps
        w += v
        np.multiply(w2, delta, out=v)
        w -= v
        w *= 1.0 / gamma
        np.multiply(w, phi, out=v)
        x += v
        presid = phibar * scale
        history.append(presid / bnrm2)
        if presid <= ptol or beta == 0.0:
            r = residual(x)
            rnorm = norm(r)
            if rnorm <= atol or beta == 0.0:  # beta = 0: invariant space
                break
            ptol_factor = max(eps, 0.25 * ptol_factor)
            ptol = presid * min(ptol_factor, atol / rnorm)
    else:
        r = residual(x)
        rnorm = norm(r)
    return KrylovResult(x, 0 if rnorm <= atol else maxiter, history, r, atol,
                        start)


def lanczos(apply: Apply, v0: np.ndarray, tols: Sequence[float],
            maxiter: int) -> np.ndarray:
    """The len(tols) largest eigenvalues of a symmetric map, descending.

    Lanczos from v0 with full reorthogonalization (classical Gram-Schmidt,
    twice, on einsum); the j-th largest Ritz value theta_j is accepted once
    its residual ||A x_j - theta_j x_j|| = beta_k |s_kj| is at most
    tols[j]. Eigenvalues whose eigenspace is orthogonal to v0 are never
    seen, and an exactly degenerate eigenvalue shows once: deflating known
    eigenvectors is the caller's, by projecting them out of v0 and of what
    apply returns. Raises SolverDivergence if maxiter steps do not
    converge.
    """
    k = len(tols)
    basis = np.empty((maxiter, v0.size))
    basis[0] = v0.ravel() / norm(v0)
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(maxiter):
        V = basis[:j + 1]
        w = apply(V[j])
        h = np.zeros(j + 1)
        for _ in range(2):
            c = np.einsum("ij,j->i", V, w)
            w -= np.einsum("ij,i->j", V, c)
            h += c
        alpha.append(h[j])
        b = norm(w)
        theta, S = np.linalg.eigh(
            np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        residuals = b * np.abs(S[-1, ::-1][:k])
        if j + 1 >= k and np.all(residuals <= tols):
            return theta[::-1][:k]
        if b == 0.0 or j + 1 == maxiter:
            break
        beta.append(b)
        np.multiply(w, 1.0 / b, out=basis[j + 1])
    raise SolverDivergence(
        f"lanczos: top {k} Ritz values not converged after {j + 1} steps "
        f"(residuals {residuals.tolist()}, tolerances {list(tols)})")


# relative_sup at which a profile or a Newton certificate counts as solved
RESIDUAL_TOL = 1e-10


def relative_sup(F: np.ndarray, u: np.ndarray) -> float:
    """max|F| / max|u|: the one residual norm that Newton steps are judged
    by and that profiles and certificates report."""
    return float(np.max(np.abs(F))) / max(float(np.max(np.abs(u))), 1e-300)


def residual(frac, V, u: np.ndarray, p: float) -> np.ndarray:
    """F(u) = (-Delta)^s u + V u - u_+^p for grid-shaped u, frac the
    `spectral.FracOperator` of (-Delta)^s and V a constant lambda or V(eps x)
    on the grid."""
    return frac.laplacian(u) + V * u - kernels.positive_power(u, p)


def _jacobian(frac, d: np.ndarray):
    """J = (-Delta)^s + m + (d .) on flat vectors, as MINRES's apply and
    its preconditioner pair (t, J t), t = T_m r, J t = r + d t. d is held,
    not copied, so a caller that moves it in place moves J."""
    def apply(v):
        out = frac.shifted(v)
        out += d * v
        return out

    def pair(r):
        t = frac.resolvent(r)
        jt = d * t
        jt += r
        return t, jt

    return apply, pair


def newton(frac, V, p: float,
           u: np.ndarray) -> tuple[np.ndarray, float, int, float]:
    """Damped Newton on F(u) = `residual`(frac, V, u, p) = 0 from u.

    frac is the caller's `spectral.FracOperator` ((-Delta)^s, m and
    T_m = ((-Delta)^s + m)^(-1)) and V a constant or V(eps x) on the grid.
    The Jacobian J(u) = (-Delta)^s + V - p u_+^(p-1) is
    T_m^(-1) + (shift .), shift = V - m - p u_+^(p-1), and MINRES solves it
    preconditioned by T_m, whose pair (t, J t) = (T_m r, r + shift t) costs
    one FFT pair per iteration. Each step is solved only as accurately as
    the next residual needs (a forcing term in the sense of Eisenstat &
    Walker, SIAM J. Sci. Comput. 17, 1996): with
    res = relative_sup(F(u), u), rtol = max(KRYLOV_RTOL, min(0.1, res),
    0.1 RESIDUAL_TOL / res), so early steps are cheap, the rate stays
    quadratic and the last step aims a decade below RESIDUAL_TOL. A step
    short of rtol is still taken if its true relative residual is at most
    max(1e-6, rtol); otherwise the loop stops. Steps are halved down to 1e-4
    until the residual decreases, and the loop stops at RESIDUAL_TOL, after
    NEWTON_MAX_STEPS steps, or when the line search fails.

    Returns (u, res, steps, res0) with res the residual of the returned u
    and res0 that of the seed.
    """
    F = residual(frac, V, u, p)
    res = res0 = relative_sup(F, u)
    steps = 0
    while res > RESIDUAL_TOL and steps < NEWTON_MAX_STEPS:
        d = (V - frac.m - p * kernels.positive_power(u, p - 1.0)).ravel()
        rtol = max(KRYLOV_RTOL, min(0.1, res), 0.1 * RESIDUAL_TOL / res)
        sol = minres(*_jacobian(frac, d), F.ravel(), rtol=rtol)
        if sol.info != 0:
            true_rel = norm(sol.residual) / max(norm(F), 1e-300)
            if true_rel > max(1e-6, rtol):
                log.warning("newton: inner minres stalled (info=%s, relative "
                            "residual %.3e)", sol.info, true_rel)
                break
            log.debug("newton: accepting minres step at relative residual "
                      "%.3e", true_rel)
        delta = sol.x.reshape(u.shape)
        step = 1.0
        while step > 1e-4:
            u_try = u - step * delta
            F_try = residual(frac, V, u_try, p)
            res_try = relative_sup(F_try, u_try)
            if res_try < res:
                u, F, res = u_try, F_try, res_try
                break
            step *= 0.5
        else:
            log.warning("newton: line search failed at residual %.3e", res)
            break
        steps += 1
    return u, res, steps, res0
