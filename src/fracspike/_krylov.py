"""Left-preconditioned restarted GMRES and the damped Newton loop built on it.

The solver takes the preconditioned operator M A as one callable, so a
caller that can apply M A more cheaply than M after A (here: T_m L is the
identity plus a multiplication operator behind one resolvent) pays for one
application per Arnoldi step. The algorithm follows scipy's `gmres` (1.17):
Givens rotations on the Hessenberg matrix, an inner test once the
preconditioned residual estimate falls to ptol (rtol * ||M b|| at first),
an outer stop once the true residual ||b - A x|| <= rtol * ||b||, and ptol
adjusted when the two disagree. Unlike scipy, a passed inner test checks the
true residual at once: if it still falls short, ptol is tightened by scipy's
cycle-end rule, ptol = presid * min(ptol_factor, atol / ||r||), and the same
Krylov basis keeps growing instead of being discarded by a restart, so
iteration counts and iterates no longer replay scipy's exactly. Arnoldi
orthogonalizes by classical Gram-Schmidt with one reorthogonalization (two
matrix-vector passes over the basis rows) instead of a modified
Gram-Schmidt loop over basis vectors.

Every solve in the package uses one sizing, RESTART vectors and at most
MAX_CYCLES cycles: no solve was measured above 40 iterations, and only the
basis rows an iteration writes become resident.

`newton` is the one damped Newton-Krylov loop: the ground-state polish and
the certificate of the full equation both call it.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, NamedTuple

import numpy as np

log = logging.getLogger(__name__)

Apply = Callable[[np.ndarray], np.ndarray]

RESTART = 150
MAX_CYCLES = 4
# relative tolerance of every projected solve, and the floor of the Newton
# forcing term
KRYLOV_RTOL = 1e-10
NEWTON_MAX_STEPS = 30


class GmresResult(NamedTuple):
    """x; info (0 on convergence, maxiter otherwise, as in scipy); history,
    the preconditioned residual estimate over ||b|| after each Arnoldi step
    (len(history) is the number of Krylov iterations); residual, b - A x as
    last computed."""

    x: np.ndarray
    info: int
    history: list
    residual: np.ndarray


def gmres(ma: Apply, a: Apply, m: Apply, b: np.ndarray,
          x0: np.ndarray | None = None, rtol: float = 1e-5,
          restart: int = RESTART, maxiter: int = MAX_CYCLES) -> GmresResult:
    """Solve A x = b from x0 (default 0).

    ma applies M A, a applies A and m applies M, all on flat vectors.
    maxiter counts restart cycles.
    """
    n = b.size
    history: list[float] = []
    bnrm2 = float(np.linalg.norm(b))
    if bnrm2 == 0.0:
        return GmresResult(np.zeros(n), 0, history, np.zeros(n))
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float).ravel()
    atol = rtol * bnrm2
    eps = np.finfo(float).eps
    restart = min(restart, n)

    r = b - a(x) if x.any() else b
    rnorm = float(np.linalg.norm(r))
    if rnorm < atol:
        return GmresResult(x, 0, history, r)
    mb = m(b)
    ptol_factor = 1.0
    ptol = float(np.linalg.norm(mb)) * min(1.0, rtol)
    basis = np.empty((restart + 1, n))
    hess = np.zeros((restart, restart))  # R of the rotated Hessenberg matrix
    rotations: list[tuple[float, float]] = []
    presid = 0.0
    for _ in range(maxiter):
        z = mb if r is b else m(r)
        znorm = float(np.linalg.norm(z))
        np.multiply(z, 1.0 / znorm, out=basis[0])
        rhs = [znorm]
        rotations.clear()
        breakdown = False
        for col in range(restart):
            w = basis[col + 1]
            w[:] = ma(basis[col])
            h0 = float(np.linalg.norm(w))
            vs = basis[:col + 1]
            hcol = vs @ w
            w -= hcol @ vs
            again = vs @ w
            w -= again @ vs
            hcol += again
            h1 = float(np.linalg.norm(w))
            if h1 <= eps * h0:  # the Krylov space is invariant: exact solve
                h1 = 0.0
                breakdown = True
            else:
                w *= 1.0 / h1
            col_vals = hcol.tolist() + [h1]
            for k, (c, s) in enumerate(rotations):
                hk, hk1 = col_vals[k], col_vals[k + 1]
                col_vals[k] = c * hk + s * hk1
                col_vals[k + 1] = -s * hk + c * hk1
            f, g = col_vals[col], col_vals[col + 1]
            mag = math.hypot(f, g)
            c, s = (f / mag, g / mag) if mag > 0.0 else (1.0, 0.0)
            rotations.append((c, s))
            col_vals[col] = mag
            hess[:col + 1, col] = col_vals[:col + 1]
            rhs[col], tail = c * rhs[col], -s * rhs[col]
            rhs.append(tail)
            presid = abs(tail)
            history.append(presid / bnrm2)
            if breakdown:
                break
            if presid <= ptol and col < restart - 1:
                # inner test passed inside the cycle: check the true residual
                # now and, if it still falls short, keep extending this basis
                # to the tightened ptol
                x_try = x + _step(hess, rhs, col, basis)
                r_try = b - a(x_try)
                rnorm = float(np.linalg.norm(r_try))
                if rnorm <= atol:
                    return GmresResult(x_try, 0, history, r_try)
                ptol_factor = max(eps, 0.25 * ptol_factor)
                ptol = presid * min(ptol_factor, atol / rnorm)

        x += _step(hess, rhs, col, basis)
        r = b - a(x)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # inner test passed, outer did not: tighten
            ptol_factor = max(eps, 0.25 * ptol_factor)
        else:
            ptol_factor = min(1.0, 1.5 * ptol_factor)
        ptol = presid * min(ptol_factor, atol / rnorm)
    return GmresResult(x, 0 if rnorm <= atol else maxiter, history, r)


def _step(hess: np.ndarray, rhs: list, col: int,
          basis: np.ndarray) -> np.ndarray:
    """The least-squares update over the first col + 1 basis vectors, by
    back substitution on R, skipping zero pivots as scipy does."""
    y = np.array(rhs[:col + 1])
    if hess[col, col] == 0.0:
        y[col] = 0.0
    for k in range(col, 0, -1):
        if y[k] != 0.0:
            y[k] /= hess[k, k]
            y[:k] -= y[k] * hess[:k, k]
    if y[0] != 0.0:
        y[0] /= hess[0, 0]
    return y @ basis[:col + 1]


def relative_sup(F: np.ndarray, u: np.ndarray) -> float:
    """max|F| / max|u|: the one residual norm that Newton steps are judged
    by and that profiles and certificates report."""
    return float(np.max(np.abs(F))) / max(float(np.max(np.abs(u))), 1e-300)


def newton(frac, residual: Apply, shift: Apply, u: np.ndarray,
           tol: float) -> tuple[np.ndarray, float, int]:
    """Damped Newton on F(u) = 0, Jacobian J(u) = (-Delta)^s + m + shift(u).

    frac is the caller's `spectral.FracOperator` ((-Delta)^s, m and
    T_m = ((-Delta)^s + m)^(-1)); residual maps u to F(u) and shift maps u
    to the multiplication part of J(u) - (-Delta)^s - m, both on grid-shaped
    arrays. GMRES iterates T_m J = I + T_m (shift .), one FFT pair per
    iteration, and solves each step only as accurately as the next residual
    needs (a forcing term in the sense of Eisenstat & Walker, SIAM J. Sci.
    Comput. 17, 1996): with res = relative_sup(F(u), u), rtol =
    max(KRYLOV_RTOL, min(0.1, res), 0.1 tol / res), so early steps are cheap,
    the rate stays quadratic and the last step aims one decade below tol. A
    step whose solve stops short of rtol is still taken if its true relative
    residual is at most max(1e-6, rtol); otherwise the loop stops. Steps are
    halved down to 1e-4 until the residual decreases, and the loop stops
    when it reaches tol, after NEWTON_MAX_STEPS steps, or when the line
    search fails.

    Returns (u, res, steps) with res the residual of the returned u.
    """
    F = residual(u)
    res = relative_sup(F, u)
    steps = 0
    while res > tol and steps < NEWTON_MAX_STEPS:
        d = shift(u).ravel()
        diag = d + frac.m

        def jmv(v):
            return frac.laplacian(v) + diag * v

        def tjmv(v):
            return v + frac.resolvent(d * v)

        rtol = max(KRYLOV_RTOL, min(0.1, res), 0.1 * tol / res)
        sol = gmres(tjmv, jmv, frac.resolvent, F.ravel(), rtol=rtol)
        if sol.info != 0:
            true_rel = float(np.linalg.norm(sol.residual)) / max(
                float(np.linalg.norm(F)), 1e-300)
            if true_rel > max(1e-6, rtol):
                log.warning("newton: inner gmres stalled (info=%s, relative "
                            "residual %.3e)", sol.info, true_rel)
                break
            log.debug("newton: accepting gmres step at relative residual "
                      "%.3e", true_rel)
        delta = sol.x.reshape(u.shape)
        step = 1.0
        while step > 1e-4:
            u_try = u - step * delta
            F_try = residual(u_try)
            res_try = relative_sup(F_try, u_try)
            if res_try < res:
                u, F, res = u_try, F_try, res_try
                break
            step *= 0.5
        else:
            log.warning("newton: line search failed at residual %.3e", res)
            break
        steps += 1
    return u, res, steps
