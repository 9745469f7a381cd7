"""Left-preconditioned restarted GMRES on matrix-free callables.

The solver takes the preconditioned operator M A as one callable, so a
caller that can apply M A more cheaply than M after A (here: T_m L is the
identity plus a multiplication operator behind one resolvent) pays for one
application per Arnoldi step. The algorithm follows scipy's `gmres` (1.17):
Givens rotations on the Hessenberg matrix, an inner test once the
preconditioned residual estimate falls to ptol (rtol * ||M b|| at first),
an outer stop once the true residual ||b - A x|| <= rtol * ||b||, and ptol
adjusted when the two disagree. Unlike scipy, a passed inner test checks the
true residual at once: if it still falls short, ptol is tightened and the
same Krylov basis keeps growing instead of being discarded by a restart, so
iteration counts and iterates no longer replay scipy's exactly. Arnoldi
orthogonalizes by classical Gram-Schmidt with one reorthogonalization (two
matrix-vector passes over the basis rows) instead of a modified
Gram-Schmidt loop over basis vectors.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

Apply = Callable[[np.ndarray], np.ndarray]


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
          restart: int = 20, maxiter: int | None = None) -> GmresResult:
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
    if maxiter is None:
        maxiter = 10 * n
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
                # to the estimate scaled by the observed shortfall, with the
                # tightened safety factor on top
                x_try = x + _step(hess, rhs, col, basis)
                r_try = b - a(x_try)
                rnorm = float(np.linalg.norm(r_try))
                if rnorm <= atol:
                    return GmresResult(x_try, 0, history, r_try)
                ptol_factor = max(eps, 0.25 * ptol_factor)
                ptol = presid * ptol_factor * atol / rnorm

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
