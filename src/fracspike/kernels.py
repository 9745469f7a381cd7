"""Pointwise array kernels of the solver: the spike weight, the nonlinearity,
its remainder and the remainder's derivative, the ansatz error, periodic
local maxima, radial binning and the median.

BACKEND names the implementation; the benchmark records it with each run.
"""

import numpy as np

BACKEND = "numpy"


def _periodic_abs(delta, L):
    # wrap a signed displacement into [-L, L) and take |.|
    return np.abs(np.mod(delta + L, 2.0 * L) - L)


def rho_field_1d(x, centers, mu, L):
    """sum_j (1 + |x - q_j|)^(-mu) with periodic distance, 1d grid."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for c in np.atleast_1d(np.asarray(centers, dtype=float)).ravel():
        out += (1.0 + _periodic_abs(x - c, L)) ** (-mu)
    return out


def rho_field_2d(x, centers, mu, L):
    """sum_j (1 + |x - q_j|)^(-mu) with periodic distance, 2d tensor grid."""
    x = np.asarray(x, dtype=float)
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    out = np.zeros((x.size, x.size))
    for cx, cy in centers:
        dx = _periodic_abs(x - cx, L)[:, None]
        dy = _periodic_abs(x - cy, L)[None, :]
        out += (1.0 + np.sqrt(dx * dx + dy * dy)) ** (-mu)
    return out


def positive_power(u, p):
    """(u_+)^p, the nonlinearity of the positive-part formulation."""
    return np.maximum(np.asarray(u, dtype=float), 0.0) ** p


def nonlinear_remainder(W, phi, p):
    """(W + phi)_+^p - (W_+)^p - p (W_+)^(p-1) phi.

    The quadratic-and-higher part of the nonlinearity around the ansatz W;
    W is clamped so fractional powers never see negative bases.
    """
    Wp = np.maximum(np.asarray(W, dtype=float), 0.0)
    phi = np.asarray(phi, dtype=float)
    return (np.maximum(Wp + phi, 0.0) ** p
            - Wp ** p
            - p * Wp ** (p - 1.0) * phi)


def nonlinear_derivative(W, phi, p):
    """p (W_+ + phi)_+^(p-1) - p (W_+)^(p-1), the derivative of
    `nonlinear_remainder` in phi: the change in the linearized
    nonlinearity p u_+^(p-1) from u = W to u = W + phi."""
    Wp = np.maximum(np.asarray(W, dtype=float), 0.0)
    phi = np.asarray(phi, dtype=float)
    return p * np.maximum(Wp + phi, 0.0) ** (p - 1.0) - p * Wp ** (p - 1.0)


def ansatz_error(w_stack, lam, V_vals, p):
    """sum_j (lam_j - V) w_j + (sum_j w_j)_+^p - sum_j (w_j)_+^p.

    The residual of the plain superposition ansatz: the potential mismatch
    term plus the interaction part of the nonlinearity.
    """
    w_stack = np.asarray(w_stack, dtype=float)
    lam = np.asarray(lam, dtype=float)
    V_vals = np.asarray(V_vals, dtype=float)
    W = np.sum(w_stack, axis=0)
    out = np.maximum(W, 0.0) ** p
    for j in range(w_stack.shape[0]):
        wj = w_stack[j]
        out += (lam[j] - V_vals) * wj - np.maximum(wj, 0.0) ** p
    return out


def local_maxima_1d(u, threshold):
    """Indices of strict periodic local maxima of u exceeding threshold."""
    u = np.asarray(u, dtype=float)
    left = np.roll(u, 1)
    right = np.roll(u, -1)
    mask = (u > left) & (u > right) & (u > threshold)
    return np.nonzero(mask)[0].astype(np.int64)


def local_maxima_2d(u, threshold):
    """(n, 2) indices of strict periodic 8-neighbour local maxima above threshold."""
    u = np.asarray(u, dtype=float)
    mask = u > threshold
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= u > np.roll(np.roll(u, di, axis=0), dj, axis=1)
    idx = np.argwhere(mask)
    return idx.astype(np.int64)


def radial_bin(values, r, dr, nbins):
    """Per-bin sums and counts of `values` over radius bins [i*dr, (i+1)*dr)."""
    values = np.asarray(values, dtype=float).ravel()
    r = np.asarray(r, dtype=float).ravel()
    idx = np.minimum((r / dr).astype(np.int64), nbins - 1)
    sums = np.bincount(idx, weights=values, minlength=nbins)
    counts = np.bincount(idx, minlength=nbins).astype(np.int64)
    return sums, counts


def median(a):
    """np.median of a finite array, bit for bit, as a float.

    One partition, then the middle value or the mean of the two middle
    values as np.mean forms it, summed onto +0.0 (so -0.0 comes back as
    0.0). np.median's check for NaN input imports numpy.ma, 1.25 MB of
    resident memory and 11 ms, which no caller here needs.
    """
    a = np.asarray(a, dtype=float).ravel()
    half = a.size // 2
    if a.size % 2:
        return float(0.0 + np.partition(a, half)[half])
    part = np.partition(a, (half - 1, half))
    return float((0.0 + (part[half - 1] + part[half])) / 2.0)
