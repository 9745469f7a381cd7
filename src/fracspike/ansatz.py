"""Multi-spike ansatz: configurations, W_q, the projection basis, and the error.

A configuration holds k spike centers in the inner variable q (outer
positions are xi = eps * q). The ansatz W_q is the superposition of ground
states rescaled to lambda_j = V(eps q_j) and shifted to q_j; the basis
fields Z_ij are its per-spike translation derivatives; E is the residual of
W_q in the rescaled equation, measured in the spike-anchored weighted sup
norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from fracspike import kernels
from fracspike import spectral as sp
from fracspike.errors import ConfigError
from fracspike.grid import Field, FracParams, Grid
from fracspike.ground_state import GroundState, rescale
from fracspike.potentials import Potential

__all__ = ["SpikeConfig", "AnsatzBundle", "build_ansatz", "config_valid",
           "default_mu"]


# relative gap below which two lambda_j share one rescaled profile: the
# lambdas of mirror-image spikes can differ by a few ulp of rounding
LAMBDA_RTOL = 1e-12


def default_mu(dim: int, s: float) -> float:
    """Midpoint of (N/2, (N+2s)/2), the lower half of the enforced weight
    window N/2 < mu < N+2s that `build_ansatz` checks."""
    return 0.5 * (dim / 2.0 + (dim + 2.0 * s) / 2.0)


@dataclass
class SpikeConfig:
    """k spike centers on the torus, with the constraint-set parameters.

    Constraints (closed, so boundary configurations remain admissible):
    pairwise periodic separations >= r_min and max_j |q_j| <= 1/(delta *
    epsilon). Centers are stored wrapped into the box.
    """

    grid: Grid
    centers: np.ndarray
    epsilon: float
    delta: float = 0.1
    r_min: float = 4.0

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float).reshape(-1, self.grid.dim)
        if c.shape[0] < 1:
            raise ConfigError("need at least one spike center")
        if not np.all(np.isfinite(c)):
            raise ConfigError("spike centers must be finite")
        self.centers = self.grid.wrap(c)
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if not self.r_min > 0:
            raise ConfigError(f"r_min must be positive, got {self.r_min}")

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def xi(self) -> np.ndarray:
        """Outer-variable spike positions xi = eps * q."""
        return self.epsilon * self.centers

    def lambdas(self, V: Potential) -> np.ndarray:
        """lambda_j = V(eps q_j), recomputed on demand (never cached)."""
        return np.array([float(V(*xi)) for xi in self.xi])

    def separations(self) -> np.ndarray:
        """Pairwise periodic distances, shape (k, k), inf on the diagonal."""
        k = self.k
        out = np.full((k, k), np.inf)
        for i in range(k):
            for j in range(i + 1, k):
                d = self.grid.periodic_distance(self.centers[i], self.centers[j])
                out[i, j] = out[j, i] = d
        return out


def config_valid(cfg: SpikeConfig) -> tuple[bool, list[str]]:
    """Check the configuration constraints; diagnostics name each violation."""
    diags = []
    if cfg.k > 1:
        seps = cfg.separations()
        dmin = float(np.min(seps))
        if dmin < cfg.r_min:
            pair = np.unravel_index(np.argmin(seps), seps.shape)
            diags.append(
                f"separation violated: spikes {pair[0]} and {pair[1]} at "
                f"periodic distance {dmin:.4g} < r_min = {cfg.r_min:.4g}")
    radius = 1.0 / (cfg.delta * cfg.epsilon)
    norms = np.linalg.norm(cfg.centers, axis=1)
    if float(np.max(norms)) > radius:
        j = int(np.argmax(norms))
        diags.append(
            f"radius violated: |q_{j}| = {norms[j]:.4g} > 1/(delta*eps) = "
            f"{radius:.4g}")
    return (not diags), diags


@dataclass
class AnsatzBundle:
    """The ansatz W_q with its basis fields and residual.

    Z[i][j] is the derivative of spike i along axis j; alphas[i, j] the
    squared L2 norm of Z[i][j]; rho the weight used for norm_Y.
    """

    cfg: SpikeConfig
    params: FracParams
    lambdas: np.ndarray
    spikes: list
    W: Field
    Z: list
    E: Field
    E_norm_Y: float
    rho: np.ndarray
    alphas: np.ndarray
    V_grid: np.ndarray = field(repr=False, default=None)

    @property
    def grid(self) -> Grid:
        return self.cfg.grid

    def z_flat(self) -> list:
        """Z fields in row-major (spike, axis) order."""
        return [z for zi in self.Z for z in zi]


def build_ansatz(V: Potential, cfg: SpikeConfig, gs: GroundState,
                 mu: Optional[float] = None) -> AnsatzBundle:
    """Assemble W_q = sum_j w_{lambda_j}(x - q_j) and its error field.

    The residual of W_q in (-Delta)^s u + V(eps x) u - u_+^p = 0 reduces to

        E = sum_j (lambda_j - V(eps x)) w_j + (sum_j w_j)_+^p - sum_j w_j^p

    because each profile solves its own constant-coefficient equation. The
    profile for each distinct lambda_j is rescaled and transformed once;
    `spectral.translates` then gives each of its spikes w_j and Z_ja from
    one inverse transform each (1 + 6 transforms for the 2d two-well,
    against 6 transform pairs). lambda_j within LAMBDA_RTOL of an
    earlier one counts as that one, so a mirror pair of wells whose
    lambdas differ by rounding shares one profile; the bundle's lambdas,
    and E with them, hold the values the profiles were rescaled to.

    That identity holds in the continuum. On the grid a rescaled profile
    (lambda_j != 1) has a discrete residual of its own, which E leaves out:
    on the 2d two-well problem (256^2, L = 20, lambda_j = 1.1) it peaks at
    0.126, 2% of max W, 0.625 from the spike centre. The Newton certificate
    therefore starts from a residual of 2e-2 there (1.4e-3 on the 1d
    two-well), not from the 1e-11 of the lambda = 1 profile.

    E_norm_Y = sup |E| / rho, rho = sum_j (1 + |x - q_j|)^(-mu); mu (default
    `default_mu`) must lie in N/2 < mu < N+2s, or ConfigError.
    """
    ok, diags = config_valid(cfg)
    if not ok:
        raise ConfigError("invalid spike configuration: " + "; ".join(diags))
    if gs.lam != 1.0:
        raise ConfigError("build_ansatz needs the ground state at lambda = 1")
    if gs.grid != cfg.grid:
        raise ConfigError("configuration and ground state grids differ")
    grid, params = cfg.grid, gs.params
    if mu is None:
        mu = default_mu(grid.dim, params.s)
    if not grid.dim / 2.0 < mu < grid.dim + 2.0 * params.s:
        raise ConfigError(f"weight exponent mu = {mu} outside the window "
                          f"N/2 < mu < N+2s (N = {grid.dim}, s = {params.s})")

    lambdas = cfg.lambdas(V)
    if np.any(lambdas <= 0):
        j = int(np.argmin(lambdas))
        raise ConfigError(
            f"V(eps q_{j}) = {lambdas[j]:.4g} <= 0; spikes need positive "
            f"potential values")

    profiles: dict[float, list[int]] = {}  # spikes per rescaled profile
    for j, lam in enumerate(lambdas):
        shared = next((mu for mu in profiles
                       if abs(lam - mu) <= LAMBDA_RTOL * mu), None)
        if shared is None:
            profiles[float(lam)] = [j]
        else:
            lambdas[j] = shared
            profiles[shared].append(j)

    spikes = [None] * cfg.k
    Z = [None] * cfg.k
    for lam, members in profiles.items():
        moved = sp.translates(Field(grid, rescale(gs, lam).values),
                              cfg.centers[members])
        for j, (wj, dwj) in zip(members, moved):
            spikes[j] = Field(grid, wj)
            Z[j] = [Field(grid, dw) for dw in dwj]
    alphas = np.array([[sp.inner(z, z) for z in zj] for zj in Z])

    w_stack = np.stack([w.values for w in spikes])
    W = Field(grid, np.sum(w_stack, axis=0))
    V_grid = V.on_grid(grid, cfg.epsilon)
    E = Field(grid, kernels.ansatz_error(w_stack, lambdas, V_grid, params.p))
    rho = sp.rho_field(grid, cfg.centers, mu)
    E_norm_Y = float(np.max(np.abs(E.values) / rho))

    return AnsatzBundle(cfg=cfg, params=params, lambdas=lambdas,
                        spikes=spikes, W=W, Z=Z, E=E, E_norm_Y=E_norm_Y,
                        rho=rho, alphas=alphas, V_grid=V_grid)
