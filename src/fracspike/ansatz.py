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


def default_mu(dim: int, s: float) -> float:
    """Midpoint of the admissible weight window (N/2, (N+2s)/2)."""
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
    mu: float
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
    profile for each distinct lambda_j is rescaled once and band-limited
    translation moves it to its center.
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

    lambdas = cfg.lambdas(V)
    if np.any(lambdas <= 0):
        j = int(np.argmin(lambdas))
        raise ConfigError(
            f"V(eps q_{j}) = {lambdas[j]:.4g} <= 0; spikes need positive "
            f"potential values")

    profiles: dict[float, np.ndarray] = {}
    for lam in lambdas:
        if lam not in profiles:
            profiles[lam] = rescale(gs, lam).values

    spikes = []
    Z = []
    alphas = np.zeros((cfg.k, grid.dim))
    for j, q in enumerate(cfg.centers):
        wj = sp.translate(Field(grid, profiles[float(lambdas[j])]), q)
        spikes.append(wj)
        zj = [sp.spectral_derivative(wj, axis=a) for a in range(grid.dim)]
        Z.append(zj)
        for a in range(grid.dim):
            alphas[j, a] = sp.inner(zj[a], zj[a])

    w_stack = np.stack([w.values for w in spikes])
    W = Field(grid, np.sum(w_stack, axis=0))
    V_grid = V.on_grid(grid, cfg.epsilon)
    if not float(np.min(V_grid)) > 0:
        raise ConfigError("potential is not positive on the grid")
    E = Field(grid, kernels.ansatz_error(w_stack, lambdas, V_grid, params.p))
    rho = sp.rho_field(grid, cfg.centers, mu)
    E_norm_Y = float(np.max(np.abs(E.values) / rho))

    return AnsatzBundle(cfg=cfg, params=params, lambdas=lambdas, mu=mu,
                        spikes=spikes, W=W, Z=Z, E=E, E_norm_Y=E_norm_Y,
                        rho=rho, alphas=alphas, V_grid=V_grid)
