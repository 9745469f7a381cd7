"""Periodic computation box and the fields living on it.

Everything downstream works on a uniform grid over the torus [-L, L)^N with
N in {1, 2} and a power-of-two point count per axis, so that FFT-based
operators are exact on band-limited data. Coordinates and angular frequencies
are precomputed once per grid; the frequency of mode n is pi*n/L.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "Field", "FracParams"]


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


class Grid:
    """Uniform periodic grid on [-L, L)^N.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    half_width : float
        L; the box is the torus [-L, L)^N.
    points_per_axis : int
        M, a power of two. Spacing is h = 2L/M.
    """

    def __init__(self, dim: int, half_width: float, points_per_axis: int):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if not half_width > 0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        if not _is_power_of_two(points_per_axis):
            raise ValueError(
                f"points_per_axis must be a power of two >= 2, got {points_per_axis}")
        self.dim = dim
        self.half_width = float(half_width)
        self.points_per_axis = int(points_per_axis)
        self.spacing = 2.0 * self.half_width / self.points_per_axis
        self.cell_volume = self.spacing ** dim
        self.shape = (self.points_per_axis,) * dim

        L, M, h = self.half_width, self.points_per_axis, self.spacing
        self.axis = -L + h * np.arange(M)
        # angular frequencies pi*n/L in numpy fft ordering
        self.freq = 2.0 * np.pi * np.fft.fftfreq(M, d=h)
        self.rfreq = 2.0 * np.pi * np.fft.rfftfreq(M, d=h)

        if dim == 1:
            self.abs_freq = np.abs(self.rfreq)
        else:
            kx = self.freq[:, None]
            ky = self.rfreq[None, :]
            self.abs_freq = np.sqrt(kx * kx + ky * ky)
        self._symbol_cache: dict[float, np.ndarray] = {}

    def coords(self) -> list[np.ndarray]:
        """Coordinate arrays broadcastable over the grid shape, one per axis."""
        if self.dim == 1:
            return [self.axis]
        return [self.axis[:, None], self.axis[None, :]]

    def symbol(self, exponent: float) -> np.ndarray:
        """|xi|^exponent on the rfft layout, with the zero mode set to 0."""
        key = float(exponent)
        cached = self._symbol_cache.get(key)
        if cached is None:
            with np.errstate(divide="ignore"):
                cached = np.where(self.abs_freq > 0.0,
                                  self.abs_freq ** key, 0.0)
            self._symbol_cache[key] = cached
        return cached

    def wrap(self, x):
        """Map coordinates into [-L, L) respecting periodicity."""
        L = self.half_width
        return np.mod(np.asarray(x, dtype=float) + L, 2.0 * L) - L

    def periodic_delta(self, x, q):
        """Signed per-axis displacement x - q wrapped into [-L, L)."""
        return self.wrap(np.asarray(x, dtype=float) - np.asarray(q, dtype=float))

    def periodic_distance(self, a, b) -> float:
        """Torus distance between two points."""
        d = self.periodic_delta(a, b)
        return float(np.sqrt(np.sum(d * d)))

    def nearest_index(self, q) -> tuple[int, ...]:
        """Grid index of the cell containing point q (per-axis rounding)."""
        q = np.atleast_1d(self.wrap(q))
        idx = np.rint((q + self.half_width) / self.spacing).astype(int)
        return tuple(int(i) % self.points_per_axis for i in idx)

    def __eq__(self, other):
        return (isinstance(other, Grid)
                and self.dim == other.dim
                and self.half_width == other.half_width
                and self.points_per_axis == other.points_per_axis)

    def __hash__(self):
        return hash((self.dim, self.half_width, self.points_per_axis))

    def __repr__(self):
        return (f"Grid(dim={self.dim}, half_width={self.half_width}, "
                f"points_per_axis={self.points_per_axis})")


@dataclass
class Field:
    """Real scalar field sampled on a Grid.

    Values must match the grid shape and be finite; construction enforces both
    so that NaNs surface where they are produced, not three operators later.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class FracParams:
    """Order s of the fractional Laplacian and the power nonlinearity p.

    s = 1 is admitted so classical-Laplacian cross checks can reuse the same
    code paths. Subcriticality (p below the fractional critical exponent when
    2s < N) depends on the dimension, hence the separate check method.
    """

    s: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")

    def check_subcritical(self, dim: int) -> None:
        if 2.0 * self.s < dim:
            p_crit = (dim + 2.0 * self.s) / (dim - 2.0 * self.s)
            if not self.p < p_crit:
                raise ValueError(
                    f"p = {self.p} is not subcritical for s = {self.s}, "
                    f"dim = {dim} (requires p < {p_crit})")
