"""Trapping potentials V with analytic gradients.

Potentials are evaluated on per-axis coordinate arrays (broadcastable, the
same convention as Grid.coords), so a single call serves both isolated
points, V(*q), and whole grids, V(*[eps * c for c in grid.coords()]). All
builtin families are bounded with inf V > 0 on any box once their parameter
constraints hold; positivity for sign-indefinite bump sums is checked on the
target grid instead, by `Potential.on_grid`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from fracspike.errors import ConfigError
from fracspike.grid import Grid

__all__ = ["Potential", "builtin_potentials", "potential_from_config"]


@dataclass(frozen=True)
class Potential:
    """Bounded potential with analytic first derivatives.

    eval and grad take per-axis coordinate arrays and broadcast; grad
    returns one array per component.
    """

    kind: str
    parameters: dict = field(default_factory=dict)
    _eval: Callable = None
    _grad: Callable = None

    def __call__(self, *axes):
        return self._eval(*axes)

    def grad(self, *axes):
        return self._grad(*axes)

    def on_grid(self, grid: Grid, epsilon: float) -> np.ndarray:
        """Samples of V(eps * x) over the grid, raising ConfigError unless
        all are positive: the one positivity check every solver relies on."""
        vals = self(*[epsilon * c for c in grid.coords()])
        vals = np.broadcast_to(vals, grid.shape).astype(float, copy=True)
        m = float(np.min(vals))
        if not m > 0:
            raise ConfigError(f"potential {self.kind!r} is not positive on "
                              f"the grid: min = {m:.3e}")
        return vals

    def __repr__(self):
        return f"Potential(kind={self.kind!r}, parameters={self.parameters})"


def _constant(lam: float) -> Potential:
    if not lam > 0:
        raise ConfigError(f"constant potential must be positive, got {lam}")

    def ev(*axes):
        return lam + 0.0 * sum(np.asarray(a, dtype=float) for a in axes)

    def gr(*axes):
        z = 0.0 * sum(np.asarray(a, dtype=float) for a in axes)
        return [z.copy() for _ in axes]

    return Potential("constant", {"lam": lam}, ev, gr)


def _well(a: float, b: float) -> Potential:
    # 0 < b < a keeps inf V = a - b > 0; unique nondegenerate minimum at 0
    if not (0 < b < a):
        raise ConfigError(f"well requires 0 < b < a, got a={a}, b={b}")

    def ev(*axes):
        r2 = sum(np.asarray(x, dtype=float) ** 2 for x in axes)
        return a - b / (1.0 + r2)

    def gr(*axes):
        xs = [np.asarray(x, dtype=float) for x in axes]
        d2 = (1.0 + sum(x ** 2 for x in xs)) ** 2
        return [2.0 * b * x / d2 for x in xs]

    return Potential("well", {"a": a, "b": b}, ev, gr)


def _gaussian_bumps(a: float, bumps: Sequence[dict]) -> Potential:
    """a + sum_i b_i exp(-|x - c_i|^2 / sigma_i^2); b_i of either sign."""
    if not a > 0:
        raise ConfigError(f"gaussian_bumps base level must be positive, got {a}")
    parsed = []
    for i, bump in enumerate(bumps):
        try:
            b = float(bump["b"])
            c = np.atleast_1d(np.asarray(bump["center"], dtype=float))
            sig = float(bump["sigma"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bump {i}: expected b, center, sigma ({exc})")
        if not sig > 0:
            raise ConfigError(f"bump {i}: sigma must be positive, got {sig}")
        parsed.append((b, c, sig))
    # sufficient positivity check; sign-indefinite sums are re-checked on-grid
    floor = a + sum(min(b, 0.0) for b, _, _ in parsed)
    if floor <= 0:
        import logging
        logging.getLogger(__name__).warning(
            "gaussian_bumps: conservative positivity bound fails (%.3g); "
            "relying on the on-grid check", floor)

    def _dim_check(axes):
        for b, c, sig in parsed:
            if c.size != len(axes):
                raise ConfigError(
                    f"bump center has {c.size} components, coordinates have "
                    f"{len(axes)}")

    def ev(*axes):
        _dim_check(axes)
        xs = [np.asarray(x, dtype=float) for x in axes]
        out = a + 0.0 * sum(xs)
        for b, c, sig in parsed:
            r2 = sum((x - ci) ** 2 for x, ci in zip(xs, c))
            out = out + b * np.exp(-r2 / sig ** 2)
        return out

    def gr(*axes):
        _dim_check(axes)
        xs = [np.asarray(x, dtype=float) for x in axes]
        comps = [0.0 * sum(xs) for _ in xs]
        for b, c, sig in parsed:
            r2 = sum((x - ci) ** 2 for x, ci in zip(xs, c))
            e = b * np.exp(-r2 / sig ** 2)
            for j, (x, ci) in enumerate(zip(xs, c)):
                comps[j] = comps[j] - 2.0 * (x - ci) / sig ** 2 * e
        return comps

    return Potential("gaussian_bumps",
                     {"a": a, "bumps": [
                         {"b": b, "center": c.tolist(), "sigma": sig}
                         for b, c, sig in parsed]},
                     ev, gr)


def _double_well(a: float, b: float) -> Potential:
    """a + b (1 - |x|^2)^2 / (1 + |x|^4): wells on |x| = 1, hump at 0.

    With t = |x|^2 the radial part f(t) = (1-t)^2/(1+t^2) has
    f'(t) = -2(1-t^2)/(1+t^2)^2, so the gradient is closed-form.
    """
    if not (a > 0 and b > 0):
        raise ConfigError(f"double_well requires a, b > 0, got a={a}, b={b}")

    def _t(xs):
        return sum(x ** 2 for x in xs)

    def _fp(t):
        return -2.0 * (1.0 - t ** 2) / (1.0 + t ** 2) ** 2

    def ev(*axes):
        xs = [np.asarray(x, dtype=float) for x in axes]
        t = _t(xs)
        return a + b * (1.0 - t) ** 2 / (1.0 + t ** 2)

    def gr(*axes):
        xs = [np.asarray(x, dtype=float) for x in axes]
        fp = _fp(_t(xs))
        return [2.0 * b * fp * x for x in xs]

    return Potential("double_well", {"a": a, "b": b}, ev, gr)


def _multilinear(nodes: list[np.ndarray], table: np.ndarray,
                 xs: list[np.ndarray]) -> np.ndarray:
    """Multilinear interpolant of table on the tensor grid of the (possibly
    non-uniform) nodes, at flat points xs inside the grid's box.

    Each coordinate falls in the cell [ax[i], ax[i+1]) with ax[i] <= x (the
    last cell is closed), and the result sums the 2^N cell corners weighted
    by products of the fractional offsets, as scipy's linear
    RegularGridInterpolator does.
    """
    cells, offsets = [], []
    for ax, x in zip(nodes, xs):
        i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, ax.size - 2)
        cells.append(i)
        offsets.append((x - ax[i]) / (ax[i + 1] - ax[i]))
    out = np.zeros(xs[0].shape)
    for corner in itertools.product((0, 1), repeat=len(nodes)):
        weight = np.ones(xs[0].shape)
        for c, t in zip(corner, offsets):
            weight *= t if c else 1.0 - t
        out += weight * table[tuple(i + c for i, c in zip(cells, corner))]
    return out


def _user_table(axes: Sequence[np.ndarray], values: np.ndarray) -> Potential:
    """Tabulated potential; linear interpolation, gradient from the table.

    C^0 only: gradients come from central differences of the table and are
    interpolated the same way. Each axis needs at least two strictly
    increasing nodes, not necessarily evenly spaced. Evaluation clamps to
    the table edges outside its box.
    """
    nodes = [np.asarray(ax, dtype=float) for ax in axes]
    vals = np.asarray(values, dtype=float)
    for k, ax in enumerate(nodes):
        if ax.ndim != 1 or ax.size < 2 or not np.all(np.isfinite(ax)) \
                or not np.all(np.diff(ax) > 0):
            raise ConfigError(
                f"table axis {k} must hold at least two finite, strictly "
                f"increasing nodes")
    if vals.shape != tuple(len(ax) for ax in nodes):
        raise ConfigError(
            f"table shape {vals.shape} does not match axes "
            f"{tuple(len(ax) for ax in nodes)}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError("table contains non-finite values")
    if not np.min(vals) > 0:
        raise ConfigError(f"table minimum {np.min(vals):.3e} is not positive")

    grads = np.gradient(vals, *nodes) if len(nodes) > 1 else \
        [np.gradient(vals, nodes[0])]

    def _pts(axes_in):
        if len(axes_in) != len(nodes):
            raise ConfigError(f"table has {len(nodes)} axes, coordinates "
                              f"have {len(axes_in)}")
        xs = np.broadcast_arrays(*[np.asarray(x, dtype=float) for x in axes_in])
        cols = [np.clip(x, ax[0], ax[-1]).ravel() for x, ax in zip(xs, nodes)]
        return cols, xs[0].shape

    def ev(*axes_in):
        cols, shape = _pts(axes_in)
        return _multilinear(nodes, vals, cols).reshape(shape)

    def gr(*axes_in):
        cols, shape = _pts(axes_in)
        return [_multilinear(nodes, g, cols).reshape(shape) for g in grads]

    return Potential("user_table",
                     {"axes": [ax.tolist() for ax in nodes]},
                     ev, gr)


_BUILDERS = {
    "constant": _constant,
    "well": _well,
    "gaussian_bumps": _gaussian_bumps,
    "double_well": _double_well,
    "user_table": _user_table,
}


def builtin_potentials(name: str, **params) -> Potential:
    """Construct a builtin potential family by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown potential kind {name!r}; known: {sorted(_BUILDERS)}")
    return builder(**params)


def potential_from_config(cfg: dict) -> Potential:
    """Build a Potential from a scenario dictionary {'kind': ..., **params}."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("potential config must be a dict with a 'kind' key")
    cfg = dict(cfg)
    kind = cfg.pop("kind")
    if kind == "user_table":
        try:
            axes = [np.asarray(a, dtype=float) for a in cfg.pop("axes")]
            values = np.asarray(cfg.pop("values"), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"user_table needs 'axes' and 'values' ({exc})")
        if cfg:
            raise ConfigError(f"unknown user_table keys: {sorted(cfg)}")
        return _user_table(axes, values)
    try:
        return builtin_potentials(kind, **cfg)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for potential {kind!r}: {exc}")
