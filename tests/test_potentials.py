"""Potential families: values, analytic gradients, config round trips."""

import numpy as np
import pytest

from fracspike.errors import ConfigError
from fracspike.grid import Grid
from fracspike.potentials import builtin_potentials, potential_from_config


def fd_grad(pot, q, h=1e-6):
    """Central-difference gradient at a point q (list of coords)."""
    q = np.asarray(q, dtype=float)
    out = []
    for j in range(q.size):
        e = np.zeros_like(q)
        e[j] = h
        out.append((float(pot(*(q + e))) - float(pot(*(q - e)))) / (2 * h))
    return np.array(out)


def fd_hess(pot, q, h=1e-5):
    q = np.asarray(q, dtype=float)
    n = q.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (float(pot(*(q + ei + ej))) - float(pot(*(q + ei - ej)))
                       - float(pot(*(q - ei + ej)))
                       + float(pot(*(q - ei - ej)))) / (4 * h * h)
    return H


@pytest.mark.parametrize("name,params,q", [
    ("well", {"a": 2.0, "b": 1.0}, [0.7]),
    ("well", {"a": 2.0, "b": 1.0}, [0.4, -1.1]),
    ("double_well", {"a": 1.0, "b": 2.0}, [0.6]),
    ("double_well", {"a": 1.0, "b": 2.0}, [-0.3, 0.9]),
    ("gaussian_bumps",
     {"a": 2.0, "bumps": [{"b": -1.0, "center": [0.5], "sigma": 0.8}]}, [0.2]),
    ("gaussian_bumps",
     {"a": 2.0, "bumps": [{"b": 1.0, "center": [0.0, 0.0], "sigma": 1.0},
                          {"b": -0.5, "center": [1.0, -1.0], "sigma": 0.5}]},
     [0.3, -0.4]),
])
def test_analytic_derivatives(name, params, q):
    pot = builtin_potentials(name, **params)
    g = np.array([float(c) for c in pot.grad(*q)])
    np.testing.assert_allclose(g, fd_grad(pot, q), rtol=1e-6, atol=1e-8)


def test_well_shape():
    pot = builtin_potentials("well", a=2.0, b=1.0)
    assert float(pot(0.0)) == pytest.approx(1.0)   # minimum value a - b
    assert float(pot(1e6)) == pytest.approx(2.0, rel=1e-6)
    assert float(pot.grad(0.0)[0]) == 0.0
    with pytest.raises(ConfigError):
        builtin_potentials("well", a=1.0, b=1.0)
    with pytest.raises(ConfigError):
        builtin_potentials("well", a=1.0, b=-0.5)


def test_double_well_critical_points():
    pot = builtin_potentials("double_well", a=1.0, b=1.0)
    # hump at the origin, wells on |x| = 1
    assert float(pot(0.0)) == pytest.approx(2.0)
    assert float(pot(1.0)) == pytest.approx(1.0)
    assert float(pot(-1.0)) == pytest.approx(1.0)
    assert abs(float(pot.grad(1.0)[0])) < 1e-14
    assert abs(float(pot.grad(0.0)[0])) < 1e-14
    assert fd_hess(pot, [1.0])[0, 0] > 0  # wells are nondegenerate minima


def test_constant_potential():
    pot = builtin_potentials("constant", lam=1.3)
    grid = Grid(1, 10.0, 64)
    vals = pot.on_grid(grid, 0.1)
    assert np.all(vals == 1.3)
    assert all(np.all(g == 0) for g in pot.grad(grid.axis))
    with pytest.raises(ConfigError):
        builtin_potentials("constant", lam=0.0)


def test_gaussian_bumps_positivity():
    # conservative floor fails but the on-grid check passes: wells of depth
    # 1.5 placed far apart never overlap enough to cross zero
    pot = builtin_potentials(
        "gaussian_bumps", a=2.0,
        bumps=[{"b": -1.5, "center": [-5.0], "sigma": 0.5},
               {"b": -1.5, "center": [5.0], "sigma": 0.5}])
    grid = Grid(1, 10.0, 256)
    assert np.min(pot.on_grid(grid, 1.0)) > 0
    with pytest.raises(ConfigError):
        builtin_potentials("gaussian_bumps", a=-1.0, bumps=[])
    with pytest.raises(ConfigError):
        builtin_potentials("gaussian_bumps", a=1.0,
                           bumps=[{"b": 1.0, "center": [0.0], "sigma": 0.0}])
    with pytest.raises(ConfigError):
        builtin_potentials("gaussian_bumps", a=1.0, bumps=[{"b": 1.0}])


def test_on_grid_rejects_nonpositive_potential():
    """Sampling V on a grid is the one positivity check: the ansatz, the
    projected operator and the Newton certificate all sample through it."""
    pot = builtin_potentials(
        "gaussian_bumps", a=1.0,
        bumps=[{"b": -2.0, "center": [0.0], "sigma": 1.0}])
    grid = Grid(1, 10.0, 64)
    with pytest.raises(ConfigError, match="not positive on the grid"):
        pot.on_grid(grid, 1.0)


def test_user_table_interpolation():
    axes = [np.linspace(-2.0, 2.0, 81)]
    vals = 2.0 + np.sin(axes[0])
    pot = potential_from_config(
        {"kind": "user_table", "axes": [a.tolist() for a in axes],
         "values": vals.tolist()})
    x = np.array([-1.3, 0.0, 0.77])
    np.testing.assert_allclose(pot(x), 2.0 + np.sin(x), atol=2e-3)
    g = pot.grad(x)[0]
    np.testing.assert_allclose(g, np.cos(x), atol=2e-3)
    # clamped outside the table box
    assert float(pot(5.0)) == pytest.approx(float(pot(2.0)))


@pytest.mark.parametrize("dim", [1, 2])
def test_user_table_matches_scipy_interpolator(dim, rng):
    """On non-uniform axes the in-house multilinear interpolant gives the
    values and gradients of scipy's linear RegularGridInterpolator at the
    clamped points, to 1e-14: inside cells, on nodes and outside the box."""
    from scipy.interpolate import RegularGridInterpolator

    nodes = [np.sort(np.concatenate(([-2.0, 2.0], rng.uniform(-2, 2, 9 + d))))
             for d in range(dim)]
    mesh = np.meshgrid(*nodes, indexing="ij")
    vals = 2.0 + np.sin(sum(mesh)) * np.cos(mesh[0])
    pot = potential_from_config(
        {"kind": "user_table", "axes": [a.tolist() for a in nodes],
         "values": vals.tolist()})
    pts = [np.concatenate((rng.uniform(-3.0, 3.0, 200), ax, [-2.0, 2.0]))
           for ax in nodes]
    pts = [np.resize(x, max(p.size for p in pts)) for x in pts]
    clamped = np.column_stack([np.clip(x, -2.0, 2.0) for x in pts])
    grads = np.gradient(vals, *nodes) if dim > 1 else \
        [np.gradient(vals, nodes[0])]
    for table, got in zip([vals] + list(grads), [pot(*pts)] + pot.grad(*pts)):
        ref = RegularGridInterpolator(nodes, table)(clamped)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14)


def test_user_table_validation():
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "user_table",
                               "axes": [[0.0, 1.0]], "values": [1.0]})
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "user_table",
                               "axes": [[0.0, 1.0]], "values": [1.0, -1.0]})
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "user_table", "axes": [[0.0, 1.0]],
                               "values": [1.0, 2.0], "extra": 1})
    for axis in ([1.0, 0.0], [0.0, 0.0], [0.0], [0.0, np.nan]):
        with pytest.raises(ConfigError, match="strictly increasing"):
            potential_from_config({"kind": "user_table", "axes": [axis],
                                   "values": [1.0] * len(axis)})


def test_user_table_refuses_coordinates_of_another_dimension():
    """zip would pair a 1d table's one axis with x and drop y, answering
    T(x) for V(x, y) and one gradient component for two."""
    V = potential_from_config({"kind": "user_table", "axes": [[0.0, 1.0]],
                               "values": [1.0, 2.0]})
    for f in (V, V.grad):
        with pytest.raises(ConfigError, match="table has 1 axes, "
                           "coordinates have 2"):
            f(0.5, 0.5)


def test_config_errors():
    with pytest.raises(ConfigError):
        builtin_potentials("nope")
    with pytest.raises(ConfigError):
        potential_from_config({"no_kind": True})
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "well", "a": 2.0})  # missing b
    with pytest.raises(ConfigError):
        potential_from_config({"kind": "well", "a": 2.0, "b": 1.0, "c": 3.0})


def test_on_grid_broadcast_2d():
    pot = builtin_potentials("well", a=2.0, b=1.0)
    grid = Grid(2, 5.0, 32)
    vals = pot.on_grid(grid, 0.5)
    assert vals.shape == grid.shape
    x, y = grid.coords()
    np.testing.assert_allclose(
        vals, 2.0 - 1.0 / (1.0 + 0.25 * (x ** 2 + y ** 2)), rtol=1e-14)
