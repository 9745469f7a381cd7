"""Grid, Field, and parameter validation."""

import numpy as np
import pytest

from fracspike.grid import FracParams, Field, Grid


def test_axis_and_spacing():
    g = Grid(1, 10.0, 64)
    assert g.spacing == pytest.approx(20.0 / 64)
    assert g.axis[0] == pytest.approx(-10.0)
    assert g.axis[-1] == pytest.approx(10.0 - g.spacing)
    assert g.shape == (64,)
    assert g.cell_volume == pytest.approx(g.spacing)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 10.0, 64)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 64)
    with pytest.raises(ValueError):
        Grid(1, 10.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 10.0, 1)


def test_equality_and_hash():
    a = Grid(2, 5.0, 32)
    b = Grid(2, 5.0, 32)
    c = Grid(2, 5.0, 64)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_wrap_and_periodic_distance():
    g = Grid(1, 10.0, 64)
    assert g.wrap(10.0) == pytest.approx(-10.0)
    assert g.wrap(-10.0) == pytest.approx(-10.0)
    assert g.wrap(25.0) == pytest.approx(5.0)
    # points near opposite edges are close on the torus
    assert g.periodic_distance(9.5, -9.5) == pytest.approx(1.0)
    g2 = Grid(2, 10.0, 32)
    assert g2.periodic_distance([9.5, 0.0], [-9.5, 0.0]) == pytest.approx(1.0)


def test_nearest_index_roundtrip():
    g = Grid(1, 10.0, 64)
    # x = 9.9 wraps to index 0: nearest in the torus metric
    for x in (-10.0, -3.21, 0.0, 7.77, 9.9):
        i = g.nearest_index(x)[0]
        assert g.periodic_distance(g.axis[i], x) <= 0.5 * g.spacing + 1e-12
    g2 = Grid(2, 10.0, 32)
    i, j = g2.nearest_index([1.3, -4.2])
    assert abs(g2.axis[i] - 1.3) <= 0.5 * g2.spacing
    assert abs(g2.axis[j] + 4.2) <= 0.5 * g2.spacing


def test_symbol_zero_mode_and_monotone():
    g = Grid(1, 10.0, 64)
    sym = g.symbol(1.0)
    assert sym[0] == 0.0
    assert np.all(np.diff(sym) > 0)  # rfft layout is |xi| sorted in 1d
    # negative exponents must not produce inf at the zero mode
    assert np.all(np.isfinite(g.symbol(-1.5)))


def test_field_validation():
    g = Grid(1, 10.0, 64)
    with pytest.raises(ValueError):
        Field(g, np.zeros(32))
    bad = np.zeros(64)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)
    f = Field(g, np.arange(64, dtype=float))
    assert f.sup == 63.0


def test_frac_params_validation():
    with pytest.raises(ValueError):
        FracParams(0.0, 2.0)
    with pytest.raises(ValueError):
        FracParams(1.2, 2.0)
    with pytest.raises(ValueError):
        FracParams(0.5, 1.0)


def test_subcriticality():
    # p* = (N + 2s) / (N - 2s): 1d s=0.25 gives p* = 3
    FracParams(0.25, 2.9).check_subcritical(1)
    with pytest.raises(ValueError):
        FracParams(0.25, 3.0).check_subcritical(1)
    # 2s >= N imposes no restriction
    FracParams(0.75, 9.0).check_subcritical(1)
    # 2d s=0.5: p* = 3
    with pytest.raises(ValueError):
        FracParams(0.5, 3.5).check_subcritical(2)
    FracParams(0.5, 2.0).check_subcritical(2)
