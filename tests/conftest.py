"""Shared fixtures: a session-wide ground-state store, a seeded RNG, and the
closed-form s = 1/2 profile.

Ground states are the expensive ingredient nearly every test needs, so they
are solved once per (s, p, dim, L, M, kwargs) tuple and shared across the
whole session through the gs_store fixture.
"""

from __future__ import annotations

import numpy as np
import pytest

from fracspike.grid import FracParams, Grid
from fracspike.ground_state import solve_ground_state

_STORE: dict = {}


def get_ground_state(s, p, dim=1, L=40.0, M=1024, **kw):
    key = (float(s), float(p), int(dim), float(L), int(M),
           tuple(sorted(kw.items())))
    if key not in _STORE:
        grid = Grid(dim, L, M)
        _STORE[key] = solve_ground_state(grid, FracParams(s, p), **kw)
    return _STORE[key]


@pytest.fixture(scope="session")
def gs_store():
    """Callable (s, p, dim=1, L=40, M=1024, **kw) -> cached GroundState."""
    return get_ground_state


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def closed_form_profile():
    """Callable grid -> 2/(1 + x^2), the explicit s=1/2, p=2, N=1 profile."""
    def profile(grid: Grid) -> np.ndarray:
        return 2.0 / (1.0 + grid.axis ** 2)
    return profile
