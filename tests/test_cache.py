"""Binary profile cache: bit-exact round trips and corruption handling."""

import hashlib
import logging
import struct

import numpy as np
import pytest

from fracspike.cache import (MAGIC, _encode, cache_key, cache_path,
                             cached_ground_state, load, store)
from fracspike.errors import ConfigError
from fracspike.grid import FracParams, Grid
from fracspike.ground_state import rescale, solve_ground_state


@pytest.fixture(scope="module")
def small_gs():
    return solve_ground_state(Grid(1, 20.0, 256), FracParams(0.5, 2.0))


def test_roundtrip_bit_identical(tmp_path, small_gs):
    path = store(tmp_path, small_gs)
    assert path.exists()
    assert path.read_bytes()[:5] == MAGIC
    back = load(tmp_path, small_gs.grid, small_gs.params)
    assert back is not None
    np.testing.assert_array_equal(back.values, small_gs.values)
    assert back.lam == 1.0
    assert back.iterations == small_gs.iterations
    assert back.newton_steps == small_gs.newton_steps
    assert back.source == "cache"
    # derived quantities recomputed, not trusted from disk
    assert back.energy == pytest.approx(small_gs.energy, rel=1e-12)
    assert back.residual_norm < 1e-9


def test_key_mismatch_misses(tmp_path, small_gs):
    store(tmp_path, small_gs)
    assert load(tmp_path, small_gs.grid, FracParams(0.6, 2.0)) is None
    assert load(tmp_path, Grid(1, 20.0, 512), small_gs.params) is None
    assert load(tmp_path, Grid(1, 10.0, 256), small_gs.params) is None


def test_key_fields_format(small_gs):
    fields = cache_key(small_gs.grid, small_gs.params)
    assert fields[0].startswith("s=") and fields[1].startswith("p=")
    assert "dim=1" in fields
    name = cache_path("/tmp", small_gs.grid, small_gs.params).name
    assert name.endswith(".fspk")


def test_store_rejects_rescaled(tmp_path, small_gs):
    resc = rescale(small_gs, 2.0)
    with pytest.raises(ValueError):
        store(tmp_path, resc)


def test_corruption_is_a_miss(tmp_path, small_gs, caplog):
    path = store(tmp_path, small_gs)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with caplog.at_level(logging.WARNING):
        assert load(tmp_path, small_gs.grid, small_gs.params) is None
    assert any("cache" in r.message for r in caplog.records)


def test_truncation_is_a_miss(tmp_path, small_gs, caplog):
    path = store(tmp_path, small_gs)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 3])
    with caplog.at_level(logging.WARNING):
        assert load(tmp_path, small_gs.grid, small_gs.params) is None


def test_checksum_guards_metadata_too(tmp_path, small_gs):
    path = store(tmp_path, small_gs)
    blob = bytearray(path.read_bytes())
    # tamper inside the header region, just past the magic
    blob[8] ^= 0x01
    path.write_bytes(bytes(blob))
    assert load(tmp_path, small_gs.grid, small_gs.params) is None


def test_overrunning_field_count_is_a_miss(tmp_path, small_gs, caplog):
    """A checksum-valid file whose n_fields counts one field more than it
    holds: the extra field eats half of n_values, unpacking n_values then
    overruns the payload, and load logs a miss."""
    fields = cache_key(small_gs.grid, small_gs.params)
    blob = _encode(fields, np.empty(0))
    payload = bytearray(blob[len(MAGIC):-8])
    struct.pack_into("<I", payload, 0, len(fields) + 1)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    path = cache_path(tmp_path, small_gs.grid, small_gs.params)
    path.write_bytes(MAGIC + bytes(payload) + digest)
    with caplog.at_level(logging.WARNING):
        assert load(tmp_path, small_gs.grid, small_gs.params) is None
    assert any("unreadable" in r.message for r in caplog.records)


@pytest.mark.parametrize("field", ["lam=one", "iterations=3.5",
                                   "newton_steps="])
def test_non_numeric_metadata_is_a_miss(tmp_path, small_gs, caplog, field):
    """A checksum-valid file whose lam, iterations or newton_steps does not
    parse is a logged miss, not an exception."""
    fields = cache_key(small_gs.grid, small_gs.params) + [field]
    path = cache_path(tmp_path, small_gs.grid, small_gs.params)
    path.write_bytes(_encode(fields, small_gs.values))
    with caplog.at_level(logging.WARNING):
        assert load(tmp_path, small_gs.grid, small_gs.params) is None
    assert any("unreadable" in r.message for r in caplog.records)


def test_cached_ground_state_solve_then_load(tmp_path, caplog):
    grid, params = Grid(1, 20.0, 256), FracParams(0.75, 3.0)
    first = cached_ground_state(grid, params, directory=tmp_path)
    assert first.source == "solve"
    with caplog.at_level(logging.INFO):
        second = cached_ground_state(grid, params, directory=tmp_path)
    assert second.source == "cache"
    np.testing.assert_array_equal(first.values, second.values)
    assert any("cache" in r.message for r in caplog.records)


def test_reload_reports_the_solver_residual_despite_undershoot(tmp_path):
    """A coarse s = 0.99, p = 1.5 profile dips below zero in its tail; the
    reload reports exactly the residual the solve reported, in the solver's
    norm (odd power u^p), not one computed with u_+^p."""
    gs = solve_ground_state(Grid(1, 60.0, 64), FracParams(0.99, 1.5))
    assert gs.values.min() < 0.0
    store(tmp_path, gs)
    back = load(tmp_path, gs.grid, gs.params)
    assert back.residual_norm == gs.residual_norm
