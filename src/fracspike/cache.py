"""Binary ground-state cache.

Container layout (all integers little-endian):

    magic      5 bytes  b"FSPK1"
    n_fields   uint32
    fields     n_fields x (uint32 length, UTF-8 bytes)
    n_values   uint64
    values     n_values x float64
    checksum   8 bytes, blake2b(digest_size=8) over everything between the
               magic and the checksum

The fields carry the solve key "s", "p", "dim", "L", "M" (floats rendered
with %.17g so the key survives a text round trip) plus metadata that does
not participate in lookup (lam, iteration counts). Only the raw profile is
stored; energy, residual and the decay fit are recomputed on load, which
keeps them consistent with the bit-identical values array.

Any structural problem on read (bad magic, truncation, checksum mismatch,
malformed key) is a cache miss with a logged warning, never an exception.
Writes go to a temporary file in the target directory followed by an atomic
rename, so concurrent writers cannot leave a torn file behind.

The default directory is ~/.cache/fracspike, overridden by the
FRACSPIKE_CACHE environment variable.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from fracspike import spectral as sp
from fracspike.grid import FracParams, Grid
from fracspike.ground_state import (GroundState, _relative_residual,
                                    decay_fit, energy)

log = logging.getLogger(__name__)

__all__ = [
    "CACHE_ENV",
    "MAGIC",
    "default_cache_dir",
    "cache_key",
    "cache_path",
    "store",
    "load",
    "cached_ground_state",
]

CACHE_ENV = "FRACSPIKE_CACHE"
MAGIC = b"FSPK1"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "fracspike"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def cache_key(grid: Grid, params: FracParams) -> list[str]:
    """Lookup fields, in container order."""
    return [
        "s=" + _fmt(params.s),
        "p=" + _fmt(params.p),
        "dim=%d" % grid.dim,
        "L=" + _fmt(grid.half_width),
        "M=%d" % grid.points_per_axis,
    ]


def cache_path(directory, grid: Grid, params: FracParams) -> Path:
    name = "gs_s%g_p%g_n%d_L%g_M%d.fspk" % (
        params.s, params.p, grid.dim, grid.half_width, grid.points_per_axis)
    return Path(directory) / name


def _encode(fields: list[str], values: np.ndarray) -> bytes:
    body = [struct.pack("<I", len(fields))]
    for f in fields:
        raw = f.encode("utf-8")
        body.append(struct.pack("<I", len(raw)))
        body.append(raw)
    flat = np.ascontiguousarray(values, dtype="<f8").ravel()
    body.append(struct.pack("<Q", flat.size))
    body.append(flat.tobytes())
    payload = b"".join(body)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return MAGIC + payload + digest


def _decode(blob: bytes) -> tuple[list[str], np.ndarray]:
    if blob[:len(MAGIC)] != MAGIC:
        raise ValueError("bad magic")
    payload, digest = blob[len(MAGIC):-8], blob[-8:]
    if hashlib.blake2b(payload, digest_size=8).digest() != digest:
        raise ValueError("checksum mismatch")
    off = 0
    (n_fields,) = struct.unpack_from("<I", payload, off)
    off += 4
    fields = []
    for _ in range(n_fields):
        (ln,) = struct.unpack_from("<I", payload, off)
        off += 4
        fields.append(payload[off:off + ln].decode("utf-8"))
        off += ln
    (n_values,) = struct.unpack_from("<Q", payload, off)
    off += 8
    need = n_values * 8
    if len(payload) - off != need:
        raise ValueError("value block has wrong length")
    values = np.frombuffer(payload, dtype="<f8", count=n_values, offset=off)
    return fields, values.copy()


def store(directory, gs: GroundState) -> Path:
    """Write a lambda = 1 ground state; returns the file path."""
    if gs.lam != 1.0:
        raise ValueError("only lambda = 1 profiles are cached; rescale on load")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fields = cache_key(gs.grid, gs.params) + [
        "lam=" + _fmt(gs.lam),
        "iterations=%d" % gs.iterations,
        "newton_steps=%d" % gs.newton_steps,
    ]
    blob = _encode(fields, gs.values)
    path = cache_path(directory, gs.grid, gs.params)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load(directory, grid: Grid, params: FracParams) -> GroundState | None:
    """Look up a profile; None on miss (absent, corrupt, or key mismatch)."""
    path = cache_path(directory, grid, params)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    try:
        fields, values = _decode(blob)
        meta = dict(f.partition("=")[::2] for f in fields)
        lam = float(meta.get("lam", "1"))
        iterations = int(meta.get("iterations", "0"))
        newton_steps = int(meta.get("newton_steps", "0"))
    except (ValueError, struct.error) as exc:
        log.warning("cache file %s unreadable (%s); treating as a miss",
                    path, exc)
        return None
    expected = dict(kv.partition("=")[::2] for kv in cache_key(grid, params))
    for name, val in expected.items():
        if meta.get(name) != val:
            log.warning("cache file %s keyed for %s=%s, wanted %s; miss",
                        path, name, meta.get(name), val)
            return None
    if values.size != int(np.prod(grid.shape)):
        log.warning("cache file %s has %d values, grid needs %d; miss",
                    path, values.size, int(np.prod(grid.shape)))
        return None
    values = values.reshape(grid.shape)
    return GroundState(
        grid=grid, params=params, lam=lam, values=values,
        residual_norm=_relative_residual(
            sp.FracOperator(grid, params.s, lam), values, params.p),
        iterations=iterations, newton_steps=newton_steps,
        energy=energy(grid, params, lam, values),
        decay=decay_fit(grid, params, values),
        source="cache",
    )


def cached_ground_state(grid: Grid, params: FracParams,
                        directory=None) -> GroundState:
    """Load the lambda = 1 profile or solve and store it.

    The cache key (s, p, dim, L, M) fixes the profile: `solve_ground_state`
    at lambda = 1 has no other setting."""
    from fracspike.ground_state import solve_ground_state

    directory = Path(directory) if directory is not None else default_cache_dir()
    gs = load(directory, grid, params)
    if gs is not None:
        log.info("ground state (s=%g, p=%g, dim=%d, L=%g, M=%d) from cache, "
                 "skipping solve", params.s, params.p, grid.dim,
                 grid.half_width, grid.points_per_axis)
        return gs
    gs = solve_ground_state(grid, params)
    store(directory, gs)
    return gs
