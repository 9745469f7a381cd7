"""Workload inputs, cases and certification checks of the fracspike benchmark.

Each workload is a list of cases. One case is one scenario run through
certification: it calls the program, checks the certified outcome, and
returns the outputs that a faster program must reproduce exactly. A case
that raises, or fails a check, counts as failed.

Seed 0 reproduces the acceptance-criterion configurations exactly. Other
seeds move each bump configuration and scale its depths and widths
slightly (see _Jitter); every check is derived from the generated inputs.

Program functions are looked up as module attributes at call time, so the
tracing hooks see the calls this file makes.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fracspike import ansatz, cache, correction, ground_state, scenarios
from fracspike import reduced as rd
from fracspike.grid import Field, FracParams, Grid
from fracspike.potentials import builtin_potentials

WORKLOADS = ("two_well_2d", "searches_1d")

PARAMS = {"s": 0.5, "p": 2.0}
GRID_1D = {"dim": 1, "half_width": 40.0, "points": 1024}
GRID_2D = {"dim": 2, "half_width": 20.0, "points": 256}
CERT_ETA = 0.5          # fixed-point gate of the certifying correction
CENTER_JITTER = 0.05    # absolute, largest shift of a configuration
SHAPE_JITTER = 0.02     # relative, on depths and widths


class CertificationError(Exception):
    """A case produced an answer that fails its certificate."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CertificationError(msg)


def _r(x: float) -> float:
    return round(float(x), 9)


class _Jitter:
    """Seeded perturbations; seed 0 leaves every value exactly as given.

    A configuration moves as a whole by whole grid cells, its search region
    with it, and its bumps share one depth factor and one width factor.
    That keeps each well where it was against the grid and the search's
    seed lattice, and keeps the two-well configurations mirror-symmetric,
    so the searches do about the same work on every seed. Moving each
    centre on its own instead took the 2d search from 23 to 42 corrections.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed) if seed else None

    def factor(self) -> float:
        if self.rng is None:
            return 1.0
        return 1.0 + self.rng.uniform(-SHAPE_JITTER, SHAPE_JITTER)

    def offset(self, grid: dict, eps: float) -> list[float]:
        """A shift by whole grid cells, in the outer variable, per axis."""
        if self.rng is None:
            return [0.0] * grid["dim"]
        cell = 2.0 * grid["half_width"] / grid["points"] * eps
        n = int(CENTER_JITTER / cell)
        return [int(k) * cell
                for k in self.rng.integers(-n, n + 1, grid["dim"])]


def _configuration(off, centers, b: float, sigma: float,
                   region) -> tuple[list, list]:
    """Bumps at the shifted centres and the shifted search region."""
    bumps = [{"b": b, "center": [c + d for c, d in zip(cen, off)],
              "sigma": sigma} for cen in centers]
    return bumps, [[_r(lo + d), _r(hi + d)]
                   for (lo, hi), d in zip(region, off)]


def _boxes(bumps: list[dict], half: float) -> list[list[list[float]]]:
    """Degree-1 box around each bump centre (criterion 11)."""
    return [[[_r(x - half), _r(x + half)] for x in bump["center"]]
            for bump in bumps]


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload, as plain JSON data, from the seed."""
    jit = _Jitter(seed)
    if workload == "two_well_2d":
        bumps, region = _configuration(
            jit.offset(GRID_2D, 0.1), ([-1.0, 0.0], [1.0, 0.0]),
            _r(-0.9 * jit.factor()), _r(0.6 * jit.factor()),
            [(-1.6, 1.6), (-0.6, 0.6)])
        return {"grid": GRID_2D, "params": PARAMS, "two_well": {
            "a": 2.0, "bumps": bumps, "boxes": _boxes(bumps, 0.6),
            "region": region, "epsilon": 0.1}}
    if workload == "searches_1d":
        pair = ([-1.0], [1.0])
        bumps, region = _configuration(
            jit.offset(GRID_1D, 0.1), pair, _r(-0.9 * jit.factor()),
            _r(0.5 * jit.factor()), [(-2.0, 2.0)])
        # moved only: reshaping the bump changed the length of the ascent
        cluster, cluster_region = _configuration(
            jit.offset(GRID_1D, 0.1), ([0.0],), 1.0, 1.0, [(-1.5, 1.5)])
        sweep, _ = _configuration(
            jit.offset(GRID_1D, 0.05), pair, _r(-0.9 * jit.factor()),
            _r(0.5 * jit.factor()), [])
        return {"grid": GRID_1D, "params": PARAMS,
                "two_well": {"a": 2.0, "bumps": bumps,
                             "boxes": _boxes(bumps, 0.5), "region": region,
                             "epsilon": 0.1},
                # not jittered: criterion 9 certifies at V(xi*) = 1, where
                # the spike is the solved profile rather than a rescaled one
                "minimum": {"well": {"a": 2.0, "b": 1.0},
                            "region": [[-2.0, 2.0]],
                            "epsilons": [0.2, 0.1, 0.05]},
                "cluster": {"a": 1.0, "bumps": cluster,
                            "region": cluster_region, "epsilon": 0.1,
                            "k": 2},
                "sweep": {"a": 2.0, "bumps": sweep,
                          "seeds": [b["center"] for b in sweep],
                          "epsilons": [0.2, 0.15, 0.1, 0.075, 0.05],
                          "workers": 2}}
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def _grid(doc: dict) -> Grid:
    return Grid(doc["dim"], doc["half_width"], doc["points"])


def _params(doc: dict) -> FracParams:
    return FracParams(doc["s"], doc["p"])


@dataclass
class Context:
    """What the cases of one run share: inputs, profiles, directories."""

    workload: str
    inputs: dict
    cache_dir: Path
    work_dir: Path
    gs: object = None
    profile: object = None
    outputs: dict = field(default_factory=dict)


def warm(workload: str, cache_dir: Path) -> None:
    """Fill the profile cache the workload's set-up loads (untimed)."""
    inputs = make_inputs(workload, 0)
    cache.cached_ground_state(_grid(inputs["grid"]),
                              _params(inputs["params"]),
                              directory=cache_dir)


def setup(workload: str, seed: int, cache_dir: Path,
          work_dir: Path) -> Context:
    """Inputs ready: generated inputs plus the profile loaded from the cache."""
    ctx = Context(workload, make_inputs(workload, seed), Path(cache_dir),
                  Path(work_dir))
    ctx.gs = cache.cached_ground_state(_grid(ctx.inputs["grid"]),
                                       _params(ctx.inputs["params"]),
                                       directory=ctx.cache_dir)
    if ctx.gs.source != "cache":
        raise RuntimeError("profile cache was not warmed before set-up")
    return ctx


# ------------------------------------------------------------------ cases

def _certify_spikes(V, gs, cfg, epsilon, boxes):
    """Correct at the found configuration, certify with Newton, check boxes."""
    bundle = ansatz.build_ansatz(V, cfg, gs)
    corr = correction.nonlinear_correction(
        V, cfg, bundle, correction.CorrectionOptions(eta=CERT_ETA))
    require(corr.converged, "certifying correction did not converge")
    seed = Field(gs.grid, bundle.W.values + corr.phi.values)
    newton = correction.full_newton_solve(V, epsilon, seed, gs.params)
    require(newton.converged,
            f"Newton did not converge (residual {newton.residual_norm:.3e})")
    spots = epsilon * newton.spike_centers_detected
    require(spots.shape[0] == len(boxes),
            f"{spots.shape[0]} spikes detected, expected {len(boxes)}")
    for box in boxes:
        hits = [pt for pt in spots
                if all(lo <= x <= hi for x, (lo, hi) in zip(pt, box))]
        require(len(hits) == 1, f"box {box} holds {len(hits)} spikes")
    return seed, newton


def _two_well(ctx: Context) -> dict:
    """Criterion 11: degree-1 boxes give one certified spike per box."""
    spec = ctx.inputs["two_well"]
    V = builtin_potentials("gaussian_bumps", a=spec["a"], bumps=spec["bumps"])
    for box in spec["boxes"]:
        require(rd.brouwer_degree(V, box) == 1, f"box {box} has degree != 1")
    eps = spec["epsilon"]
    region = [tuple(r) for r in spec["region"]]
    out = rd.critical_point_search(V, eps, len(spec["bumps"]), region,
                                   "minimize_V", ctx.gs)
    require(out.converged and out.max_abs_c <= out.c_tol,
            f"search not certified: max|c| {out.max_abs_c:.3e} > "
            f"c_tol {out.c_tol:.3e}")
    _, newton = _certify_spikes(V, ctx.gs, out.q_star, eps,
                                      spec["boxes"])
    return {"xi_star": out.xi_star.tolist(), "max_abs_c": out.max_abs_c,
            "newton_residual": newton.residual_norm}


def _minimum(epsilon: float):
    def case(ctx: Context) -> dict:
        """Criteria 9 and 10: a certified single spike at the well bottom."""
        spec = ctx.inputs["minimum"]
        V = builtin_potentials("well", **spec["well"])
        region = [tuple(r) for r in spec["region"]]
        out = rd.critical_point_search(V, epsilon, 1, region, "minimize_V",
                                       ctx.gs)
        require(out.converged and out.max_abs_c <= out.c_tol,
                f"search not certified: max|c| {out.max_abs_c:.3e}")
        seed, newton = _certify_spikes(V, ctx.gs, out.q_star, epsilon,
                                       [spec["region"]])
        require(newton.iterations <= 5,
                f"Newton took {newton.iterations} steps from the seed")
        moved = float(np.max(np.abs(newton.u.values - seed.values)))
        require(moved <= 1e-6, f"Newton moved {moved:.3e} from the seed")
        grid = ctx.gs.grid
        det = newton.spike_centers_detected[0]
        require(grid.periodic_distance(det, out.q_star.centers[0])
                <= grid.spacing, "detected spike away from the search result")
        xi = max(float(np.max(np.abs(out.xi_star))), 1e-6)
        gap = max(float(V(*out.xi_star[0])) - float(V(0.0)), 1e-12)
        # criterion 10: |xi*| and the V-gap shrink with epsilon
        for prev in ctx.outputs.values():
            if "gap" in prev and prev["epsilon"] > epsilon:
                require(xi <= prev["xi_abs"], "|xi*| not monotone in epsilon")
                require(gap <= max(prev["gap"] / 2.0, 1e-12),
                        "V-gap does not halve as epsilon shrinks")
        return {"epsilon": epsilon, "xi_star": out.xi_star.tolist(),
                "max_abs_c": out.max_abs_c,
                "newton_residual": newton.residual_norm,
                "xi_abs": xi, "gap": gap}
    return case


def _scenario_doc(name: str, mode: str, inputs: dict, spec: dict,
                  **extra) -> dict:
    return {"schema": scenarios.SCHEMA, "name": name, "mode": mode,
            "params": inputs["params"], "grid": inputs["grid"],
            "potential": {"kind": "gaussian_bumps", "a": spec["a"],
                          "bumps": spec["bumps"]}, **extra}


def _run_doc(ctx: Context, doc: dict, workers: int = 1) -> dict:
    sc = scenarios.parse_scenario(doc)
    res = scenarios.run_scenario(sc, out_dir=ctx.work_dir,
                                 cache_dir=ctx.cache_dir, workers=workers)
    report = json.loads((res.out_dir / "report.json").read_text("utf-8"))
    require(res.status == 0 and report["status"] == "ok",
            f"scenario {doc['name']} exited {res.status}: "
            f"{report['results'].get('error', '')}")
    return report["results"]


def _cluster(ctx: Context) -> dict:
    """Criterion 12: interior maximizer near max V, or a boundary report."""
    spec = ctx.inputs["cluster"]
    res = _run_doc(ctx, _scenario_doc(
        "bench-cluster", "cluster", ctx.inputs, spec,
        epsilons=[spec["epsilon"]], k=spec["k"], region=spec["region"]))
    require(res["min_separation_xi"] >= res["separation_floor_xi"] - 1e-12,
            "cluster separation below the floor")
    interior_ok = (not res["boundary_stuck"]) and res["within_5pct_of_max"]
    require(interior_ok or res["boundary_stuck"],
            "cluster maximizer neither interior near max V nor on the "
            "separation boundary")
    return {"xi_star": res["xi_star"], "I_value": res["I_value"],
            "boundary_stuck": res["boundary_stuck"]}


def _sweep(ctx: Context) -> dict:
    """Epsilon sweep of a two-spike ansatz through the threaded runner."""
    spec = ctx.inputs["sweep"]
    res = _run_doc(ctx, _scenario_doc(
        "bench-sweep", "epsilon_sweep", ctx.inputs, spec,
        epsilons=spec["epsilons"], seeds=spec["seeds"]),
        workers=spec["workers"])
    rows = res["rows"]
    require([r["epsilon"] for r in rows] == spec["epsilons"],
            "sweep rows do not match the requested epsilons")
    max_iter = correction.CorrectionOptions().max_iter
    for r in rows:
        require(r["iterations"] < max_iter and np.isfinite(r["phi_norm_Y"]),
                f"sweep correction at eps {r['epsilon']} not converged")
    return {"rows": [[r["epsilon"], r["phi_norm_Y"], r["max_abs_c"]]
                     for r in rows]}


def _nondegenerate_ground_state(ctx: Context) -> dict:
    """Criterion 5: a cold profile solve, kernel = span{dw/dx_j}."""
    grid, params = _grid(ctx.inputs["grid"]), _params(ctx.inputs["params"])
    gs = ctx.profile = ground_state.solve_ground_state(grid, params)
    require(gs.residual_norm <= 1e-10,
            f"profile residual {gs.residual_norm:.3e} > 1e-10")
    spec = ground_state.linearization_spectrum(gs, kernel_tol=1e-3)
    require(spec.kernel_dim == grid.dim,
            f"kernel_dim {spec.kernel_dim}, expected {grid.dim}")
    require(spec.kernel_overlap >= 0.99,
            f"kernel overlap {spec.kernel_overlap:.4f} < 0.99")
    require(spec.spectral_gap >= 0.1 * gs.lam,
            f"spectral gap {spec.spectral_gap:.4f} < 0.1")
    return {"residual": gs.residual_norm, "energy": gs.energy,
            "eigenvalues": spec.eigenvalues.tolist()}


def _gs_cache_roundtrip(ctx: Context) -> dict:
    """Store the fresh profile and load it back bit for bit."""
    gs = ctx.profile
    directory = ctx.work_dir / "roundtrip"
    shutil.rmtree(directory, ignore_errors=True)
    cache.store(directory, gs)
    back = cache.cached_ground_state(gs.grid, gs.params, directory=directory)
    require(back.source == "cache", "round trip missed the cache")
    require(np.array_equal(back.values, gs.values),
            "cached profile differs from the stored one")
    return {"residual": back.residual_norm}


def cases(ctx: Context) -> list[tuple[str, object]]:
    if ctx.workload == "two_well_2d":
        return [("two_well", _two_well)]
    if ctx.workload == "searches_1d":
        return ([("two_well", _two_well)]
                + [(f"minimum_eps{e:g}", _minimum(e))
                   for e in ctx.inputs["minimum"]["epsilons"]]
                + [("cluster", _cluster), ("sweep", _sweep),
                   ("ground_state", _nondegenerate_ground_state),
                   ("cache_roundtrip", _gs_cache_roundtrip)])
    raise ValueError(f"unknown workload {ctx.workload!r}; known: {WORKLOADS}")
