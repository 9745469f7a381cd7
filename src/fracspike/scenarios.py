"""Scenario files and the runner behind the CLI.

A scenario is a JSON document with a versioned schema field. Validation is
hand rolled so every message names the offending JSON path. Reports embed
the fully resolved configuration, outputs carry no wall-clock state, and
iteration orders are fixed, so identical scenario + cache state reproduces
identical bytes.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fracspike import cache as cache_io
from fracspike import kernels
from fracspike import reduced as rd
from fracspike import spectral as sp
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import (CorrectionOptions, certify,
                                  nonlinear_correction)
from fracspike.errors import ConfigError, SolverDivergence
from fracspike.grid import FracParams, Grid
from fracspike.ground_state import (GroundState, linearization_spectrum,
                                    rescale)
from fracspike.potentials import Potential, potential_from_config
from fracspike.ratefit import fit_rate

log = logging.getLogger(__name__)

__all__ = ["SCHEMA", "MODES", "Scenario", "RunResult", "load_scenario",
           "parse_scenario", "run_scenario"]

SCHEMA = "fracspike-scenario/1"
MODES = ("ground_state", "solve_k_spike", "epsilon_sweep",
         "asymptotics_check", "degree_check", "cluster")
# the tolerance keys each mode's runner reads, as README's table lists them
TOLERANCES = {"ground_state": (), "solve_k_spike": ("delta", "eta", "r_min"),
              "epsilon_sweep": ("delta", "eta", "r_min"),
              "asymptotics_check": ("n_distances",), "degree_check": (),
              "cluster": ()}
# the top-level keys each mode reads besides schema, name, mode, params, grid
# and tolerances; a mode that does not read one of UNREAD's keys accepts it
# only at the value resolved configs write for it
READS = {"ground_state": (),
         "solve_k_spike": ("potential", "epsilons", "seeds", "k"),
         "epsilon_sweep": ("potential", "epsilons", "seeds", "k"),
         "asymptotics_check": ("potential",),
         "degree_check": ("potential", "region"),
         "cluster": ("potential", "epsilons", "k", "region")}
UNREAD = {"potential": None, "epsilons": [], "k": 1, "region": None,
          "seeds": None}
KEYS = ("schema", "name", "mode", "params", "grid", "tolerances") + \
    tuple(UNREAD)


@dataclass
class Scenario:
    name: str
    mode: str
    params: FracParams
    grid: Grid
    potential: Potential | None
    epsilons: tuple
    k: int
    region: tuple | None
    seeds: np.ndarray | None
    tolerances: dict
    resolved: dict = field(repr=False, default_factory=dict)


@dataclass
class RunResult:
    status: int
    out_dir: Path
    files: list


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _get(doc: dict, key: str, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            _fail(f"{path}.{key}", "missing required field")
        return default
    return doc[key]


def _number(val, path: str, positive: bool = False) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(path, f"expected a number, got {val!r}")
    val = float(val)
    if positive and not val > 0:
        _fail(path, f"expected a positive number, got {val}")
    return val


def _integer(val, path: str, minimum: int | None = None) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        _fail(path, f"expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {val}")
    return val


def _parse_region(val, dim: int, path: str) -> tuple:
    if not isinstance(val, list) or len(val) != dim:
        _fail(path, f"expected a list of {dim} [lo, hi] intervals")
    out = []
    for i, pair in enumerate(val):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{path}[{i}]", "expected [lo, hi]")
        lo = _number(pair[0], f"{path}[{i}][0]")
        hi = _number(pair[1], f"{path}[{i}][1]")
        if not lo < hi:
            _fail(f"{path}[{i}]", f"expected lo < hi, got [{lo}, {hi}]")
        out.append((lo, hi))
    return tuple(out)


def parse_scenario(doc, origin: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        _fail(origin, "expected a JSON object at the top level")
    schema = _get(doc, "schema", origin)
    if schema != SCHEMA:
        _fail(f"{origin}.schema", f"expected {SCHEMA!r}, got {schema!r}")
    name = _get(doc, "name", origin)
    if not isinstance(name, str) or not name:
        _fail(f"{origin}.name", "expected a non-empty string")
    if any(ch in name for ch in "/\\") or name in (".", ".."):
        _fail(f"{origin}.name", f"not usable as a directory name: {name!r}")
    mode = _get(doc, "mode", origin)
    if mode not in MODES:
        _fail(f"{origin}.mode", f"expected one of {list(MODES)}, got {mode!r}")
    for key, val in doc.items():
        if key not in KEYS:
            _fail(f"{origin}.{key}", f"unknown key; expected one of "
                  f"{list(KEYS)}")
        blank = UNREAD.get(key, val)
        if key not in READS[mode] and (type(val), val) != (type(blank), blank):
            _fail(f"{origin}.{key}", f"not read in mode {mode!r}; omit it or "
                  f"set it to {json.dumps(blank)}")

    pdoc = _get(doc, "params", origin)
    if not isinstance(pdoc, dict):
        _fail(f"{origin}.params", "expected an object with s and p")
    s = _number(_get(pdoc, "s", f"{origin}.params"), f"{origin}.params.s",
                positive=True)
    p = _number(_get(pdoc, "p", f"{origin}.params"), f"{origin}.params.p")
    try:
        params = FracParams(s=s, p=p)
    except (ConfigError, ValueError) as exc:
        _fail(f"{origin}.params", str(exc))

    gdoc = _get(doc, "grid", origin)
    if not isinstance(gdoc, dict):
        _fail(f"{origin}.grid", "expected an object with dim, half_width, "
              "points")
    dim = _integer(_get(gdoc, "dim", f"{origin}.grid"), f"{origin}.grid.dim",
                   minimum=1)
    half_width = _number(_get(gdoc, "half_width", f"{origin}.grid"),
                         f"{origin}.grid.half_width", positive=True)
    points = _integer(_get(gdoc, "points", f"{origin}.grid"),
                      f"{origin}.grid.points", minimum=2)
    try:
        grid = Grid(dim, half_width, points)
        params.check_subcritical(dim)
    except (ConfigError, ValueError) as exc:
        _fail(f"{origin}.grid", str(exc))

    vdoc = _get(doc, "potential", origin, required=(mode != "ground_state"),
                default=None)
    potential = None
    if vdoc is not None:
        if not isinstance(vdoc, dict):
            _fail(f"{origin}.potential", "expected an object with a 'kind' "
                  "key and family parameters")
        try:
            potential = potential_from_config(vdoc)
        except ConfigError as exc:
            _fail(f"{origin}.potential", str(exc))

    eps_need = {"solve_k_spike": (1, 1), "epsilon_sweep": (3, None),
                "cluster": (1, 1)}
    epsilons = ()
    if mode in eps_need:
        lo, hi = eps_need[mode]
        raw = _get(doc, "epsilons", origin)
        if not isinstance(raw, list) or len(raw) < lo or \
                (hi is not None and len(raw) > hi):
            want = f"exactly {lo}" if hi == lo else f"at least {lo}"
            _fail(f"{origin}.epsilons", f"expected a list of {want} values")
        epsilons = tuple(
            _number(e, f"{origin}.epsilons[{i}]", positive=True)
            for i, e in enumerate(raw))

    seeds = None
    if mode in ("solve_k_spike", "epsilon_sweep"):
        raw = _get(doc, "seeds", origin)
        if not isinstance(raw, list) or not raw:
            _fail(f"{origin}.seeds", "expected a non-empty list of spike "
                  "positions (outer variable)")
        pts = []
        for i, pt in enumerate(raw):
            if not isinstance(pt, list) or len(pt) != dim:
                _fail(f"{origin}.seeds[{i}]",
                      f"expected a list of {dim} coordinates")
            pts.append([_number(x, f"{origin}.seeds[{i}][{j}]")
                        for j, x in enumerate(pt)])
        seeds = np.array(pts, dtype=float)

    k = _get(doc, "k", origin, required=(mode == "cluster"),
             default=len(seeds) if seeds is not None else 1)
    k = _integer(k, f"{origin}.k", minimum=1)
    if seeds is not None and k != len(seeds):
        _fail(f"{origin}.k", f"k = {k} but {len(seeds)} seeds given")
    if mode == "cluster" and k < 2:
        _fail(f"{origin}.k", "cluster mode needs k >= 2")

    region = None
    if mode in ("degree_check", "cluster"):
        region = _parse_region(_get(doc, "region", origin), dim,
                               f"{origin}.region")
        if mode == "cluster":
            try:
                rd._region_bounds(region, epsilons[0], grid)
            except ConfigError as exc:
                _fail(f"{origin}.region", str(exc))

    tolerances = _get(doc, "tolerances", origin, required=False, default={})
    if not isinstance(tolerances, dict):
        _fail(f"{origin}.tolerances", "expected an object")
    for key, val in tolerances.items():
        if key not in TOLERANCES[mode]:
            _fail(f"{origin}.tolerances.{key}", f"unknown key; expected one "
                  f"of {list(TOLERANCES[mode])} in mode {mode!r}")
        _number(val, f"{origin}.tolerances.{key}")

    resolved = {
        "schema": SCHEMA, "name": name, "mode": mode,
        "params": {"s": s, "p": p},
        "grid": {"dim": dim, "half_width": half_width, "points": points},
        "potential": vdoc, "epsilons": list(epsilons), "k": k,
        "region": [list(r) for r in region] if region else None,
        "seeds": seeds.tolist() if seeds is not None else None,
        "tolerances": dict(sorted(tolerances.items())),
    }
    return Scenario(name=name, mode=mode, params=params, grid=grid,
                    potential=potential, epsilons=epsilons, k=k,
                    region=region, seeds=seeds, tolerances=tolerances,
                    resolved=resolved)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}"
            f": {exc.msg}")
    return parse_scenario(doc, origin=str(path))


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = ["%.17g" % x if isinstance(x, float) else str(x)
                     for x in row]
            fh.write(",".join(cells) + "\n")


def _write_report(path: Path, scenario: Scenario, status: str, results: dict):
    doc = {"schema": SCHEMA + "/report", "scenario": scenario.resolved,
           "status": status, "results": results}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2,
                               allow_nan=True) + "\n", encoding="utf-8")


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def run_scenario(scenario, out_dir=None, cache_dir=None,
                 workers: int = 1) -> RunResult:
    """Execute a scenario (object or file path) and write its artifacts.

    Returns status 0 on success and 3 on solver divergence or a failed
    Newton certificate, with whatever was computed written and the error
    in the report. Schema problems raise ConfigError before any writing.

    ``workers`` has no effect, and only perfbench passes it: sweep entries
    run in order, which beat a 2-thread pool by 1.6-2.1x on 2 vCPUs (the
    entries contend for the GIL).
    """
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    out_root = Path(out_dir) if out_dir is not None else Path("out")
    run_dir = out_root / scenario.name
    run_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(cache_dir) if cache_dir is not None else \
        cache_io.default_cache_dir()

    runner = _RUNNERS[scenario.mode]
    files: list[Path] = []
    try:
        results = runner(scenario, run_dir, cache_dir, files)
    except SolverDivergence as exc:
        log.error("scenario %s: solver failure: %s", scenario.name, exc)
        report = run_dir / "report.json"
        _write_report(report, scenario, "solver_failure",
                      {"error": str(exc)})
        files.append(report)
        return RunResult(status=3, out_dir=run_dir, files=files)
    report = run_dir / "report.json"
    _write_report(report, scenario, "ok", results)
    files.append(report)
    return RunResult(status=0, out_dir=run_dir, files=files)


def _ground_state_mode(sc: Scenario, run_dir, cache_dir, files):
    gs = cache_io.cached_ground_state(sc.grid, sc.params,
                                      directory=cache_dir)
    files.append(cache_io.cache_path(cache_dir, sc.grid, sc.params))
    prof = run_dir / "profile.csv"
    if sc.grid.dim == 1:
        _write_csv(prof, ["x", "u"],
                   zip(sc.grid.axis.tolist(), gs.values.tolist()))
    else:
        r, v = sp.radial_profile(sc.grid, gs.values)
        _write_csv(prof, ["r", "u"], zip(r.tolist(), v.tolist()))
    files.append(prof)
    d = gs.decay
    spec = linearization_spectrum(gs)
    return {
        "source": gs.source,
        "energy": gs.energy,
        "residual_norm": gs.residual_norm,
        "iterations": gs.iterations,
        "newton_steps": gs.newton_steps,
        "decay_fit": {
            "c0": d.amplitude, "exponent": d.slope,
            "target_exponent": -(sc.grid.dim + 2.0 * sc.params.s),
            "variation": d.variation, "window": list(d.window),
            "ok": d.ok, "contaminated": d.contaminated,
        },
        "spectrum": {
            "lowest": spec.lowest, "eigenvalues": spec.eigenvalues.tolist(),
            "kernel_dim": spec.kernel_dim,
            "kernel_overlap": spec.kernel_overlap,
            "kernel_residual": spec.kernel_residual,
            "spectral_gap": spec.spectral_gap,
        },
    }


def _corrected_seeds(sc: Scenario, gs: GroundState, epsilon: float):
    """The ansatz of the seeds at epsilon and its converged correction."""
    tol = sc.tolerances
    cfg = SpikeConfig(sc.grid, sc.seeds / epsilon, epsilon,
                      delta=float(tol.get("delta", 0.05)),
                      r_min=float(tol.get("r_min", 4.0)))
    bundle = build_ansatz(sc.potential, cfg, gs)
    corr = nonlinear_correction(sc.potential, cfg, bundle, CorrectionOptions(
        eta=float(tol.get("eta", rd.SEARCH_ETA))))
    if not corr.converged:
        raise SolverDivergence(
            f"correction did not converge at epsilon = {epsilon}")
    return bundle, corr


def _solve_k_spike_mode(sc: Scenario, run_dir, cache_dir, files):
    epsilon = sc.epsilons[0]
    gs = cache_io.cached_ground_state(sc.grid, sc.params, directory=cache_dir)
    bundle, corr = _corrected_seeds(sc, gs, epsilon)
    cfg, newton = bundle.cfg, certify(sc.potential, bundle, corr)

    sol = run_dir / "solution.csv"
    if sc.grid.dim == 1:
        _write_csv(sol, ["x", "u"],
                   zip(sc.grid.axis.tolist(), newton.u.values.tolist()))
    else:
        stride = max(1, sc.grid.points_per_axis // 128)
        ax = sc.grid.axis[::stride]
        sub = newton.u.values[::stride, ::stride]
        rows = ((float(x), float(y), float(sub[i, j]))
                for i, x in enumerate(ax.tolist())
                for j, y in enumerate(ax.tolist()))
        _write_csv(sol, ["x", "y", "u"], rows)
    files.append(sol)
    failed = newton.failed_check(cfg)
    if failed:
        raise SolverDivergence(
            f"Newton certificate failed its {failed} check: residual "
            f"{newton.residual_norm:.3e}, min/sup {newton.min_over_sup:.3e}, "
            f"spikes at {_jsonable(epsilon * newton.spike_centers_detected)}")
    return {
        "epsilon": epsilon,
        "ansatz_error_norm_Y": bundle.E_norm_Y,
        "phi_norm_Y": corr.norm_Y,
        "max_abs_c": float(np.max(np.abs(corr.c))),
        "newton": {
            "converged": newton.converged,
            "residual_norm": newton.residual_norm,
            "initial_residual": newton.initial_residual,
            "iterations": newton.iterations,
            "min_over_sup": newton.min_over_sup,
            "spike_centers": _jsonable(newton.spike_centers_detected),
            "seed_centers": _jsonable(cfg.centers),
        },
    }


def _epsilon_sweep_mode(sc: Scenario, run_dir, cache_dir, files):
    gs = cache_io.cached_ground_state(sc.grid, sc.params, directory=cache_dir)
    rows = []
    for epsilon in sc.epsilons:
        bundle, corr = _corrected_seeds(sc, gs, epsilon)
        rows.append({"epsilon": epsilon, "E_norm_Y": bundle.E_norm_Y,
                     "phi_norm_Y": corr.norm_Y,
                     "ratio": corr.norm_Y / bundle.E_norm_Y,
                     "max_abs_c": float(np.max(np.abs(corr.c))),
                     "iterations": corr.iterations})

    csv = run_dir / "sweep.csv"
    _write_csv(csv, ["epsilon", "E_norm_Y", "phi_norm_Y", "ratio",
                     "max_abs_c", "iterations"],
               [(r["epsilon"], r["E_norm_Y"], r["phi_norm_Y"], r["ratio"],
                 r["max_abs_c"], r["iterations"]) for r in rows])
    files.append(csv)

    fit_E = fit_rate([(r["epsilon"], r["E_norm_Y"]) for r in rows])
    fit_phi = fit_rate([(r["epsilon"], r["phi_norm_Y"]) for r in rows])
    ratios = np.array([r["ratio"] for r in rows])
    s = sc.params.s
    return {
        "rows": rows,
        "rate_E": {"slope": fit_E.slope, "intercept": fit_E.intercept,
                   "r_squared": fit_E.r_squared,
                   "target": min(2.0 * s, 1.0)},
        "rate_phi": {"slope": fit_phi.slope, "intercept": fit_phi.intercept,
                     "r_squared": fit_phi.r_squared},
        "ratio_spread": float((ratios.max() - ratios.min()) / ratios.mean()),
    }


def _asymptotics_mode(sc: Scenario, run_dir, cache_dir, files):
    gs = cache_io.cached_ground_state(sc.grid, sc.params, directory=cache_dir)
    L = sc.grid.half_width
    n_d = int(sc.tolerances.get("n_distances", 5))
    d_list = np.linspace(0.2 * L, 0.4 * L, n_d)
    power = sc.grid.dim + 2.0 * sc.params.s
    lam = float(sc.potential(*np.zeros(sc.grid.dim))) if sc.potential else 1.0
    prof = rescale(gs, lam) if lam != 1.0 else gs
    h_vol = sc.grid.cell_volume
    model_c = rd.interaction_constants(gs, [lam, lam])[0, 1]
    rows = []
    for d in d_list:
        shift = np.zeros(sc.grid.dim)
        shift[0] = d
        w1 = sp.translate(prof.field, -shift / 2.0)
        w2 = sp.translate(prof.field, shift / 2.0)
        overlap = h_vol * float(np.sum(
            kernels.positive_power(w2.values, sc.params.p) * w1.values))
        rows.append((float(d), overlap * d ** power, model_c))
    csv = run_dir / "asymptotics.csv"
    _write_csv(csv, ["d", "overlap_scaled", "model"], rows)
    files.append(csv)
    scaled = np.array([r[1] for r in rows])
    variation = float((scaled.max() - scaled.min()) / scaled.mean())
    match = float(abs(scaled.mean() - model_c) / model_c)
    return {"lambda": lam, "power": power,
            "distances": [float(d) for d in d_list],
            "plateau_variation": variation, "model_constant": model_c,
            "model_match": match}


def _degree_mode(sc: Scenario, run_dir, cache_dir, files):
    degree = rd.brouwer_degree(sc.potential, list(sc.region))
    return {"box": [list(r) for r in sc.region], "degree": degree}


def _cluster_mode(sc: Scenario, run_dir, cache_dir, files):
    epsilon = sc.epsilons[0]
    gs = cache_io.cached_ground_state(sc.grid, sc.params, directory=cache_dir)
    out = rd.cluster_search(sc.potential, epsilon, sc.k, list(sc.region), gs)
    hist = run_dir / "cluster_history.csv"
    dim = sc.grid.dim
    header = ["step", "kind", "I", "max_abs_c"] + [
        f"xi_{i}_{a}" for i in range(sc.k) for a in range(dim)]
    _write_csv(hist, header,
               [(h["step"], h["kind"], h["I"], h["max_abs_c"]) + tuple(h["xi"])
                for h in out.history])
    files.append(hist)
    _, pts = rd.region_lattice(sc.region, 65)
    v_max = float(np.max([sc.potential(*x) for x in pts]))
    return {
        "epsilon": epsilon, "k": sc.k,
        "xi_star": _jsonable(out.xi_star),
        "V_at_spikes": _jsonable(out.V_at_spikes),
        "V_max_on_region": v_max,
        "within_5pct_of_max": bool(np.all(out.V_at_spikes >= 0.95 * v_max)),
        "boundary_stuck": out.boundary_stuck,
        "separation_floor_xi": epsilon ** (1.0 - sc.params.s / 4.0),
        "min_separation_xi":
            epsilon * float(np.min(out.q_star.separations())),
        "I_value": out.I_value,
        "max_abs_c": out.max_abs_c,
        "stop": out.stop,
    }


_RUNNERS = {
    "ground_state": _ground_state_mode,
    "solve_k_spike": _solve_k_spike_mode,
    "epsilon_sweep": _epsilon_sweep_mode,
    "asymptotics_check": _asymptotics_mode,
    "degree_check": _degree_mode,
    "cluster": _cluster_mode,
}
