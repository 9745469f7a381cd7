"""Scenario schema, runner artifacts, and the command line interface.

Runner tests share one module-scoped cache directory so the profile solve
happens once; determinism checks compare repeat runs byte for byte against
that warm cache.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fracspike
from fracspike import _krylov, cli, scenarios
from fracspike.errors import ConfigError
from fracspike.scenarios import (SCHEMA, load_scenario, parse_scenario,
                                 run_scenario)

GRID = {"dim": 1, "half_width": 40.0, "points": 1024}
PARAMS = {"s": 0.5, "p": 2.0}
WELL = {"kind": "well", "a": 2.0, "b": 1.0}


def make_doc(mode="ground_state", **over):
    doc = {"schema": SCHEMA, "name": "t-" + mode, "mode": mode,
           "params": dict(PARAMS), "grid": dict(GRID)}
    if mode != "ground_state":
        doc["potential"] = dict(WELL)
    if mode in ("solve_k_spike", "cluster"):
        doc["epsilons"] = [0.1]
    elif mode == "epsilon_sweep":
        doc["epsilons"] = [0.2, 0.1, 0.05]
    if mode in ("solve_k_spike", "epsilon_sweep"):
        doc["seeds"] = [[0.0]]
    if mode == "degree_check":
        doc["region"] = [[-1.0, 1.0]]
    elif mode == "cluster":
        doc["k"] = 2
        doc["region"] = [[-1.5, 1.5]]
    doc.update(over)
    return doc


def _without(key, mode="solve_k_spike"):
    doc = make_doc(mode)
    del doc[key]
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fspk-cache")


# ---------------------------------------------------------------- schema

BAD_DOCS = [
    pytest.param(_without("schema", "ground_state"),
                 "scenario.schema: missing required field", id="no-schema"),
    pytest.param(make_doc(schema="fracspike-scenario/9"),
                 "scenario.schema: expected", id="wrong-schema"),
    pytest.param(make_doc(name=""), "scenario.name", id="empty-name"),
    pytest.param(make_doc(name="a/b"), "not usable as a directory name",
                 id="slash-name"),
    pytest.param(make_doc("warp"), "scenario.mode: expected one of",
                 id="unknown-mode"),
    pytest.param(make_doc(params={"s": 0.5}),
                 "scenario.params.p: missing required field", id="no-p"),
    pytest.param(make_doc(params={"s": True, "p": 2.0}),
                 "scenario.params.s: expected a number, got True",
                 id="bool-s"),
    pytest.param(make_doc(params={"s": -0.2, "p": 2.0}),
                 "scenario.params.s: expected a positive number",
                 id="negative-s"),
    pytest.param(make_doc(params={"s": 0.25, "p": 4.0}), "scenario.grid",
                 id="supercritical"),
    pytest.param(make_doc(grid={"dim": 1, "half_width": 40.0,
                                "points": 1000}),
                 "scenario.grid:", id="points-not-pow2"),
    pytest.param(make_doc(grid={"dim": 1, "half_width": 40.0,
                                "points": True}),
                 "scenario.grid.points: expected an integer, got True",
                 id="bool-points"),
    pytest.param(make_doc(grid={"dim": 1, "half_width": -4.0,
                                "points": 256}),
                 "scenario.grid.half_width: expected a positive number",
                 id="negative-L"),
    pytest.param(_without("potential"),
                 "scenario.potential: missing required field",
                 id="no-potential"),
    pytest.param(make_doc("solve_k_spike", potential={"kind": "vortex"}),
                 "scenario.potential: unknown potential kind",
                 id="unknown-potential"),
    pytest.param(make_doc("solve_k_spike", potential=5),
                 "scenario.potential: expected an object",
                 id="potential-not-object"),
    pytest.param(make_doc("solve_k_spike", epsilons=[0.1, 0.2]),
                 "scenario.epsilons: expected a list of exactly 1 values",
                 id="too-many-eps"),
    pytest.param(make_doc("epsilon_sweep", epsilons=[0.2, 0.1]),
                 "at least 3", id="too-few-eps"),
    pytest.param(make_doc("epsilon_sweep", epsilons=[0.2, -0.1, 0.05]),
                 "scenario.epsilons[1]: expected a positive number",
                 id="negative-eps"),
    pytest.param(_without("seeds"),
                 "scenario.seeds: missing required field", id="no-seeds"),
    pytest.param(make_doc("solve_k_spike", seeds=[[0.0, 1.0]]),
                 "scenario.seeds[0]: expected a list of 1 coordinates",
                 id="seed-wrong-dim"),
    pytest.param(make_doc("solve_k_spike", seeds=[["mid"]]),
                 "scenario.seeds[0][0]: expected a number",
                 id="seed-not-number"),
    pytest.param(make_doc("epsilon_sweep", k=3),
                 "scenario.k: k = 3 but 1 seeds given", id="k-mismatch"),
    pytest.param(make_doc("cluster", k=1),
                 "cluster mode needs k >= 2", id="cluster-k1"),
    pytest.param(_without("region", "degree_check"),
                 "scenario.region: missing required field", id="no-region"),
    pytest.param(make_doc("degree_check", region=[[1.0, -1.0]]),
                 "scenario.region[0]: expected lo < hi", id="reversed-box"),
    pytest.param(make_doc("degree_check", region=[[0.0, 1.0], [0.0, 1.0]]),
                 "scenario.region: expected a list of 1 [lo, hi] intervals",
                 id="region-wrong-dim"),
    pytest.param(make_doc("cluster", region=[[0.5]]),
                 "scenario.region[0]: expected [lo, hi]", id="half-box"),
    pytest.param(make_doc(tolerances=7),
                 "scenario.tolerances: expected an object",
                 id="tolerances-not-object"),
    pytest.param(make_doc("solve_k_spike", tolerances={"eta": "small"}),
                 "scenario.tolerances.eta: expected a number",
                 id="tolerance-not-number"),
    pytest.param(make_doc(tolerances={"r-min": 2.0}),
                 "scenario.tolerances.r-min: unknown key",
                 id="tolerance-unknown-key"),
] + [
    # each mode takes only the keys its runner reads
    pytest.param(make_doc(mode, tolerances={key: 1.0}),
                 f"scenario.tolerances.{key}: unknown key",
                 id=f"tolerance-{key}-in-{mode}")
    for mode, key in (("ground_state", "eta"), ("solve_k_spike", "seed"),
                      ("epsilon_sweep", "n_distances"),
                      ("asymptotics_check", "delta"),
                      ("degree_check", "seed"), ("cluster", "eta"),
                      ("cluster", "seed"))
] + [
    # a top-level key outside the schema, or one the mode does not read
    pytest.param(make_doc("asymptotics_check", tolerence={"n_distances": 3}),
                 "scenario.tolerence: unknown key", id="unknown-top-key"),
    pytest.param(make_doc("asymptotics_check", seeds=[[0.0]]),
                 "scenario.seeds: not read in mode 'asymptotics_check'",
                 id="seeds-in-asymptotics_check"),
    pytest.param(make_doc("degree_check", epsilons=[0.1]),
                 "scenario.epsilons: not read in mode 'degree_check'",
                 id="epsilons-in-degree_check"),
    pytest.param(make_doc("solve_k_spike", region=[[-1.0, 1.0]]),
                 "scenario.region: not read in mode 'solve_k_spike'",
                 id="region-in-solve_k_spike"),
    pytest.param(make_doc(potential=dict(WELL)),
                 "scenario.potential: not read in mode 'ground_state'",
                 id="potential-in-ground_state"),
    pytest.param(make_doc("degree_check", k=True),
                 "scenario.k: not read in mode 'degree_check'",
                 id="k-in-degree_check"),
]


@pytest.mark.parametrize("doc,needle", BAD_DOCS)
def test_schema_errors_name_the_json_path(doc, needle):
    with pytest.raises(ConfigError) as ei:
        parse_scenario(doc)
    assert needle in str(ei.value)


def test_top_level_must_be_object():
    with pytest.raises(ConfigError, match="expected a JSON object"):
        parse_scenario([1, 2, 3])


def test_minimal_ground_state_parses():
    sc = parse_scenario(make_doc())
    assert sc.mode == "ground_state"
    assert sc.potential is None and sc.region is None
    assert sc.k == 1 and sc.epsilons == ()


def test_k_defaults_to_seed_count():
    sc = parse_scenario(make_doc("epsilon_sweep",
                                 seeds=[[-8.0], [8.0]]))
    assert sc.k == 2
    assert sc.seeds.shape == (2, 1)


def test_resolved_config_reparses_identically():
    # the sweep command rebuilds a scenario from the resolved block, so
    # resolved -> parse must be a fixed point (including null region/seeds)
    sc = parse_scenario(make_doc("epsilon_sweep"))
    again = parse_scenario(json.loads(json.dumps(sc.resolved)))
    assert again.resolved == sc.resolved


@pytest.mark.parametrize("mode", scenarios.MODES)
def test_every_mode_reparses_its_resolved_config(mode):
    """The resolved config writes null or empty values for the keys a mode
    does not read, and those values parse."""
    sc = parse_scenario(make_doc(mode))
    assert set(sc.resolved) == set(scenarios.KEYS)
    assert parse_scenario(json.loads(json.dumps(sc.resolved))).resolved \
        == sc.resolved


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": }', encoding="utf-8")
    with pytest.raises(ConfigError) as ei:
        load_scenario(path)
    assert "malformed JSON at line 1, column 12" in str(ei.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError) as ei:
        load_scenario(tmp_path / "absent.json")
    assert "cannot read scenario file" in str(ei.value)


# ---------------------------------------------------------------- runner

def test_ground_state_run_artifacts(tmp_path):
    # cold cache on a small grid so the solve provenance is deterministic
    doc = make_doc(grid={"dim": 1, "half_width": 20.0, "points": 256})
    path = write_doc(tmp_path, doc)
    res = run_scenario(path, out_dir=tmp_path / "out",
                       cache_dir=tmp_path / "cache")
    assert res.status == 0
    assert res.out_dir == tmp_path / "out" / doc["name"]
    names = [f.name for f in res.files]
    assert "profile.csv" in names and "report.json" in names
    assert any(f.suffix == ".fspk" and f.exists() for f in res.files)

    data = np.loadtxt(res.out_dir / "profile.csv", delimiter=",",
                      skiprows=1)
    assert data.shape == (256, 2)
    assert data[0, 0] == -20.0
    assert data[:, 1].max() > 1.0

    report = json.loads((res.out_dir / "report.json").read_text())
    assert report["schema"] == SCHEMA + "/report"
    assert report["status"] == "ok"
    results = report["results"]
    assert results["source"] == "solve"
    assert results["residual_norm"] < 1e-8
    assert results["decay_fit"]["target_exponent"] == -2.0
    spec = results["spectrum"]
    assert len(spec["eigenvalues"]) == 3
    assert spec["lowest"] == spec["eigenvalues"][0] < 0
    assert spec["kernel_dim"] == 1 and spec["kernel_overlap"] >= 0.99
    assert spec["spectral_gap"] >= 0.1
    assert report["scenario"] == parse_scenario(doc).resolved


@pytest.mark.parametrize("mode", scenarios.MODES)
def test_warm_cache_reruns_are_byte_identical(tmp_path, cache_dir, mode):
    """Every mode, rerun on a warm cache, once with workers=2, writes the
    same artifacts byte for byte; the ground state comes from the cache."""
    path = write_doc(tmp_path, make_doc(mode))
    run_scenario(path, out_dir=tmp_path / "seed", cache_dir=cache_dir)
    run_a = run_scenario(path, out_dir=tmp_path / "a", cache_dir=cache_dir)
    run_b = run_scenario(path, out_dir=tmp_path / "b", cache_dir=cache_dir,
                         workers=2)
    assert run_a.status == run_b.status == 0
    names = sorted(f.name for f in run_a.out_dir.iterdir())
    assert names == sorted(f.name for f in run_b.out_dir.iterdir())
    assert "report.json" in names
    for name in names:
        assert (run_a.out_dir / name).read_bytes() == \
            (run_b.out_dir / name).read_bytes()
    if mode == "ground_state":
        rep = json.loads((run_a.out_dir / "report.json").read_text())
        assert rep["results"]["source"] == "cache"
        assert rep["results"]["spectrum"]["kernel_dim"] == 1


def test_degree_mode_report(tmp_path):
    for box, want in [([[-1.0, 1.0]], 1), ([[0.5, 1.5]], 0)]:
        doc = make_doc("degree_check", name=f"deg{want}", region=box)
        res = run_scenario(write_doc(tmp_path, doc, f"d{want}.json"),
                           out_dir=tmp_path / "out",
                           cache_dir=tmp_path / "cache")
        assert res.status == 0
        report = json.loads((res.out_dir / "report.json").read_text())
        assert report["results"]["degree"] == want
        assert report["results"]["box"] == box


def test_cluster_report_says_why_the_ascent_stopped(tmp_path, cache_dir):
    """The cluster report carries the search's stop reason and its history
    the kind of each step, from the model-relaxed start on; warm-cache
    reruns are byte-identical."""
    doc = make_doc("cluster", potential={
        "kind": "gaussian_bumps", "a": 1.0,
        "bumps": [{"b": 1.0, "center": [0.0], "sigma": 1.0}]})
    path = write_doc(tmp_path, doc)
    runs = [run_scenario(path, out_dir=tmp_path / name, cache_dir=cache_dir)
            for name in ("a", "b")]
    report = json.loads((runs[0].out_dir / "report.json").read_text())
    assert report["results"]["stop"] == "converged"
    rows = (runs[0].out_dir / "cluster_history.csv").read_text().splitlines()
    assert rows[0].startswith("step,kind,I,max_abs_c,")
    assert rows[1].split(",")[1] == "model_start"
    for name in ("report.json", "cluster_history.csv"):
        assert (runs[0].out_dir / name).read_bytes() == \
            (runs[1].out_dir / name).read_bytes()


def test_solve_k_spike_artifacts(tmp_path, cache_dir):
    doc = make_doc("solve_k_spike")
    res = run_scenario(write_doc(tmp_path, doc), out_dir=tmp_path / "out",
                       cache_dir=cache_dir)
    assert res.status == 0
    report = json.loads((res.out_dir / "report.json").read_text())
    results = report["results"]
    assert results["epsilon"] == 0.1
    assert 0 < results["phi_norm_Y"] < results["ansatz_error_norm_Y"]
    assert results["max_abs_c"] < 1e-3
    newton = results["newton"]
    assert newton["converged"]
    assert newton["residual_norm"] < 1e-8
    assert newton["min_over_sup"] > -1e-6
    (center,) = newton["spike_centers"]
    h = 2.0 * GRID["half_width"] / GRID["points"]
    assert abs(center[0]) <= h

    sol = np.loadtxt(res.out_dir / "solution.csv", delimiter=",",
                     skiprows=1)
    assert sol.shape == (GRID["points"], 2)
    assert sol[:, 1].max() > 0.5


def test_2d_writers(tmp_path, cache_dir):
    """In 2d the ground state writes its radial profile, and solve_k_spike
    its solution at every node of a grid of at most 128 points per axis."""
    grid = {"dim": 2, "half_width": 10.0, "points": 64}
    gs = run_scenario(write_doc(tmp_path, make_doc(name="gs2d", grid=grid)),
                      out_dir=tmp_path, cache_dir=cache_dir)
    rows = (gs.out_dir / "profile.csv").read_text().splitlines()
    assert gs.status == 0
    assert rows[0] == "r,u" and len(rows) == 34
    k = run_scenario(write_doc(tmp_path, make_doc(
        "solve_k_spike", name="k2d", grid=grid, seeds=[[0.0, 0.0]])),
        out_dir=tmp_path, cache_dir=cache_dir)
    rows = (k.out_dir / "solution.csv").read_text().splitlines()
    assert k.status == 0
    assert rows[0] == "x,y,u" and len(rows) == 1 + 64 ** 2


def test_cluster_region_must_fit_the_torus(tmp_path, capsys):
    """|xi| / eps up to 50 on a box of L = 40: the scenario refuses the
    region when parsed, as the critical-point search does, rather than wrap
    a spike around the torus. Nothing is written, neither a run directory
    nor a profile in the cache, and the command line exits 2."""
    path = write_doc(tmp_path, make_doc("cluster", region=[[-5.0, 5.0]]))
    cache = tmp_path / "cache"
    with pytest.raises(ConfigError, match=r"scenario\.json\.region: region "
                       "does not fit inside the torus"):
        run_scenario(path, out_dir=tmp_path / "out", cache_dir=cache)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "cli"),
                   "--cache", str(cache)])
    assert "does not fit inside the torus" in capsys.readouterr().err
    assert rc == 2
    for left in ("out", "cli", "cache"):
        assert not (tmp_path / left).exists()


@pytest.mark.parametrize("potential, needle", [
    ({"kind": "user_table", "axes": [[-2.0, 0.0, 2.0]],
      "values": [3.0, 1.0, 3.0]}, "table has 1 axes, coordinates have 2"),
    ({"kind": "gaussian_bumps", "a": 2.0,
      "bumps": [{"b": -0.9, "center": [0.0], "sigma": 0.5}]},
     "bump center has 1 components, coordinates have 2"),
], ids=["user_table", "gaussian_bumps"])
def test_potential_of_another_dimension_is_refused(tmp_path, potential,
                                                   needle):
    """A 1d potential in a 2d scenario: the scenario evaluates V and grad V
    once at the origin when parsed and refuses the potential there, before
    a run directory or a cache file exists, rather than let a 1d table
    answer T(x) for V(x, y)."""
    path = write_doc(tmp_path, make_doc(
        "degree_check", grid={"dim": 2, "half_width": 20.0, "points": 64},
        potential=potential, region=[[-1.0, 1.0], [-1.0, 1.0]]))
    with pytest.raises(ConfigError, match=r"scenario\.json\.potential: "
                       + needle):
        run_scenario(path, out_dir=tmp_path / "out",
                     cache_dir=tmp_path / "cache")
    for left in ("out", "cache"):
        assert not (tmp_path / left).exists()


def test_solver_failure_writes_report(tmp_path, cache_dir):
    doc = make_doc("solve_k_spike", name="diverge",
                   tolerances={"eta": 1e-9})
    res = run_scenario(write_doc(tmp_path, doc), out_dir=tmp_path / "out",
                       cache_dir=cache_dir)
    assert res.status == 3
    report = json.loads((res.out_dir / "report.json").read_text())
    assert report["status"] == "solver_failure"
    assert report["results"]["error"]


TWO_WELL = {"kind": "gaussian_bumps", "a": 2.0, "bumps": [
    {"b": -0.9, "center": [c], "sigma": 0.5} for c in (-1.0, 1.0)]}


def _two_well_doc(name, seeds=([-1.0], [1.0])):
    return make_doc("solve_k_spike", name=name, potential=TWO_WELL,
                    seeds=list(seeds))


def test_failed_certificate_exits_3(tmp_path, cache_dir, monkeypatch,
                                    capsys):
    """Newton allowed no step stays at the two-well seed's residual of
    1.4e-3: the run still writes its solution, reports the residual check
    as the failure, and exits 3 from the runner and the command line."""
    path = write_doc(tmp_path, _two_well_doc("uncertified"))
    sc = load_scenario(path)  # the profile's own polish needs Newton steps
    scenarios.cache_io.cached_ground_state(sc.grid, sc.params,
                                           directory=cache_dir)
    monkeypatch.setattr(_krylov, "NEWTON_MAX_STEPS", 0)
    res = run_scenario(path, out_dir=tmp_path / "out", cache_dir=cache_dir)
    assert res.status == 3
    assert res.out_dir / "solution.csv" in res.files
    report = json.loads((res.out_dir / "report.json").read_text())
    assert report["status"] == "solver_failure"
    assert "failed its residual check" in report["results"]["error"]
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "cli"),
                   "--cache", str(cache_dir)])
    capsys.readouterr()
    assert rc == 3


def test_reversed_seeds_give_the_same_solution(tmp_path, cache_dir):
    """Listing the seeds in reverse order only sums W in another order:
    both runs certify, with the same spikes in grid order, and their
    solutions agree to 1e-12 relative (2e-15 measured)."""
    runs = []
    for name, seeds in (("forward", ([-1.0], [1.0])),
                        ("reversed", ([1.0], [-1.0]))):
        res = run_scenario(write_doc(tmp_path, _two_well_doc(name, seeds)),
                           out_dir=tmp_path / "out", cache_dir=cache_dir)
        assert res.status == 0
        newton = json.loads((res.out_dir / "report.json").read_text()
                            )["results"]["newton"]
        u = np.loadtxt(res.out_dir / "solution.csv", delimiter=",",
                       skiprows=1)[:, 1]
        runs.append((newton["spike_centers"], u))
    (centers, u), (centers_rev, u_rev) = runs
    assert centers == centers_rev == [[-10.0], [10.0]]
    assert np.max(np.abs(u - u_rev)) <= 1e-12 * np.max(np.abs(u))


def test_sweep_rows_rates_and_worker_determinism(tmp_path, cache_dir):
    doc = make_doc("epsilon_sweep")
    path = write_doc(tmp_path, doc)
    res1 = run_scenario(path, out_dir=tmp_path / "w1", cache_dir=cache_dir,
                        workers=1)
    res2 = run_scenario(path, out_dir=tmp_path / "w2", cache_dir=cache_dir,
                        workers=2)
    assert res1.status == 0 and res2.status == 0
    for name in ("sweep.csv", "report.json"):
        assert (res1.out_dir / name).read_bytes() == \
            (res2.out_dir / name).read_bytes()

    with open(res1.out_dir / "sweep.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "epsilon,E_norm_Y,phi_norm_Y,ratio,max_abs_c,iterations"
    table = np.loadtxt(res1.out_dir / "sweep.csv", delimiter=",",
                       skiprows=1)
    assert table.shape == (3, 6)
    assert np.array_equal(table[:, 0], [0.2, 0.1, 0.05])
    assert np.all(np.diff(table[:, 1]) < 0)
    assert np.all(table[:, 3] < 1.0)

    report = json.loads((res1.out_dir / "report.json").read_text())
    rate = report["results"]["rate_E"]
    assert rate["target"] == 1.0
    assert 0.5 < rate["slope"] < 1.5
    assert rate["r_squared"] > 0.9


def test_sweep_runs_on_calling_thread(tmp_path, cache_dir, monkeypatch):
    """workers=2 is accepted, but every sweep entry is corrected in order
    on the caller's own thread."""
    calls = []
    inner = scenarios.nonlinear_correction

    def recording(V, cfg, *args, **kwargs):
        calls.append((threading.get_ident(), cfg.epsilon))
        return inner(V, cfg, *args, **kwargs)

    monkeypatch.setattr(scenarios, "nonlinear_correction", recording)
    res = run_scenario(write_doc(tmp_path, make_doc("epsilon_sweep")),
                       out_dir=tmp_path / "out", cache_dir=cache_dir,
                       workers=2)
    assert res.status == 0
    me = threading.get_ident()
    assert calls == [(me, 0.2), (me, 0.1), (me, 0.05)]


# ------------------------------------------------------------------- cli

def test_cli_run_prints_artifact_paths(tmp_path, capsys):
    doc = make_doc("degree_check")
    path = write_doc(tmp_path, doc)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                   "--cache", str(tmp_path / "cache")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "report.json" in out


def test_cli_rejects_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ nope", encoding="utf-8")
    rc = cli.main(["run", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error:" in err
    assert "malformed JSON" in err


def test_cli_ground_state_command(tmp_path, cache_dir, capsys):
    rc = cli.main(["ground-state", "--s", "0.5", "--p", "2", "--L", "20",
                   "--M", "256", "--out", str(tmp_path / "out"),
                   "--cache", str(cache_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "energy =" in out
    assert "target -2.0000" in out
    assert "kernel_dim = 1" in out
    doc = make_doc(name="ground_state_s0.5_p2_n1",
                   grid={"dim": 1, "half_width": 20.0, "points": 256})
    report = json.loads((tmp_path / "out" / doc["name"] / "report.json")
                        .read_text())
    assert report["scenario"] == parse_scenario(doc).resolved


def test_reports_carry_newton_seed_and_kernel_residuals(tmp_path, cache_dir,
                                                        capsys):
    """The solve_k_spike report gives the Newton certificate's starting
    residual beside its final one, and the ground-state report and command
    give ||K Y - Y H|| of the deflated kernel."""
    res = run_scenario(write_doc(tmp_path, make_doc("solve_k_spike")),
                       out_dir=tmp_path / "k", cache_dir=cache_dir)
    newton = json.loads((res.out_dir / "report.json").read_text()
                        )["results"]["newton"]
    assert newton["residual_norm"] <= newton["initial_residual"] < 1e-2
    rc = cli.main(["ground-state", "--s", "0.5", "--p", "2", "--L", "20",
                   "--M", "256", "--out", str(tmp_path / "gs"),
                   "--cache", str(cache_dir)])
    out = capsys.readouterr().out
    report = json.loads(
        next((tmp_path / "gs").glob("*/report.json")).read_text())
    kernel_residual = report["results"]["spectrum"]["kernel_residual"]
    assert rc == 0 and 0 < kernel_residual < 1e-6
    assert "kernel_residual = %.3e" % kernel_residual in out


def test_cli_sweep_overrides_epsilons(tmp_path, cache_dir, capsys):
    doc = make_doc("epsilon_sweep", name="sweepcli",
                   epsilons=[0.4, 0.3, 0.25])
    path = write_doc(tmp_path, doc)
    rc = cli.main(["sweep", "--scenario", str(path),
                   "--epsilons", "0.2,0.1,0.05",
                   "--out", str(tmp_path / "out"),
                   "--cache", str(cache_dir)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(
        (tmp_path / "out" / "sweepcli" / "report.json").read_text())
    assert report["scenario"]["epsilons"] == [0.2, 0.1, 0.05]


def test_cli_sweep_rejects_bad_epsilons(tmp_path, capsys):
    path = write_doc(tmp_path, make_doc("epsilon_sweep"))
    rc = cli.main(["sweep", "--scenario", str(path), "--epsilons", "a,b"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error:" in err


def test_cli_solver_failure_exit_code(tmp_path, cache_dir, capsys):
    doc = make_doc("solve_k_spike", name="divcli",
                   tolerances={"eta": 1e-9})
    path = write_doc(tmp_path, doc)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                   "--cache", str(cache_dir)])
    capsys.readouterr()
    assert rc == 3


def _fresh_interpreter(code: str) -> str:
    """Standard output of code run in a new interpreter on this source tree,
    so other tests' imports do not leak in."""
    src = str(Path(fracspike.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_entry_points_import_no_scipy():
    """Importing the scenario runner and the CLI loads no heavy scipy module."""
    heavy = ["scipy.signal", "scipy.stats", "scipy.interpolate",
             "scipy.optimize", "scipy.sparse.linalg"]
    code = ("import sys, fracspike.scenarios, fracspike.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    assert _fresh_interpreter(code).strip() == "[]"


def test_profile_load_and_corrections_import_no_numpy_ma(tmp_path):
    """Loading a cached profile and correcting and certifying two-spike
    ansatzes in 1d and 2d never imports numpy.ma, which np.median's NaN
    check pulls in (1.25 MB resident)."""
    code = f"""
import sys
import numpy as np
from fracspike import cache
from fracspike.ansatz import SpikeConfig, build_ansatz
from fracspike.correction import (CorrectionOptions, certify,
                                  nonlinear_correction)
from fracspike.grid import FracParams, Grid
from fracspike.potentials import builtin_potentials
for grid, xi in ((Grid(1, 40.0, 1024), 1.0), (Grid(2, 10.0, 128), 0.3)):
    cache.cached_ground_state(grid, FracParams(0.5, 2.0),
                              directory={str(tmp_path)!r})
    gs = cache.load({str(tmp_path)!r}, grid, FracParams(0.5, 2.0))
    wells = np.array([[x] + [0.0] * (grid.dim - 1) for x in (-1.0, 1.0)])
    V = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {{"b": -0.9, "center": c, "sigma": 0.5}} for c in wells.tolist()])
    cfg = SpikeConfig(grid, xi * wells / 0.1, epsilon=0.1)
    bundle = build_ansatz(V, cfg, gs)
    corr = nonlinear_correction(V, cfg, bundle, CorrectionOptions(eta=0.5))
    assert corr.converged
    certify(V, bundle, corr)
print("numpy.ma" in sys.modules)
"""
    assert _fresh_interpreter(code).strip() == "False"


def test_1d_profile_load_and_rescale_import_no_scipy(tmp_path):
    """Solving, storing, loading (with its far-field fit), rescaling and
    taking the linearization spectrum of a 1d profile, and running a
    scenario on a tabulated potential, load no scipy module at all."""
    table = make_doc("solve_k_spike", name="table", grid={
        "dim": 1, "half_width": 20.0, "points": 256}, potential={
        "kind": "user_table", "axes": [np.linspace(-3.0, 3.0, 61).tolist()],
        "values": (2.0 - 1.0 / (1.0 + np.linspace(-3.0, 3.0, 61) ** 2)
                   ).tolist()})
    path = write_doc(tmp_path, table)
    code = f"""
import sys
from fracspike.cache import cached_ground_state
from fracspike.grid import FracParams, Grid
from fracspike.ground_state import linearization_spectrum, rescale
from fracspike.scenarios import run_scenario
args = (Grid(1, 20.0, 256), FracParams(0.5, 2.0))
assert cached_ground_state(*args, directory={str(tmp_path)!r}).source == "solve"
gs = cached_ground_state(*args, directory={str(tmp_path)!r})
assert gs.source == "cache" and gs.decay.ok
rescale(gs, 2.0)
assert linearization_spectrum(gs).kernel_dim == 1
assert run_scenario({str(path)!r}, out_dir={str(tmp_path / "out")!r},
                    cache_dir={str(tmp_path)!r}).status == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    assert _fresh_interpreter(code).strip() == "[]"
