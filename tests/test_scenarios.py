"""Scenario schema, runner artifacts, and the command line interface.

Runner tests share one module-scoped cache directory so the profile solve
happens once; determinism checks compare repeat runs byte for byte against
that warm cache.
"""

import json
import threading

import numpy as np
import pytest

from fracspike import cli, scenarios
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
    if mode in ("solve_k_spike", "asymptotics_check", "cluster"):
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
    pytest.param(make_doc(tolerances={"eta": "small"}),
                 "scenario.tolerances.eta: expected a number",
                 id="tolerance-not-number"),
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
    assert report["scenario"] == parse_scenario(doc).resolved


def test_ground_state_cache_hit_and_byte_determinism(tmp_path, cache_dir):
    doc = make_doc()
    path = write_doc(tmp_path, doc)
    run_scenario(path, out_dir=tmp_path / "seed", cache_dir=cache_dir)
    run_a = run_scenario(path, out_dir=tmp_path / "a", cache_dir=cache_dir)
    run_b = run_scenario(path, out_dir=tmp_path / "b", cache_dir=cache_dir)
    rep = json.loads((run_a.out_dir / "report.json").read_text())
    assert rep["results"]["source"] == "cache"
    for name in ("report.json", "profile.csv"):
        assert (run_a.out_dir / name).read_bytes() == \
            (run_b.out_dir / name).read_bytes()


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


def test_solver_failure_writes_report(tmp_path, cache_dir):
    doc = make_doc("solve_k_spike", name="diverge",
                   tolerances={"eta": 1e-9})
    res = run_scenario(write_doc(tmp_path, doc), out_dir=tmp_path / "out",
                       cache_dir=cache_dir)
    assert res.status == 3
    report = json.loads((res.out_dir / "report.json").read_text())
    assert report["status"] == "solver_failure"
    assert report["results"]["error"]


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


def test_cli_sweep_overrides_epsilons(tmp_path, cache_dir, capsys):
    doc = make_doc("epsilon_sweep", name="sweepcli",
                   epsilons=[0.4, 0.3, 0.25])
    path = write_doc(tmp_path, doc)
    rc = cli.main(["sweep", "--scenario", str(path),
                   "--epsilons", "0.2,0.1,0.05",
                   "--out", str(tmp_path / "out"),
                   "--cache", str(cache_dir), "--workers", "2"])
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
