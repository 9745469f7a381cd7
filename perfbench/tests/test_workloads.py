"""Wrapper counts against result objects, and the certification gate.

All tests use a tiny 1d search (M = 256) so they run in seconds.
"""

import pytest

from fracspike import correction, reduced, scenarios
from fracspike.grid import FracParams, Grid
from fracspike.ground_state import solve_ground_state
from fracspike.potentials import builtin_potentials

import run
import workloads
from tracing import LAYER_UNITS, Tracer, installed, layer_metrics
from worker import run_pass

EPS = 0.2
REGION = [(-2.0, 2.0)]


@pytest.fixture(scope="module")
def tiny_gs():
    return solve_ground_state(Grid(1, 20.0, 256), FracParams(0.5, 2.0))


@pytest.fixture(scope="module")
def bump():
    # minimum off the seed lattice, so the search takes Newton steps
    return builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {"b": -0.9, "center": [0.37], "sigma": 0.5}])


def _search(V, gs):
    return reduced.critical_point_search(V, EPS, 1, REGION, "minimize_V", gs)


def _traced_search(V, gs):
    tracer = Tracer()
    with installed(tracer):
        out = _search(V, gs)
    return out, layer_metrics(tracer.spans)


def test_wrapper_counts_equal_result_object_totals(monkeypatch, tiny_gs,
                                                   bump):
    seen = {"corr": [], "solve": [], "raised": 0}

    def recording(fn, key):
        def rec(*args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except Exception:
                seen["raised"] += 1
                raise
            seen[key].append(res)
            return res
        return rec

    rec_corr = recording(correction.nonlinear_correction, "corr")
    for mod in (correction, reduced, scenarios):
        monkeypatch.setattr(mod, "nonlinear_correction", rec_corr)
    monkeypatch.setattr(correction, "projected_solve",
                        recording(correction.projected_solve, "solve"))

    out, m = _traced_search(bump, tiny_gs)
    assert out.converged and len(out.history) > 1
    corr, solves = seen["corr"], seen["solve"]
    assert m["correction.nonlinear_correction.calls"] == \
        len(corr) + seen["raised"]
    assert m["correction.nonlinear_correction.failed"] == \
        sum(not r.converged for r in corr) + seen["raised"]
    assert m["correction.projected_solve.calls"] == len(solves) == \
        sum(r.iterations for r in corr)
    assert m["correction.krylov_iters"] == sum(r.iterations for r in solves)
    assert m["correction.fixed_point_iters_per_correction"] == \
        pytest.approx(sum(r.iterations for r in corr) / len(corr))
    assert m["correction.contraction_ratio.max"] == max(
        max(r.contraction_history, default=0.0) for r in corr)
    assert m["reduced.search.calls"] == 1
    assert m["reduced.corrections_per_search"] == len(corr) + seen["raised"]
    assert m["reduced.corrections_per_accepted_step"] == pytest.approx(
        (len(corr) + seen["raised"]) / len(out.history))
    assert m["ansatz.build_ansatz.calls"] == len(corr) + seen["raised"]


def test_tracing_changes_no_answer_and_counts_repeat(tiny_gs, bump):
    plain = _search(bump, tiny_gs)
    first, m1 = _traced_search(bump, tiny_gs)
    second, m2 = _traced_search(bump, tiny_gs)
    for out in (first, second):
        assert out.xi_star.tolist() == plain.xi_star.tolist()
        assert out.max_abs_c == plain.max_abs_c
    counts = [k for k, unit in LAYER_UNITS.items() if unit == "count"]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["correction.krylov_iters"] > 0


def test_forced_certification_failure_raises_failed_fraction(
        monkeypatch, tmp_path, tiny_gs, bump):
    def good(ctx):
        out = _search(bump, ctx.gs)
        workloads._certify_spikes(bump, ctx.gs, out.q_star, EPS,
                                  [[[0.0, 1.0]]])
        return {"xi_star": out.xi_star.tolist()}

    def forced(ctx):
        out = _search(bump, ctx.gs)
        # the spike sits near 0.37, so a box on the far side must fail
        workloads._certify_spikes(bump, ctx.gs, out.q_star, EPS,
                                  [[[-1.0, 0.0]]])
        return {}

    ctx = workloads.Context("tiny", {}, tmp_path, tmp_path, gs=tiny_gs)
    monkeypatch.setattr(workloads, "cases",
                        lambda c: [("good", good), ("forced", forced)])
    record = run_pass(ctx)
    assert [c["ok"] for c in record["cases"]] == [True, False]
    assert "CertificationError" in record["cases"][1]["error"]

    result = run.summarize([record], [1.0], 100.0)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["metrics"]["certified_frac"]["value"] == 0.5
    assert result["correct"] is False

    monkeypatch.setattr(workloads, "cases", lambda c: [("good", good)])
    clean = run.summarize([run_pass(ctx)], [1.0], 100.0)
    assert clean["failed"] == 0 and clean["correct"] is True
    assert clean["metrics"]["certified_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_is_the_acceptance_configuration(workload):
    inputs = workloads.make_inputs(workload, 0)
    if workload == "two_well_2d":
        tw = inputs["two_well"]
        assert tw["boxes"] == [[[-1.6, -0.4], [-0.6, 0.6]],
                               [[0.4, 1.6], [-0.6, 0.6]]]
        assert tw["region"] == [[-1.6, 1.6], [-0.6, 0.6]]
        assert [b["sigma"] for b in tw["bumps"]] == [0.6, 0.6]
    other = workloads.make_inputs(workload, 7)
    assert other == workloads.make_inputs(workload, 7)
    assert other != inputs
