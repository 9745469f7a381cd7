"""The span tracer: self-time arithmetic, parents across threads, hooks."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tracing import (LAYER_UNITS, Span, Tracer, installed, layer_metrics,
                     self_times)


def _span(sid, parent, start, end, name="x"):
    return Span(sid, name, parent, 0, start, end)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),     # overlaps span 1: union [1, 5]
        _span(3, 0, 7.0, 8.0),
        _span(4, 0, 9.0, 12.0),    # runs past the parent: clipped to [9, 10]
        _span(5, 1, 1.5, 2.0),     # grandchild: counts against span 1 only
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert st[1] == pytest.approx(2.0 - 0.5)
    assert st[2] == pytest.approx(3.0)
    assert st[5] == pytest.approx(0.5)


def test_self_time_of_leaf_and_disjoint_children():
    spans = [_span(0, None, 0.0, 4.0), _span(1, 0, 0.0, 1.0),
             _span(2, 0, 3.0, 4.0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(2.0)
    assert st[1] == pytest.approx(1.0) and st[2] == pytest.approx(1.0)


def test_worker_thread_spans_take_main_span_as_parent():
    tracer = Tracer()

    def work(_):
        with tracer.span("child") as sp:
            with tracer.span("grandchild"):
                pass
            return sp

    with tracer.span("root") as root:
        with ThreadPoolExecutor(max_workers=2) as pool:
            kids = list(pool.map(work, range(4)))
    assert all(k.parent == root.sid for k in kids)
    grand = [s for s in tracer.spans if s.name == "grandchild"]
    assert {g.parent for g in grand} == {k.sid for k in kids}


def test_hooks_restore_the_original_functions():
    from fracspike import correction, reduced, scenarios

    before = (correction.nonlinear_correction, reduced.nonlinear_correction,
              scenarios.nonlinear_correction, np.fft.rfftn)
    tracer = Tracer()
    with installed(tracer):
        assert reduced.nonlinear_correction is not before[1]
        assert reduced.nonlinear_correction is scenarios.nonlinear_correction
        np.fft.rfftn(np.zeros(8))
    after = (correction.nonlinear_correction, reduced.nonlinear_correction,
             scenarios.nonlinear_correction, np.fft.rfftn)
    assert after == before
    (fft,) = tracer.spans
    assert fft.name == "spectral.fft"
    assert fft.attrs["bytes"] == 8 * 8 + 5 * 16


def test_layer_metrics_cover_every_listed_metric():
    assert set(layer_metrics([])) == set(LAYER_UNITS)
    assert all(v == 0 for v in layer_metrics([]).values())


def test_chirp_z_of_a_dilation_is_its_own_span():
    from fracspike import spectral
    from fracspike.grid import Field, Grid

    grid = Grid(1, 10.0, 64)
    f = Field(grid, np.exp(-grid.coords()[0] ** 2))
    before = spectral.czt
    tracer = Tracer()
    with installed(tracer):
        spectral.dilate(f, 1.5)
    assert spectral.czt is before
    m = layer_metrics(tracer.spans)
    assert m["spectral.czt.calls"] == 1
    assert m["spectral.fft.calls"] >= 1
    assert m["spectral.czt.self_s"] > 0
