"""In-memory span tracer and the layer hooks of the fracspike benchmark.

Tracing measures each layer from outside the program. A hook replaces one
public function of a fracspike module with a wrapper that opens a span,
calls the original, and records counts read from the returned object
(``CorrectionResult.iterations``, ``ProjectedSolution.iterations``, ...).
The wrapper is installed on every public module attribute bound to the
original function, because a name imported with ``from ... import`` is
looked up in the importing module, not in the defining one. The FFT layer
has two hooks: the ``numpy.fft`` namespace, where the operator symbols
look their transforms up, and ``czt`` in ``fracspike.spectral``, the
chirp-z transform (``scipy.signal.czt``, which runs on scipy's own FFT)
that ``ground_state.rescale`` dilates profiles with. Its time is billed to
``spectral.czt``, not to ``ground_state.rescale.self_s``.

A span records name, start, end, parent and thread. A layer's self time is
its span's duration minus the part of that interval its child spans cover.
Spans are kept in memory and written out only when a run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

KERNEL_FUNCS = ("rho_field_1d", "rho_field_2d", "positive_power",
                "nonlinear_remainder", "ansatz_error", "local_maxima_1d",
                "local_maxima_2d", "radial_bin")
FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn")


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans.

    A span opened on a thread with no open span of its own (a thread-pool
    worker) takes the innermost open span of the main thread as parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].sid
        else:
            main = self._stacks.get(self._main)
            parent = main[-1].sid if main else None
        with self._lock:
            span = Span(len(self.spans), name, parent, tid,
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span, **attrs) -> None:
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        stack = self._stacks[span.thread]
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp, **attrs)

    def to_json(self) -> list[list]:
        return [[s.sid, s.name, s.parent, s.thread, s.start, s.end, s.attrs]
                for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the child intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


# ------------------------------------------------------------------ hooks

def _search_attrs(res, args, kwargs):
    return {"accepted": len(res.history)}


def _correction_attrs(res, args, kwargs):
    return {"iters": res.iterations, "failed": not res.converged,
            "ratio_max": max(res.contraction_history, default=0.0)}


def _solve_attrs(res, args, kwargs):
    return {"iters": res.iterations}


def _newton_attrs(res, args, kwargs):
    return {"iters": res.iterations, "failed": not res.converged}


def _ground_state_attrs(res, args, kwargs):
    return {"iters": res.iterations, "newton_steps": res.newton_steps}


def _load_attrs(res, args, kwargs):
    return {"hit": res is not None}


def _fft_attrs(res, args, kwargs):
    # bytes computed from array sizes (input read + output written)
    return {"bytes": int(getattr(args[0], "nbytes", 0)) + int(res.nbytes)}


# (span name, defining module, function, counts read from the result)
HOOKS = (
    ("reduced.search", "fracspike.reduced", "critical_point_search",
     _search_attrs),
    ("reduced.search", "fracspike.reduced", "cluster_search", _search_attrs),
    ("reduced.energy_with_potential", "fracspike.reduced",
     "energy_with_potential", None),
    ("correction.nonlinear_correction", "fracspike.correction",
     "nonlinear_correction", _correction_attrs),
    ("correction.projected_solve", "fracspike.correction", "projected_solve",
     _solve_attrs),
    ("correction.full_newton_solve", "fracspike.correction",
     "full_newton_solve", _newton_attrs),
    ("ansatz.build_ansatz", "fracspike.ansatz", "build_ansatz", None),
    ("ground_state.rescale", "fracspike.ground_state", "rescale", None),
    ("spectral.czt", "fracspike.spectral", "czt", None),
    ("ground_state.solve", "fracspike.ground_state", "solve_ground_state",
     _ground_state_attrs),
    ("ground_state.spectrum", "fracspike.ground_state",
     "linearization_spectrum", None),
    ("cache.load", "fracspike.cache", "load", _load_attrs),
    ("cache.store", "fracspike.cache", "store", None),
    ("scenarios.run_scenario", "fracspike.scenarios", "run_scenario", None),
) + tuple(("kernels", "fracspike.kernels", fn, None) for fn in KERNEL_FUNCS)


def _wrap(tracer: Tracer, name: str, fn, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            res = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(span, raised=type(exc).__name__, failed=True)
            raise
        tracer.close(span, **(attrs_of(res, args, kwargs) if attrs_of
                              else {}))
        return res
    return wrapper


def _public_fracspike_modules():
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "fracspike"
                               or modname.startswith("fracspike.")):
            continue
        if any(part.startswith("_") for part in modname.split(".")):
            continue
        yield mod


@contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    import numpy.fft

    for _, modname, _, _ in HOOKS:
        importlib.import_module(modname)
    patched: list[tuple[object, str, object]] = []
    try:
        for name, modname, fname, attrs_of in HOOKS:
            original = getattr(sys.modules[modname], fname)
            wrapper = _wrap(tracer, name, original, attrs_of)
            for mod in _public_fracspike_modules():
                if getattr(mod, fname, None) is original:
                    patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        for fname in FFT_FUNCS:
            original = getattr(numpy.fft, fname)
            patched.append((numpy.fft, fname, original))
            setattr(numpy.fft, fname,
                    _wrap(tracer, "spectral.fft", original, _fft_attrs))
        yield tracer
    finally:
        for mod, fname, original in reversed(patched):
            setattr(mod, fname, original)


# ------------------------------------------------------------- aggregation

# per-layer metrics, in report order: name -> unit
LAYER_UNITS = {
    "reduced.search.calls": "count",
    "reduced.search.self_s": "s",
    "reduced.corrections_per_search": "ratio",
    "reduced.energy_evals": "count",
    "reduced.corrections_per_accepted_step": "ratio",
    "reduced.search.projected_solves": "count",
    "reduced.search.krylov_iters": "count",
    "reduced.search.rescales": "count",
    "correction.nonlinear_correction.calls": "count",
    "correction.nonlinear_correction.self_s": "s",
    "correction.nonlinear_correction.failed": "count",
    "correction.fixed_point_iters_per_correction": "ratio",
    "correction.contraction_ratio.max": "ratio",
    "correction.projected_solve.calls": "count",
    "correction.projected_solve.self_s": "s",
    "correction.krylov_iters": "count",
    "correction.krylov_iters_per_solve": "ratio",
    "correction.full_newton_solve.calls": "count",
    "correction.full_newton_solve.self_s": "s",
    "correction.full_newton_solve.iters": "count",
    "ansatz.build_ansatz.calls": "count",
    "ansatz.build_ansatz.self_s": "s",
    "ansatz.build_ansatz.failed": "count",
    "ground_state.rescale.calls": "count",
    "ground_state.rescale.self_s": "s",
    "ground_state.solve.self_s": "s",
    "ground_state.solve.iterations": "count",
    "ground_state.solve.newton_steps": "count",
    "ground_state.spectrum.self_s": "s",
    "spectral.fft.calls": "count",
    "spectral.fft.self_s": "s",
    "spectral.fft.bytes": "B",
    "spectral.czt.calls": "count",
    "spectral.czt.self_s": "s",
    "kernels.calls": "count",
    "kernels.self_s": "s",
    "cache.load.self_s": "s",
    "cache.store.self_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "scenarios.run_scenario.calls": "count",
    "scenarios.run_scenario.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the LAYER_UNITS metrics (zero where unused)."""
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.sid: s for s in spans}

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(selft[s.sid] for s in by_name[name])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def under_search(s):
        pid = s.parent
        while pid is not None:
            anc = by_id[pid]
            if anc.name == "reduced.search":
                return True
            pid = anc.parent
        return False

    corr = "correction.nonlinear_correction"
    solve = "correction.projected_solve"
    corr_in_search = sum(1 for s in by_name[corr] if under_search(s))
    solves_in_search = [s for s in by_name[solve] if under_search(s)]
    ratios = [s.attrs.get("ratio_max", 0.0) for s in by_name[corr]]
    loads = by_name["cache.load"]
    out = {
        "reduced.search.calls": calls("reduced.search"),
        "reduced.search.self_s": self_s("reduced.search"),
        "reduced.corrections_per_search":
            _ratio(corr_in_search, calls("reduced.search")),
        "reduced.energy_evals": calls("reduced.energy_with_potential"),
        "reduced.corrections_per_accepted_step":
            _ratio(corr_in_search, total("reduced.search", "accepted")),
        "reduced.search.projected_solves": len(solves_in_search),
        "reduced.search.krylov_iters":
            sum(s.attrs.get("iters", 0) for s in solves_in_search),
        "reduced.search.rescales": sum(
            1 for s in by_name["ground_state.rescale"] if under_search(s)),
        f"{corr}.calls": calls(corr),
        f"{corr}.self_s": self_s(corr),
        f"{corr}.failed": total(corr, "failed"),
        "correction.fixed_point_iters_per_correction":
            _ratio(total(corr, "iters"), calls(corr)),
        "correction.contraction_ratio.max": max(ratios, default=0.0),
        f"{solve}.calls": calls(solve),
        f"{solve}.self_s": self_s(solve),
        "correction.krylov_iters": total(solve, "iters"),
        "correction.krylov_iters_per_solve":
            _ratio(total(solve, "iters"), calls(solve)),
        "correction.full_newton_solve.calls":
            calls("correction.full_newton_solve"),
        "correction.full_newton_solve.self_s":
            self_s("correction.full_newton_solve"),
        "correction.full_newton_solve.iters":
            total("correction.full_newton_solve", "iters"),
        "ansatz.build_ansatz.calls": calls("ansatz.build_ansatz"),
        "ansatz.build_ansatz.self_s": self_s("ansatz.build_ansatz"),
        "ansatz.build_ansatz.failed": total("ansatz.build_ansatz", "failed"),
        "ground_state.rescale.calls": calls("ground_state.rescale"),
        "ground_state.rescale.self_s": self_s("ground_state.rescale"),
        "ground_state.solve.self_s": self_s("ground_state.solve"),
        "ground_state.solve.iterations": total("ground_state.solve", "iters"),
        "ground_state.solve.newton_steps":
            total("ground_state.solve", "newton_steps"),
        "ground_state.spectrum.self_s": self_s("ground_state.spectrum"),
        "spectral.fft.calls": calls("spectral.fft"),
        "spectral.fft.self_s": self_s("spectral.fft"),
        "spectral.fft.bytes": total("spectral.fft", "bytes"),
        "spectral.czt.calls": calls("spectral.czt"),
        "spectral.czt.self_s": self_s("spectral.czt"),
        "kernels.calls": calls("kernels"),
        "kernels.self_s": self_s("kernels"),
        "cache.load.self_s": self_s("cache.load"),
        "cache.store.self_s": self_s("cache.store"),
        "cache.hits": sum(1 for s in loads if s.attrs.get("hit")),
        "cache.misses": sum(1 for s in loads if not s.attrs.get("hit")),
        "scenarios.run_scenario.calls": calls("scenarios.run_scenario"),
        "scenarios.run_scenario.self_s": self_s("scenarios.run_scenario"),
    }
    return {k: int(v) if LAYER_UNITS[k] in ("count", "B") else float(v)
            for k, v in out.items()}
