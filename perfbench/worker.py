"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/worker.py MODE --workload W --seed N --out DIR
        --cache DIR [--seconds S] [--launch T]

Modes:
  warm     fill the profile cache that set-up loads (untimed)
  probe    set up once and report setup_s only
  measure  set up, then run untraced passes for at least S seconds
  trace    set up, then run one traced and one untraced pass

--launch is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, imports and input loading.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's BLAS)

    from fracspike import kernels

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernels.BACKEND": kernels.BACKEND,
    }


def run_pass(ctx, tracer=None) -> dict:
    """Run every case of the workload once; a failing case is recorded."""
    from workloads import cases

    ctx.outputs = {}
    ctx.profile = None
    records = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for name, fn in cases(ctx):
        c0 = time.perf_counter()
        error = None
        try:
            with tracer.span("case." + name) if tracer else nullcontext():
                ctx.outputs[name] = fn(ctx)
        except Exception as exc:  # a failed case is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        records.append({"name": name, "seconds": time.perf_counter() - c0,
                        "ok": error is None, "error": error})
    return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - cpu0,
            "cases": records, "outputs": ctx.outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("warm", "probe", "measure", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--launch", type=float, default=None)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cache", required=True)
    args = ap.parse_args(argv)
    launch = args.launch if args.launch is not None else time.monotonic()

    import workloads

    out = Path(args.out)
    cache_dir, work_dir = Path(args.cache), out / "work"
    if args.mode == "warm":
        workloads.warm(args.workload, cache_dir)
        print(json.dumps({"warm": args.workload}))
        return 0

    if args.mode == "trace":
        from tracing import Tracer, installed, layer_metrics

        tracer = Tracer()
        with installed(tracer), tracer.span("setup"):
            ctx = workloads.setup(args.workload, args.seed, cache_dir,
                                  work_dir)
        # traced first: the first pass of a process pays its warm-up
        # (page faults, FFT planning), and on this side it overstates the
        # overhead instead of hiding it
        with installed(tracer), tracer.span("pass"):
            traced = run_pass(ctx, tracer)
        plain = run_pass(ctx)
        layers = layer_metrics(tracer.spans)
        spans_file = out / "trace" / f"{args.workload}-seed{args.seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(
            {"columns": ["id", "name", "parent", "thread", "start", "end",
                         "attrs"], "spans": tracer.to_json()}),
            encoding="utf-8")
        print(json.dumps({"env": environment(), "plain": plain,
                          "traced": traced, "layers": layers,
                          "spans": len(tracer.spans)}))
        return 0

    ctx = workloads.setup(args.workload, args.seed, cache_dir, work_dir)
    setup_s = time.monotonic() - launch
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # passes until the next one would end after --seconds; at least one
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + passes[-1]["wall_s"]
                         <= args.seconds):
        passes.append(run_pass(ctx))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"env": environment(), "setup_s": setup_s,
                      "passes": passes, "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
