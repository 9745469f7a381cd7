"""Layered end-to-end benchmark of the fracspike solver stack.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload two_well_2d --blas-reference

Workloads: two_well_2d and searches_1d (see workloads.py).
Every measurement runs in a fresh interpreter (worker.py) with the library
defaults; no thread variable is set. Files go to .perfbench_out/ under the
checkout: the profile cache, scenario reports, spans and results. The
profile cache lives in a directory named after the digest of the program
and benchmark sources, and every run first warms it in a child of its own
(a solve when the sources changed, else a load), so set-up always loads
the profile that the code under test computes.

--trace 0 (gated run) makes passes over the workload's cases until the
next pass would end after S seconds, at least one, and prints:
  setup_s         median over 5 fresh processes of the time from process
                  start to inputs ready (imports, generated inputs, profile
                  loaded from the cache warmed beforehand, untimed)
  wall_s          median time of one pass over the workload's cases
  case_s.p50      median over the workload's cases (one case is one
                  scenario through certification) of each case's median
                  time over the timed passes
  cpu_s           median user+sys CPU seconds per pass
  peak_rss_mb     peak resident memory of the measuring process
  certified_frac  certified cases / attempted cases (1 - failed fraction)
When there are several passes the first is an untimed warm-up.
--trace 1 prints the per-layer metrics of tracing.LAYER_UNITS from one
traced pass followed by one untraced pass in the same process, plus the
tracing overhead (traced minus untraced wall time; the traced pass is the
process's first, so its warm-up cost overstates the overhead); it fails
unless both passes give identical certified outputs and the counts repeat
those of an earlier traced run of the same seed and code.
--blas-reference is informational and ungated: one default pass and one
pass with OPENBLAS_NUM_THREADS=1, side by side.

The last line of standard output is the JSON result; the line before it
records the environment and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
DEADLINE_S = 170.0
WORKLOADS = ("two_well_2d", "searches_1d")


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cache = OUT / "cache" / source_digest()
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, mode: str, env_extra: dict | None = None) -> dict:
        """Run worker.py MODE in a fresh interpreter; return its JSON result."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        env.update(env_extra or {})
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before " + mode)
        launch = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", repr(self.seconds), "--launch", repr(launch),
               "--out", str(OUT), "--cache", str(self.cache)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                                  cwd=ROOT, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the time limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def cases_of(passes: list[dict]) -> list[dict]:
    return [c for p in passes for c in p["cases"]]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(passes: list[dict], setups: list[float],
              peak_rss_mb: float) -> dict:
    """The gated result from all passes and the set-up samples.

    Every pass is checked, but when a run made more than one pass the
    first is a warm-up and the timings come from the others: the first
    pass of a process pays first-touch page faults and FFT planning, which
    made the first of two cold 512^2 profile solves up to 28% slower.
    Each case's time is its median over the timed passes before the
    median over cases is taken: a pass-long burst of host load then moves
    one sample of each case rather than the middle of the pooled samples,
    which on searches_1d (2-vCPU VM) cut the ten-seed spread of
    case_s.p50 from 20% to 14%.
    """
    cases = cases_of(passes)
    failed = sum(not c["ok"] for c in cases)
    same = all(p["outputs"] == passes[0]["outputs"] for p in passes)
    if not same:
        print("outputs differ between passes of one run", file=sys.stderr)
    timed = passes[1:] or passes
    per_case: dict[str, list[float]] = {}
    for c in cases_of(timed):
        per_case.setdefault(c["name"], []).append(c["seconds"])
    return {
        "correct": failed == 0 and same,
        "attempted": len(cases),
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(p["wall_s"] for p in timed),
                             "s"),
            "case_s.p50": metric(statistics.median(
                statistics.median(t) for t in per_case.values()), "s"),
            "cpu_s": metric(statistics.median(p["cpu_s"] for p in timed),
                            "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "certified_frac": metric((len(cases) - failed) / len(cases),
                                     "ratio"),
        },
    }


def gated(run: Runner) -> tuple[dict, dict]:
    setups = [run.child("probe")["setup_s"] for _ in range(SETUP_PROBES)]
    res = run.child("measure")
    setups.append(res["setup_s"])
    passes = res["passes"]
    cases = cases_of(passes)
    info = {"env": res["env"], "passes": len(passes),
            "case_samples": len(cases), "setup_samples": len(setups),
            "case_seconds": [[c["name"], c["seconds"]] for c in cases],
            "case_errors": [c["error"] for c in cases if c["error"]]}
    return summarize(passes, setups, res["peak_rss_mb"]), info


def source_digest() -> str:
    """Digest of the program and benchmark sources, to key count records."""
    h = hashlib.blake2b(digest_size=8)
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def traced(run: Runner) -> tuple[dict, dict]:
    from tracing import LAYER_UNITS

    res = run.child("trace")
    plain, trc = res["plain"], res["traced"]
    cases = plain["cases"] + trc["cases"]
    failed = sum(not c["ok"] for c in cases)
    problems = []
    if trc["outputs"] != plain["outputs"]:
        problems.append("traced outputs differ from untraced outputs")
    layers = res["layers"]
    counts = {k: v for k, v in layers.items() if LAYER_UNITS[k] == "count"}
    record = OUT / "trace-counts" / (
        f"{run.workload}-seed{run.seed}-{source_digest()}.json")
    if record.exists():
        before = json.loads(record.read_text(encoding="utf-8"))
        if before != counts:
            problems.append(f"per-layer counts differ from {record.name}")
    elif failed == 0 and not problems:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, sort_keys=True),
                          encoding="utf-8")
    for msg in problems:
        print(msg, file=sys.stderr)
    metrics = {k: metric(v, LAYER_UNITS[k]) for k, v in layers.items()}
    metrics["trace.untraced_wall_s"] = metric(plain["wall_s"], "s")
    metrics["trace.wall_s"] = metric(trc["wall_s"], "s")
    metrics["trace.overhead_s"] = metric(trc["wall_s"] - plain["wall_s"], "s")
    result = {"correct": failed == 0 and not problems,
              "attempted": len(cases), "failed": failed, "metrics": metrics}
    info = {"env": res["env"], "spans": res["spans"],
            "case_errors": [c["error"] for c in cases if c["error"]]}
    return result, info


def blas_reference(run: Runner) -> dict:
    """Informational: one default pass beside one single-threaded pass."""
    run.seconds = 0.0
    rows = {}
    for label, extra in (("default", None),
                         ("openblas_1_thread", {"OPENBLAS_NUM_THREADS": "1"})):
        res = run.child("measure", extra)
        p = res["passes"][0]
        rows[label] = {"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                       "certified": all(c["ok"] for c in p["cases"]),
                       "openblas_threads": res["env"]["openblas_threads"]}
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracspike" / "__init__.py").is_file():
        print("perfbench: src/fracspike not found next to perfbench/",
              file=sys.stderr)
        return 2
    run = Runner(args.workload, args.seed, args.seconds)
    sys.path.insert(0, str(HERE))
    try:
        run.child("warm")
        if args.blas_reference:
            print(json.dumps(blas_reference(run)))
            return 0
        result, info = traced(run) if args.trace else gated(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / name).write_text(
        json.dumps({"info": info, "result": result}, indent=1),
        encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
