"""Command line entry points.

    fracspike run <scenario.json> [--out DIR] [--cache DIR] [--verbose]
    fracspike ground-state --s S --p P [--dim N] [--L L] [--M M]
                  [--out DIR] [--cache DIR] [--verbose]
    fracspike sweep --scenario <scenario.json> --epsilons E1,E2,...
                  [--out DIR] [--cache DIR] [--verbose]

Exit codes: 0 success, 2 configuration or schema error, 3 solver failure.
FRACSPIKE_CACHE overrides the default cache directory; --cache overrides
both.
"""

from __future__ import annotations

import argparse
import logging
import sys

from fracspike.errors import ConfigError, SolverDivergence

log = logging.getLogger("fracspike")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspike",
        description="Multi-spike standing waves of the fractional NLS: "
                    "ground states, ansatz correction, and reduced-energy "
                    "searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output root (default ./out)")
        p.add_argument("--cache", default=None, metavar="DIR",
                       help="ground-state cache directory (default "
                            "$FRACSPIKE_CACHE or ~/.cache/fracspike)")
        p.add_argument("--verbose", action="store_true",
                       help="log progress at INFO level")

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    common(run)

    gsp = sub.add_parser("ground-state",
                         help="solve and cache a ground-state profile")
    gsp.add_argument("--s", type=float, required=True,
                     help="fractional order, 0 < s < 1")
    gsp.add_argument("--p", type=float, required=True,
                     help="nonlinearity power, subcritical")
    gsp.add_argument("--dim", type=int, default=1, help="dimension (1 or 2)")
    gsp.add_argument("--L", type=float, default=40.0, help="box half width")
    gsp.add_argument("--M", type=int, default=1024,
                     help="grid points per axis (power of two)")
    common(gsp)

    swp = sub.add_parser("sweep",
                         help="run a scenario over an epsilon list")
    swp.add_argument("--scenario", required=True,
                     help="path to a scenario JSON file")
    swp.add_argument("--epsilons", required=True, metavar="E1,E2,...",
                     help="comma-separated epsilon values (override the "
                          "scenario's list)")
    common(swp)
    return parser


def _cmd_run(args) -> int:
    from fracspike.scenarios import run_scenario

    result = run_scenario(args.scenario, out_dir=args.out,
                          cache_dir=args.cache)
    for f in result.files:
        print(f)
    return result.status


def _cmd_ground_state(args) -> int:
    import json

    from fracspike.scenarios import SCHEMA, parse_scenario, run_scenario

    doc = {"schema": SCHEMA, "mode": "ground_state",
           "name": "ground_state_s%g_p%g_n%d" % (args.s, args.p, args.dim),
           "params": {"s": args.s, "p": args.p},
           "grid": {"dim": args.dim, "half_width": args.L, "points": args.M}}
    result = run_scenario(parse_scenario(doc, origin="ground-state"),
                          out_dir=args.out, cache_dir=args.cache)
    for f in result.files:
        print(f)
    if result.status == 0:
        report = json.loads((result.out_dir / "report.json").read_text())
        res = report["results"]
        print("energy = %.12g  residual = %.3e  decay exponent = %.4f "
              "(target %.4f)" % (res["energy"], res["residual_norm"],
                                 res["decay_fit"]["exponent"],
                                 res["decay_fit"]["target_exponent"]))
        spec = res["spectrum"]
        print("spectrum of L: lowest = %.6g  kernel_dim = %d  kernel_overlap "
              "= %.6f  kernel_residual = %.3e  spectral_gap = %.6g" % (
                  spec["lowest"], spec["kernel_dim"], spec["kernel_overlap"],
                  spec["kernel_residual"], spec["spectral_gap"]))
        print("eigenvalues = " + " ".join("%.6g" % v
                                          for v in spec["eigenvalues"]))
    return result.status


def _cmd_sweep(args) -> int:
    from fracspike.scenarios import load_scenario, parse_scenario, run_scenario

    try:
        eps = [float(tok) for tok in args.epsilons.split(",") if tok]
    except ValueError:
        raise ConfigError(
            f"--epsilons: expected comma-separated numbers, got "
            f"{args.epsilons!r}")
    if not eps:
        raise ConfigError("--epsilons: empty list")
    base = load_scenario(args.scenario)
    doc = dict(base.resolved)
    doc["epsilons"] = eps
    scenario = parse_scenario(doc, origin=str(args.scenario))
    result = run_scenario(scenario, out_dir=args.out, cache_dir=args.cache)
    for f in result.files:
        print(f)
    return result.status


_COMMANDS = {
    "run": _cmd_run,
    "ground-state": _cmd_ground_state,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverDivergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
