"""Command-line entry point: ``ddelab <task> --scenario <file> [--out <dir>]``.

Every task accepts a scenario file; ``spectrum`` and ``threshold`` also take
direct flags for quick interactive use, validated as the scenario fields of
the same names.  Exit codes: 0 all verdicts resolved, 2 validation failure,
3 at least one verdict unresolved.
"""
from __future__ import annotations

import argparse
import json
import sys

from .dde import ParameterError
from .scenarios import TASKS, ScenarioError, run_scenario, validate_scenario
from .spectrum import spectrum_report
from .threshold import find_dstar

__all__ = ["main"]


def _add_common(p):
    p.add_argument("--scenario", help="scenario JSON file (or a manifest embedding one)")
    p.add_argument("--out", help="output directory (default: ./<scenario name>)")


def _report(exc: ScenarioError) -> int:
    for problem in exc.problems:
        print(f"error: {problem}", file=sys.stderr)
    return 2


def _run_from_scenario(args, task: str) -> int:
    if not args.scenario:
        print(f"error: task '{task}' needs --scenario", file=sys.stderr)
        return 2
    try:
        result = run_scenario(args.scenario, out_dir=args.out)
    except ScenarioError as exc:
        return _report(exc)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(result.artifacts)} artifacts to {result.out_dir}")
    for art in result.artifacts:
        print(f"  {art}")
    if result.unresolved:
        print("warning: unresolved verdicts present", file=sys.stderr)
        return 3
    return 0


def _run_direct(args, fields: dict, run) -> int:
    """Check the direct flags as the task's scenario fields, then ``run(args)``; a ``ParameterError`` exits 2."""
    try:
        validate_scenario({"name": args.task, "task": args.task, **fields})
        return run(args)
    except ScenarioError as exc:
        return _report(exc)
    except ParameterError as exc:
        print(f"error: {exc.field}: {exc}", file=sys.stderr)
        return 2


def _spectrum_direct(args) -> int:
    rep = spectrum_report(args.rate, args.slope, args.pairs)
    print(f"{'root':>10} {'re':>18} {'im':>18} {'residual':>12}")
    print(f"{'real':>10} {rep.lambda0:>18.12f} {0.0:>18.12f} {'-':>12}")
    for i, ((re, im), res) in enumerate(zip(rep.pairs, rep.residuals), start=1):
        print(f"{'pair ' + str(i):>10} {re:>18.12f} {im:>18.12f} {res:>12.2e}")
    print(f"window: ({rep.beta_window[0]:.12e}, {rep.beta_window[1]:.12e})")
    return 0


def _threshold_direct(args) -> int:
    res = find_dstar(args.c, tol=args.tol, T_max=args.Tmax)
    print(json.dumps({"c": args.c, **res.to_dict()}, indent=1))
    return 3 if res.unresolved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ddelab", description="delay-equation laboratory")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a '{task}' scenario")
        _add_common(p)
        if task == "spectrum":
            p.add_argument("--rate", type=float)
            p.add_argument("--slope", type=float)
            p.add_argument("--pairs", type=int, default=5)
        if task == "threshold":
            p.add_argument("--c", type=float)
            p.add_argument("--tol", type=float, default=1e-4)
            p.add_argument("--Tmax", type=float, default=400.0)

    args = parser.parse_args(argv)
    if args.task == "spectrum" and args.scenario is None and args.rate is not None and args.slope is not None:
        return _run_direct(args, {"rate": args.rate, "slope": args.slope, "pairs": args.pairs}, _spectrum_direct)
    if args.task == "threshold" and args.scenario is None and args.c is not None:
        return _run_direct(args, {"c": args.c, "tol": args.tol, "T_max": args.Tmax}, _threshold_direct)
    return _run_from_scenario(args, args.task)


if __name__ == "__main__":
    sys.exit(main())
