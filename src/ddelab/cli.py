"""Command-line entry point: ``ddelab <task> --scenario <file> [--out <dir>]``.

Every task accepts a scenario file; ``spectrum`` and ``threshold`` also take
direct flags for quick interactive use.  Without ``--scenario``, the flags
given make the task's scenario, validated as the fields of the same names (a
flag left out takes the default of ``scenarios._TASKS``, and each flag has
its field's type) and run in memory by the same runner; its one artifact is
printed, not written.  Exit codes: 0 all verdicts resolved, 2 validation
failure, 3 at least one verdict unresolved.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import scenarios
from .dde import ParameterError
from .scenarios import TASKS, ScenarioError, run_scenario, validate_scenario

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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(result.artifacts)} artifacts to {result.out_dir}")
    for art in result.artifacts:
        print(f"  {art}")
    if result.unresolved:
        print("warning: unresolved verdicts present", file=sys.stderr)
        return 3
    return 0


def _run_direct(args, fields: dict, show) -> int:
    """Run the task's scenario made from the direct flags and ``show`` its one artifact; bad flags exit 2."""
    try:
        scenario = validate_scenario({"name": args.task, "task": args.task, **fields})
        artifacts, unresolved = scenarios._RUNNERS[args.task](scenario)
    except ScenarioError as exc:
        return _report(exc)
    except ParameterError as exc:
        print(f"error: {exc.field}: {exc}", file=sys.stderr)
        return 2
    show(artifacts[f"{args.task}.json"])
    return 3 if unresolved else 0


def _show_spectrum(doc: dict) -> None:
    print(f"{'root':>10} {'re':>18} {'im':>18} {'residual':>12}")
    print(f"{'real':>10} {doc['lambda0']:>18.12f} {0.0:>18.12f} {'-':>12}")
    for i, ((re, im), res) in enumerate(zip(doc["pairs"], doc["residuals"]), start=1):
        print(f"{'pair ' + str(i):>10} {re:>18.12f} {im:>18.12f} {res:>12.2e}")
    print(f"window: ({doc['beta_window'][0]:.12e}, {doc['beta_window'][1]:.12e})")


def _show_threshold(doc: dict) -> None:
    print(json.dumps(doc, indent=1))


_FLAGS = {  # each task's direct flags: (flag, scenario field), typed by the field's cast
    "spectrum": (("--rate", "rate"), ("--slope", "slope"), ("--pairs", "pairs")),
    "threshold": (("--c", "c"), ("--tol", "tol"), ("--Tmax", "T_max")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ddelab", description="delay-equation laboratory")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a '{task}' scenario")
        _add_common(p)
        for flag, name in _FLAGS.get(task, ()):
            p.add_argument(flag, dest=name, type=scenarios._RULES[name][2])

    args = parser.parse_args(argv)
    fields = {name: getattr(args, name) for _, name in _FLAGS.get(args.task, ()) if getattr(args, name) is not None}
    if args.scenario is None and fields:
        return _run_direct(args, fields, _show_spectrum if args.task == "spectrum" else _show_threshold)
    return _run_from_scenario(args, args.task)


if __name__ == "__main__":
    sys.exit(main())
