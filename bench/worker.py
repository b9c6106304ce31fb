"""One workload in one fresh Python process.

    python3 bench/worker.py --workload W --seed S --seconds R --mode setup|untraced|traced

Set-up (imports, writing the scenario files, one warm-up dense ``eig``) ends
with a ``READY`` line on stdout, which ``run.py`` times from process start.
In ``setup`` mode the process then exits.  Otherwise it runs whole passes over
the scenario list through ``ddelab.scenarios.run_scenario`` until ``R``
seconds are used (at least one pass), stamping the start and end of each pass
with ``time.monotonic`` (``run.py`` scales the passes to reference machine
speed), checks the outputs of the last pass, and prints one ``RESULT <json>``
line.  ``traced`` adds one pass with spans recorded around ddelab's layers.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
EIG_WARMUP_N = 201  # the period-map size monodromy_multipliers uses at N=200


def _setup(workload: str, seed: int):
    import numpy as np

    import workloads
    from ddelab import scenarios

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(scenarios.__file__).startswith(src + os.sep):
        raise SystemExit(f"ddelab imported from {scenarios.__file__}, not from {src}")
    docs = workloads.scenario_docs(workload, seed)
    scen_dir = os.path.join(OUT, workload, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)
    paths = []
    for doc in docs:
        path = os.path.join(scen_dir, doc["name"] + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        paths.append(path)
    np.linalg.eig(np.random.default_rng(seed).standard_normal((EIG_WARMUP_N, EIG_WARMUP_N)))
    return scenarios, docs, paths


def _one_pass(scenarios, paths, runs_dir) -> tuple[list, int, int]:
    """Run every scenario once; return the pass's [start, end] stamps, attempted, failed."""
    failed = 0
    t0 = time.monotonic()
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            if scenarios.run_scenario(path, out_dir=os.path.join(runs_dir, name)).unresolved:
                failed += 1
                print(f"unresolved verdict in {name}", file=sys.stderr)
        except Exception:  # a failed operation is counted, and the pass goes on
            failed += 1
            traceback.print_exc()
    return [t0, time.monotonic()], len(paths), failed


def _environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_cap": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    args = ap.parse_args(argv)

    scenarios, docs, paths = _setup(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    work_dir = os.path.join(OUT, args.workload)
    runs_dir = os.path.join(work_dir, "runs")
    shutil.rmtree(runs_dir, ignore_errors=True)  # no artifact of an earlier run can pass the checks
    passes, attempted, failed = [], 0, 0
    while True:
        stamps, n, bad = _one_pass(scenarios, paths, runs_dir)
        passes.append(stamps)
        attempted += n
        failed += bad
        if stamps[1] - passes[0][0] + statistics.median(e - s for s, e in passes) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "peak_rss_mib": peak_rss_mib,
        "environment": _environment(),
    }
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["traced_pass"], n, bad = _one_pass(scenarios, paths, runs_dir)
        finally:
            tracer.uninstall()
        attempted += n
        failed += bad
        result.update(attempted=attempted, failed=failed)
        result["layers"] = {k: list(v) for k, v in tracer.layer_metrics().items()}
        start, end = result["traced_pass"]
        result["layer_table"] = tracer.write(work_dir, end - start)

    import checks

    try:
        problems = checks.CHECKERS[args.workload](runs_dir, docs, scenarios.run_scenario)
    except Exception:
        problems = ["checker raised:\n" + traceback.format_exc()]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result["correct"] = not problems
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
