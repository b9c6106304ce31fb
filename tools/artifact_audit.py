"""Write the artifacts of a fixed set of scenarios, one directory per scenario.

    python3 tools/artifact_audit.py OUT_DIR

Runs each scenario of ``scenarios()`` through ``ddelab.scenarios.run_scenario``
with ``OPENBLAS_NUM_THREADS=1`` (dense ``eig`` bits depend on the thread
count) and writes its artifacts and manifest to ``OUT_DIR/<name>/``.  ddelab
is imported from ``src/`` of the checkout this file sits in, so two checkouts
write the same bytes exactly when ``diff -r`` of their two ``OUT_DIR``\\ s is
empty.  The set covers the benchmark's four workloads at seeds 1 and 2 (read
from ``bench/workloads.py``), the figure presets, the slower diagrams,
every other task at least once, and every optional key of every task set
away from its default at least once, so the comparison covers each value a
runner reads.
"""
from __future__ import annotations

import json
import math
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no cache files in the checkout
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from ddelab.scenarios import run_scenario  # noqa: E402
from workloads import WORKLOADS, scenario_docs  # noqa: E402

HOPF_C = 5.0 * math.pi / (3.0 * math.sqrt(3.0))


def scenarios() -> list:
    """The audit's scenario documents, each with a name unique in the set."""
    docs = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            for doc in scenario_docs(workload, seed):
                docs.append({**doc, "name": f"{workload}-s{seed}-{doc['name']}"})
    docs += [{"name": f"figure-{p}", "task": "figure", "preset": p} for p in ("x1", "x2", "x3", "x4")]
    docs += [
        {"name": "diagram-x2", "task": "diagram", "c": 4.0, "d": 12.71, "k": 2.0, "n": 200},
        {"name": "diagram-x3-hopf", "task": "diagram", "c": HOPF_C, "d": 7.95, "k": 2.0, "n": 100, "with_hopf": True},
        {"name": "diagram-x4-hopf", "task": "diagram", "c": HOPF_C, "d": 25.0, "k": 2.0, "n": 100, "with_hopf": True},
        {"name": "diagram-near-b50", "task": "diagram", "c": 1.0, "d": 1.7427009365081787, "k": 2.0, "n": 50},
        {"name": "periodic-smooth", "task": "periodic", "system": {"kind": "smooth", "a": 2.0, "b": 10.0, "n": 200}},
        {"name": "periodic-limit", "task": "periodic", "system": {"kind": "limit", "c": 1.0, "d": 7.38}},
        {"name": "hopf-x3", "task": "hopf", "c": HOPF_C, "d": 7.95, "k": 2.0, "n": 100},
        {"name": "hopf-x4-grid", "task": "hopf", "c": HOPF_C, "d": 25.0, "k": 2.0, "n": 100, "alpha_grid": [0.05, 0.2]},
        {"name": "threshold-0.7", "task": "threshold", "c": 0.7, "tol": 1e-5},
        {"name": "envelope", "task": "envelope", "c": 1.0, "d": 7.38, "d0": 6.5},
    ]
    docs += [
        {"name": f"spectrum-{rate:g}-{slope:g}", "task": "spectrum", "rate": rate, "slope": slope}
        for rate, slope in ((1.0, 2.0), (800.0, 1.0), (1e6, 1.0), (1e7, 1.0))
    ]
    docs += [
        {"name": "manifold-minus-smooth", "task": "manifold", "branch": "minus",
         "system": {"kind": "smooth", "a": 1.0, "b": 7.38, "n": 200}},
        {"name": "manifold-minus-limit", "task": "manifold", "branch": "minus",
         "system": {"kind": "limit", "c": 1.0, "d": 7.38}},
        {"name": "simulate-smooth-plot", "task": "simulate", "T": 20.5, "plot": True,
         "system": {"kind": "smooth", "a": 1.0, "b": 7.38, "n": 200}},
        {"name": "simulate-limit-constant", "task": "simulate", "history": {"kind": "constant", "value": 0.5},
         "system": {"kind": "limit", "c": 1.0, "d": 7.38}},
    ]
    # every optional key the documents above leave at its default, set at
    # least once, with integers where the runner reads a float
    docs += [
        {"name": "threshold-int", "task": "threshold", "c": 2, "bracket": [4, 5], "tol": 1e-3, "T_max": 300},
        {"name": "threshold-k3", "task": "threshold", "c": 1, "k": 3, "tol": 1e-3},
        {"name": "envelope-int-k3", "task": "envelope", "c": 1, "d": 8, "d0": 7, "k": 3},
        {"name": "simulate-int-samples", "task": "simulate", "T": 12, "N": 150, "plot": True,
         "history": {"kind": "samples", "mesh": [-1, -0.5, 0], "values": [1, 2, 0.5]},
         "system": {"kind": "limit", "c": 1, "d": 7, "k": 3}},
        {"name": "manifold-plus-set", "task": "manifold", "branch": "plus", "kappa": 0.3, "eps_seed": 1e-6,
         "T": 12, "N": 150, "system": {"kind": "limit", "c": 1, "d": 7}},
        {"name": "spectrum-int", "task": "spectrum", "rate": 1, "slope": 3, "pairs": 3},
        {"name": "periodic-int", "task": "periodic", "T": 120, "N": 300, "transient": 60, "level": 0.9,
         "system": {"kind": "limit", "c": 1, "d": 7}},
        # c at the crossing-pair criticality of the j-th band, cos(theta) = 1/k
        {"name": "hopf-j2", "task": "hopf", "c": 11 * math.pi / (3 * math.sqrt(3)), "d": 20, "k": 2, "n": 100, "j": 2},
        {"name": "hopf-k3", "task": "hopf", "c": (2 * math.pi - math.acos(1 / 3)) / math.sqrt(8), "d": 6, "k": 3,
         "n": 100},
        {"name": "diagram-x1-set", "task": "diagram", "c": 1, "d": 7.38, "k": 3, "n": 200, "N": 300, "T_orbit": 60},
        {"name": "diagram-x3-grid", "task": "diagram", "c": HOPF_C, "d": 7.95, "n": 100, "with_hopf": True,
         "alpha_grid": [0.02]},
        {"name": "figure-x1-int", "task": "figure", "preset": "x1", "T": 30, "N": 300},
        {"name": "figure-x3-int", "task": "figure", "preset": "x3", "T": 10, "N": 300},
    ]
    return docs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/artifact_audit.py OUT_DIR", file=sys.stderr)
        return 2
    out = argv[0]
    files = 0
    docs = scenarios()
    with tempfile.TemporaryDirectory() as tmp:
        for doc in docs:
            path = os.path.join(tmp, doc["name"] + ".json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            files += len(run_scenario(path, out_dir=os.path.join(out, doc["name"])).artifacts)
    print(f"{len(docs)} scenarios, {files} files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
