"""The benchmark's workloads: fixed lists of scenario documents.

Each workload is a list of scenario documents for ``ddelab.scenarios.run_scenario``,
built from the benchmark seed alone.  Two workloads (``connection-diagram`` and
``saddle-orbit``) are presets and ignore the seed.
"""
from __future__ import annotations

import math

import numpy as np

# the crossing-pair regime: a = 5*pi/(3*sqrt(3)) puts theta = 5*pi/3 on the axis
HOPF_RATE = 5.0 * math.pi / (3.0 * math.sqrt(3.0))
HOPF_THETA = 5.0 * math.pi / 3.0

THRESHOLD_TOL = 5e-5
RATE_RANGE = (0.5, 3.0)
LIMIT_C, LIMIT_D = 1.0, 7.38
SIM_T = 400.0


def _critical_gain(rng: np.random.Generator) -> list:
    # one decay rate from each third of RATE_RANGE: the whole range is covered
    # on every seed, so the pass cost varies less between seeds
    lo, hi = RATE_RANGE
    edges = np.linspace(lo, hi, 4)
    docs = []
    for i in range(3):
        c = round(float(rng.uniform(edges[i], edges[i + 1])), 6)
        docs.append({"name": f"threshold-{i}", "task": "threshold", "c": c, "tol": THRESHOLD_TOL})
    return docs


def _connection_diagram(rng: np.random.Generator) -> list:
    return [{"name": "diagram-x1", "task": "diagram", "c": 1.0, "d": 7.38, "k": 2.0, "n": 200}]


def _saddle_orbit(rng: np.random.Generator) -> list:
    return [
        {"name": "hopf-x3", "task": "hopf", "c": HOPF_RATE, "d": 7.95, "k": 2.0, "n": 100},
        {"name": "hopf-x4", "task": "hopf", "c": HOPF_RATE, "d": 25.0, "k": 2.0, "n": 100},
        {"name": "figure-x3", "task": "figure", "preset": "x3"},
    ]


def _sampled_history(rng: np.random.Generator) -> dict:
    # values inside the limit band [0, d/c], so the band check applies
    mesh = np.linspace(-1.0, 0.0, 9)
    values = rng.uniform(0.05, 0.95 * LIMIT_D / LIMIT_C, size=mesh.size)
    return {"kind": "samples", "mesh": [float(s) for s in mesh], "values": [round(float(v), 9) for v in values]}


def _simulate_artifacts(rng: np.random.Generator) -> list:
    system = {"kind": "limit", "c": LIMIT_C, "d": LIMIT_D}
    docs = [{"name": "simulate-probe", "task": "simulate", "system": system,
             "history": {"kind": "exp-decay"}, "T": SIM_T, "plot": True}]
    for i in range(2):
        docs.append({"name": f"simulate-sampled-{i}", "task": "simulate", "system": system,
                     "history": _sampled_history(rng), "T": SIM_T, "plot": True})
    docs.append({"name": "manifold-plus", "task": "manifold", "system": system, "branch": "plus"})
    return docs


WORKLOADS = {
    "critical-gain": _critical_gain,
    "connection-diagram": _connection_diagram,
    "saddle-orbit": _saddle_orbit,
    "simulate-artifacts": _simulate_artifacts,
}


def scenario_docs(workload: str, seed: int) -> list:
    """The workload's scenario documents for ``seed``; the same seed gives the same list."""
    return WORKLOADS[workload](np.random.default_rng(seed))
