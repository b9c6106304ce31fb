"""Tests of the benchmark itself: each workload's checker passes the program's
real output and rejects a corrupted copy of it.

    python3 -m pytest bench/tests -q

The scenarios run once per module; with two short benchmark runs the module
takes about 90 s, most of it the connection diagram.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ddelab.scenarios import run_scenario  # noqa: E402


def _run(tmp_root, docs):
    for doc in docs:
        path = os.path.join(tmp_root, "scenarios", doc["name"] + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        run_scenario(path, out_dir=os.path.join(tmp_root, "runs", doc["name"]))
    return os.path.join(tmp_root, "runs")


def _corrupt_copy(runs, tmp_path):
    copy = os.path.join(tmp_path, "corrupt")
    shutil.copytree(runs, copy)
    return copy


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run a workload's scenarios once; ``outputs(name, docs)`` returns the runs directory."""
    done = {}

    def get(name, docs):
        if name not in done:
            done[name] = _run(str(tmp_path_factory.mktemp(name)), docs)
        return done[name]

    return get


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.scenario_docs(name, 7) == workloads.scenario_docs(name, 7)
    rates = [d["c"] for d in workloads.scenario_docs("critical-gain", 7)]
    assert rates != [d["c"] for d in workloads.scenario_docs("critical-gain", 8)]
    assert all(workloads.RATE_RANGE[0] <= c <= workloads.RATE_RANGE[1] for c in rates)
    assert workloads.scenario_docs("saddle-orbit", 7) == workloads.scenario_docs("saddle-orbit", 8)


@pytest.mark.parametrize("end, factor", [(0, 1.01), (1, 0.99)])
def test_critical_gain_rejects_a_moved_bracket_end(outputs, tmp_path, end, factor):
    docs = [{"name": "threshold", "task": "threshold", "c": 1.0, "tol": workloads.THRESHOLD_TOL}]
    runs = outputs("critical-gain", docs)
    assert checks.check_critical_gain(runs, docs) == []
    bad = _corrupt_copy(runs, tmp_path)

    def move(doc):
        doc["bracket"][end] *= factor

    _edit_json(os.path.join(bad, "threshold", "threshold.json"), move)
    problems = checks.check_critical_gain(bad, docs)
    assert any("reference solver" in p for p in problems), problems


def test_connection_diagram_rejects_a_flipped_verdict(outputs, tmp_path):
    docs = workloads.scenario_docs("connection-diagram", 0)
    runs = outputs("connection-diagram", docs)
    assert checks.check_connection_diagram(runs, docs) == []
    bad = _corrupt_copy(runs, tmp_path)
    _edit_json(os.path.join(bad, docs[0]["name"], "diagram.json"), lambda d: d["plus"].update(limit="ATTRACTOR"))
    problems = checks.check_connection_diagram(bad, docs)
    assert any("verdicts" in p for p in problems), problems


def test_connection_diagram_rejects_a_scaled_period(outputs, tmp_path):
    docs = workloads.scenario_docs("connection-diagram", 0)
    runs = outputs("connection-diagram", docs)
    bad = _corrupt_copy(runs, tmp_path)
    _edit_json(os.path.join(bad, docs[0]["name"], "diagram.json"), lambda d: d["plus"].update(omega=d["plus"]["omega"] * 1.01))
    problems = checks.check_connection_diagram(bad, docs)
    assert any("autocorrelation" in p for p in problems), problems


def test_saddle_orbit_rejects_a_scaled_period(outputs, tmp_path):
    docs = workloads.scenario_docs("saddle-orbit", 0)
    runs = outputs("saddle-orbit", docs)
    assert checks.check_saddle_orbit(runs, docs) == []
    bad = _corrupt_copy(runs, tmp_path)
    for doc in docs[:2]:
        _edit_json(os.path.join(bad, doc["name"], "hopf.json"), lambda d: d["orbit"].update(omega=d["orbit"]["omega"] * 1.01))
    problems = checks.check_saddle_orbit(bad, docs)
    for doc in docs[:2]:
        assert any(p.startswith(doc["name"]) and "Fourier residual" in p for p in problems), problems


def test_saddle_orbit_rejects_a_collapsing_plus_disk(outputs, tmp_path):
    docs = workloads.scenario_docs("saddle-orbit", 0)
    runs = outputs("saddle-orbit", docs)
    bad = _corrupt_copy(runs, tmp_path)
    shutil.copy(os.path.join(bad, "figure-x3", "minus.csv"), os.path.join(bad, "figure-x3", "plus.csv"))
    assert any("plus-disk" in p for p in checks.check_saddle_orbit(bad, docs))


def test_simulate_artifacts_rejects_a_moved_first_unit(outputs, tmp_path):
    docs = workloads.scenario_docs("simulate-artifacts", 0)
    runs = outputs("simulate-artifacts", docs)
    assert checks.check_simulate_artifacts(runs, docs, run_scenario) == []
    bad = _corrupt_copy(runs, tmp_path)
    path = os.path.join(bad, "simulate-probe", "trajectory.csv")
    with open(path) as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines[1:], start=1):
        t, x, rest = line.split(",", 2)
        if float(t) <= 1.0:
            lines[i] = f"{t},{float(x) + 1e-6:.12e},{rest}"
    with open(path, "w") as fh:
        fh.writelines(lines)
    problems = checks.check_simulate_artifacts(bad, docs, run_scenario)
    assert any("closed form" in p for p in problems), problems
    assert any("rerun" in p for p in problems), problems


def test_simulate_artifacts_rejects_unflagged_events(outputs, tmp_path):
    docs = workloads.scenario_docs("simulate-artifacts", 0)
    runs = outputs("simulate-artifacts", docs)
    bad = _corrupt_copy(runs, tmp_path)
    path = os.path.join(bad, "simulate-probe", "trajectory.csv")
    with open(path) as fh:
        lines = fh.readlines()
    lines[1:] = [line.rsplit(",", 1)[0] + ",0.000000000000e+00\n" for line in lines[1:]]
    with open(path, "w") as fh:
        fh.writelines(lines)
    problems = checks.check_simulate_artifacts(bad, docs, run_scenario)
    assert any(p.startswith("simulate-probe") and "events.json" in p for p in problems), problems


def test_reference_autocorrelation_period_of_a_known_signal():
    from reference import autocorrelation_period

    dt = 1e-3
    t = np.arange(0.0, 40.0, dt)  # 14.13 periods: the window holds no whole number of them
    assert autocorrelation_period(np.sin(2.0 * np.pi * t / 2.83) ** 3, dt) == pytest.approx(2.83, rel=1e-6)


def test_runs_report_the_metrics_benchmark_json_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "saddle-orbit",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert proc.returncode == 0 and result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "saddle-orbit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
