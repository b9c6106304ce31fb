"""Per-workload output checks, run after timing stops.

Each checker reads the artifacts one pass wrote under ``out_root/<scenario
name>/`` and returns a list of problems; an empty list means every output is
correct.  The references are computed in ``reference.py``, apart from ddelab,
or are properties the method must have.
"""
from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

import reference
import workloads

# critical-gain: the reference solver is run this far outside each bracket end
BRACKET_OFFSET = 1e-3
# connection-diagram
TRIVIAL_MULTIPLIER_TOL = 1e-3
OMEGA_RTOL = 1e-3
REF_HISTORY, REF_T, REF_WINDOW, REF_DT = 1.2, 150.0, 50.0, 1e-3
# saddle-orbit
NEWTON_TOL = 1e-10  # the tolerance hopf_orbit_search is asked for (its default)
OMEGA_GUESS_RTOL = 0.2
FOURIER_RESIDUAL_PER_AMPLITUDE = 1e-2
ZERO_TOL = 1e-3
# simulate-artifacts
CLOSED_FORM_TOL = 1e-8
BAND_TOL = 1e-9
EVENT_TOL = 1e-9
EVENT_T_ATOL = 1e-12  # how far from an event time a node may be and still be flagged
EVENT_T_RTOL = 1e-12  # the CSV holds 13 significant digits


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv(path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def check_critical_gain(out_root, docs, run_scenario=None) -> list:
    problems = []
    for doc in docs:
        name = doc["name"]
        res = _json(os.path.join(out_root, name, "threshold.json"))
        c = float(res["c"])
        lo, hi = res["bracket"]
        if not 0.0 < hi - lo < doc["tol"]:
            problems.append(f"{name}: bracket [{lo}, {hi}] is not narrower than tol {doc['tol']}")
        in_d = [d for d, verdict, _ in res["history"] if verdict == reference.IN_D]
        hits = [d for d, verdict, _ in res["history"] if verdict == reference.HITS_ONE]
        if in_d and hits and max(in_d) >= min(hits):
            problems.append(f"{name}: probe verdicts out of order: IN_D at {max(in_d)} >= HITS_ONE at {min(hits)}")
        below = reference.probe_verdict(c, lo * (1.0 - BRACKET_OFFSET))
        above = reference.probe_verdict(c, hi * (1.0 + BRACKET_OFFSET))
        if below != reference.IN_D:
            problems.append(f"{name}: reference solver gives {below} just below lo = {lo}")
        if above != reference.HITS_ONE:
            problems.append(f"{name}: reference solver gives {above} just above hi = {hi}")
    return problems


def check_connection_diagram(out_root, docs, run_scenario=None) -> list:
    problems = []
    for doc in docs:
        name = doc["name"]
        diag = _json(os.path.join(out_root, name, "diagram.json"))
        verdicts = (diag["minus"]["limit"], diag["plus"]["limit"], diag["regime"])
        if verdicts != ("ZERO", "PERIODIC", "above"):
            problems.append(f"{name}: verdicts (minus, plus, regime) = {verdicts}, expected (ZERO, PERIODIC, above)")
            continue
        plus = diag["plus"]
        if not plus["floquet_trivial_error"] < TRIVIAL_MULTIPLIER_TOL:
            problems.append(f"{name}: trivial-multiplier error {plus['floquet_trivial_error']}")
        if not plus["floquet_leading_nontrivial"] < 1.0:
            problems.append(f"{name}: leading nontrivial multiplier {plus['floquet_leading_nontrivial']} >= 1")
        _, xs = reference.smooth_run(doc["c"], doc["d"], doc["k"], doc["n"], REF_HISTORY, REF_T, REF_WINDOW, REF_DT)
        period = reference.autocorrelation_period(xs, REF_DT)
        if not abs(plus["omega"] / period - 1.0) < OMEGA_RTOL:
            problems.append(f"{name}: omega {plus['omega']} against autocorrelation period {period}")
    return problems


def check_saddle_orbit(out_root, docs, run_scenario=None) -> list:
    problems = []
    omega_ref = 2.0 * math.pi / workloads.HOPF_THETA
    for doc in docs:
        name = doc["name"]
        if doc["task"] == "figure":
            # the unstable disk of the saddle orbit: one side collapses, the other escapes
            minus = _csv(os.path.join(out_root, name, "minus.csv"))
            plus = _csv(os.path.join(out_root, name, "plus.csv"))
            tail = minus["t"] >= 0.9 * minus["t"][-1]
            if not float(np.max(np.abs(minus["x"][tail]))) < ZERO_TOL:
                problems.append(f"{name}: minus-disk run does not decay to zero")
            tail = plus["t"] >= 0.9 * plus["t"][-1]
            if not float(np.max(plus["x"][tail])) > 100.0 * ZERO_TOL:
                problems.append(f"{name}: plus-disk run decays")
            continue
        res = _json(os.path.join(out_root, name, "hopf.json"))
        if not res.get("found"):
            problems.append(f"{name}: no orbit found")
            continue
        if not res["newton_residual"] <= NEWTON_TOL:
            problems.append(f"{name}: Newton residual {res['newton_residual']} above {NEWTON_TOL}")
        omega = float(res["orbit"]["omega"])
        if not abs(omega - omega_ref) <= OMEGA_GUESS_RTOL * omega_ref:
            problems.append(f"{name}: omega {omega} not within {OMEGA_GUESS_RTOL:.0%} of 2 pi / theta = {omega_ref}")
        ang = res["angles"]
        if not math.isclose(ang["b_n"] / ang["a_n"], doc["d"] / doc["c"], rel_tol=1e-12):
            problems.append(f"{name}: rescaled parameters change the gain ratio")
        orbit = _csv(os.path.join(out_root, name, "hopf_orbit.csv"))
        xs = orbit["x"]
        if not np.allclose(orbit["t"], np.arange(xs.size) * omega / xs.size, rtol=0.0, atol=1e-9):
            problems.append(f"{name}: samples are not equispaced over one period omega = {omega}")
        amplitude = 0.5 * float(np.max(xs) - np.min(xs))
        resid = reference.fourier_residual(xs, omega, ang["a_n"], ang["b_n"], doc["k"], doc["n"])
        if not resid <= FOURIER_RESIDUAL_PER_AMPLITUDE * amplitude:
            problems.append(f"{name}: Fourier residual {resid:.3e} above {FOURIER_RESIDUAL_PER_AMPLITUDE} x amplitude {amplitude:.3e}")
    return problems


def check_simulate_artifacts(out_root, docs, run_scenario) -> list:
    problems = []
    for doc in docs:
        name = doc["name"]
        system = doc["system"]
        top = system["d"] / system["c"]
        if doc["task"] == "manifold":
            xs = _csv(os.path.join(out_root, name, "manifold.csv"))["x"]
        else:
            cols = _csv(os.path.join(out_root, name, "trajectory.csv"))
            xs = cols["x"]
            events = cols["derivative_flag"] == 1.0
            flagged = np.sort(cols["t"][events])
            event_ts = np.sort([e["t"] for e in _json(os.path.join(out_root, name, "events.json"))])
            if flagged.size != event_ts.size or not np.allclose(flagged, event_ts, rtol=EVENT_T_RTOL, atol=EVENT_T_ATOL):
                problems.append(f"{name}: {flagged.size} flagged rows do not match the {event_ts.size} times in events.json")
            bad = np.abs(cols["x_delayed"][events] - 1.0) > EVENT_TOL
            if np.any(bad):
                problems.append(f"{name}: x_delayed != 1 at event rows t = {cols['t'][events][bad][:3].tolist()}")
            if doc["history"]["kind"] == "exp-decay":
                unit = cols["t"] <= 1.0
                err = float(np.max(np.abs(xs[unit] - reference.exp_decay_first_unit(cols["t"][unit], system["c"], system["d"]))))
                if not err <= CLOSED_FORM_TOL:
                    problems.append(f"{name}: first unit off the closed form by {err:.3e}")
        if not (float(np.min(xs)) >= -BAND_TOL and float(np.max(xs)) <= top + BAND_TOL):
            problems.append(f"{name}: values leave the band [0, {top}]")
    problems.extend(_rerun_problems(out_root, docs, run_scenario))
    return problems


def _rerun_problems(out_root, docs, run_scenario) -> list:
    """Re-run every scenario from its manifest alone and compare artifact bytes."""
    problems = []
    rerun_root = os.path.join(out_root, "_rerun")
    shutil.rmtree(rerun_root, ignore_errors=True)
    for doc in docs:
        name = doc["name"]
        first = os.path.join(out_root, name)
        again = os.path.join(rerun_root, name)
        result = run_scenario(os.path.join(first, "manifest.json"), out_dir=again)
        for art in result.artifacts:
            with open(os.path.join(first, art), "rb") as fa, open(os.path.join(again, art), "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{name}: rerun from manifest.json changes {art}")
    shutil.rmtree(rerun_root, ignore_errors=True)
    return problems


CHECKERS = {
    "critical-gain": check_critical_gain,
    "connection-diagram": check_connection_diagram,
    "saddle-orbit": check_saddle_orbit,
    "simulate-artifacts": check_simulate_artifacts,
}
