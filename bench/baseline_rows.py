"""Warm timings of single layers, for the reference figures in README.md.

    PYTHONPATH=src python3 bench/baseline_rows.py

Each row is the best of ``REPEAT`` calls in one process, after one untimed
dense ``eig``; the first ``eig`` of the process is timed on its own.  Rows
follow the ROADMAP baseline table.
"""
from __future__ import annotations

import time

import numpy as np

t_first = time.perf_counter()
M = np.random.default_rng(0).standard_normal((201, 201))
np.linalg.eig(M)
FIRST_EIG_S = time.perf_counter() - t_first
REPEAT = 3

from ddelab import HistoryFunction, System, detect_periodic, find_dstar, integrate, monodromy_multipliers, shoot_branch  # noqa: E402
from ddelab.scenarios import FIGURE_PRESETS  # noqa: E402


def best(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def main() -> None:
    limit_quiet = System.limit(1.0, 1.5)   # below the critical gain: no cutoff crossings
    limit_events = System.limit(1.0, 7.38)
    x1 = System.smooth(1.0, 7.38, k=2.0, n=200)
    x2 = System.smooth(**{k: FIGURE_PRESETS["x2"][k] for k in ("a", "b", "k", "n")})
    probe = HistoryFunction.exp_decay(1.0)
    const = HistoryFunction.constant(1.2)

    rows = []
    rows.append(("first dense eig in the process (201x201)", FIRST_EIG_S, ""))
    rows.append(("warm dense eig (201x201)", best(lambda: np.linalg.eig(M), REPEAT)[0], ""))
    s, tr = best(lambda: integrate(limit_quiet, probe, 100.0, N=200), REPEAT)
    rows.append(("limit integrate, T=100, N=200, no crossings", s, f"{len(tr.events)} events"))
    s, tr = best(lambda: integrate(limit_events, probe, 100.0, N=200), REPEAT)
    rows.append(("limit integrate, T=100, with events", s, f"{len(tr.events)} events"))
    rows.append(("smooth integrate, T=100, N=200", best(lambda: integrate(x1, const, 100.0, N=200), REPEAT)[0], ""))
    s, long_traj = best(lambda: integrate(x1, const, 400.0, N=400), REPEAT)
    rows.append(("smooth integrate, T=400, N=400", s, f"{len(long_traj.ts) - 1} pieces"))
    s, orbit = best(lambda: detect_periodic(long_traj, level=1.0), REPEAT)
    rows.append(("detect_periodic on that trajectory", s, f"omega = {orbit.omega:.6f}" if orbit else "no orbit"))
    # the x1 diagram's own mesh, on which the orbit is detected
    orbit = detect_periodic(integrate(x1, const, 400.0, N=800), level=1.0)
    s, flo = best(lambda: monodromy_multipliers(x1, orbit, N=200, N_int=800), REPEAT)
    rows.append(("monodromy_multipliers, N=200, N_int=800 (warm)", s, f"trivial error {flo.trivial_error:.1e}"))
    s, _ = best(lambda: shoot_branch(x2, "plus", T=200.0, N=800), 1)
    rows.append(("shoot_branch x2, T=200, N=800 (one call)", s, ""))
    s, res = best(lambda: find_dstar(1.0, tol=5e-5), 1)
    rows.append(("find_dstar(1.0, tol=5e-5) (one call)", s, f"{len(res.history)} probes"))

    print("| what | seconds | note |")
    print("| --- | ---: | --- |")
    for what, secs, note in rows:
        print(f"| {what} | {secs:.3f} | {note} |")


if __name__ == "__main__":
    main()
