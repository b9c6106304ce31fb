"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the expensive artifacts (critical-gain bracket, figure-regime
diagrams) are shared session fixtures.
"""
import math

import numpy as np
import pytest

from ddelab.dde import System, check_bounds, integrate
from ddelab.history import HistoryFunction
from ddelab.manifold import convergence_table, exp_segment_check, shoot_branch
from ddelab.periodic import monodromy_multipliers
from ddelab.spectrum import solve_theta, track_crossing_root, transversality
from ddelab.threshold import HITS_ONE, IN_D, classify_zd, envelopes

from conftest import HOPF_C, maximal_runs


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_one_step_formula():
    c, d = 1.0, 7.38
    traj = integrate(System.limit(c, d), HistoryFunction.constant(1.0), 1.0)
    t = np.linspace(0.0, 1.0, 2001)
    exact = np.exp(-c * t) * (1.0 - d / c) + d / c
    err = float(np.max(np.abs(traj.eval_many(t) - exact)))
    report(1, err < 1e-8, f"one-step formula sup error {err:.2e} < 1e-8")


def test_criterion_2_decay_segment():
    details = []
    ok = True
    for c, d in ((1.0, 7.38), (4.0, 12.71)):
        sol = shoot_branch(System.limit(c, d), "plus", T=12.0)
        lm = sol.landmarks
        dev = exp_segment_check(sol)
        ident = abs(lm.t2 - lm.t1 - 1.0 - math.log(lm.x_t1p1) / c)
        ok = ok and dev < 1e-8 and ident < 1e-6
        details.append(f"(c={c}, d={d}): deviation {dev:.1e}, landmark identity {ident:.1e}")
    report(2, ok, "; ".join(details))


def test_criterion_3_invariant_bands():
    rng = np.random.default_rng(12345)
    worst_note = []
    ok = True
    for system, hi in (
        (System.limit(1.0, 7.38), 7.38),
        (System.smooth(1.0, 7.38, n=100), 2 * 7.38),
    ):
        for _ in range(50):
            nodes = np.linspace(-1.0, 0.0, int(rng.integers(6, 14)))
            hist = HistoryFunction.from_samples(nodes, rng.uniform(0.0, hi, size=nodes.size))
            rep = check_bounds(integrate(system, hist, 8.0), band_tol=1e-9)
            ok = ok and rep.band_ok and rep.lipschitz_ok
        worst_note.append(f"{system.kind}: band {rep.band}, slope bound {rep.lipschitz_bound}")
    report(3, ok, "50+50 random starts stay in bands with unit-window slopes; " + "; ".join(worst_note))


def test_criterion_4_subcritical_probe_and_ordering():
    ok = True
    notes = []
    for c in (0.5, 1.0, 3.0):
        traj = integrate(System.limit(c, c), HistoryFunction.exp_decay(c), 199.0)
        vals = traj.eval_many(np.linspace(0.0, 199.0, 40001))
        inside = bool(np.all(vals > 0.0) and np.all(vals < 1.0))
        ok = ok and inside
        notes.append(f"c={c}: probe stays in (0,1) = {inside}")
    grid = [1.2, 1.35, 1.5, 1.62, 1.72]
    tt = np.linspace(1.01, 30.0, 4001)
    prev = None
    ordered = True
    for d in grid:
        traj = integrate(System.limit(1.0, d), HistoryFunction.exp_decay(1.0), 30.0)
        vals = traj.eval_many(tt - 1.0)
        ordered = ordered and bool(np.max(vals) < 1.0)
        if prev is not None:
            ordered = ordered and bool(np.all(prev < vals + 1e-9))
        prev = vals
    ok = ok and ordered
    report(4, ok, "; ".join(notes) + f"; 5-point gain grid ordered = {ordered}")


def test_criterion_5_critical_gain_bisection(dstar_c1):
    res = dstar_c1
    lo_ok = classify_zd(1.0, res.lo).verdict == IN_D
    hi_ok = classify_zd(1.0, res.hi).verdict == HITS_ONE
    fig_ok = classify_zd(1.0, 7.38).verdict == HITS_ONE
    ok = res.width < 1e-4 and lo_ok and hi_ok and fig_ok
    report(
        5,
        ok,
        f"critical gain ~ {res.estimate:.6f}, bracket width {res.width:.1e} < 1e-4, "
        f"re-classification consistent ({lo_ok}/{hi_ok}), 7.38 contacts the cutoff ({fig_ok})",
    )


def test_criterion_6_convergence_to_limit_branch():
    tab = convergence_table(1.0, 7.38, 2.0, (20, 40, 80, 160))
    first, final = tab.first(), tab.final()
    window_ok = tab.rows[-1][3]
    ok = final < first and final < 0.05 and window_ok
    report(
        6,
        ok,
        f"sup distances {', '.join(f'{r[1]:.4f}' for r in tab.rows)} on [0,{tab.m}]; "
        f"final < first and < 0.05; super-threshold window at n=160: {window_ok}",
    )


def test_criterion_7_angle_and_transversality():
    theta = solve_theta(HOPF_C, 1)
    angle_err = abs(theta - 5.0 * math.pi / 3.0)
    slope = 2.0 * HOPF_C
    eps = 1e-5
    fd = (track_crossing_root(HOPF_C, slope, theta, eps).real - track_crossing_root(HOPF_C, slope, theta, -eps).real) / (2.0 * eps)
    formula = transversality(HOPF_C, theta)
    fd_err = abs(fd - formula)
    ok = angle_err < 1e-10 and fd_err < 1e-6
    report(7, ok, f"angle error {angle_err:.1e} < 1e-10; transversality FD mismatch {fd_err:.1e} < 1e-6")


def test_criterion_8_figure_regimes(x1_diagram, x2_diagram, hopf_diagram):
    notes = []
    ok = True
    for name, diag in (("x1 (1, 7.38, 200)", x1_diagram), ("x2 (4, 12.71, 200)", x2_diagram)):
        good = (
            diag.minus_limit == "ZERO"
            and diag.plus_limit == "PERIODIC"
            and diag.plus_evidence["floquet_leading_nontrivial"] < 1.0
        )
        ok = ok and good
        notes.append(
            f"{name}: minus->0 {diag.minus_limit == 'ZERO'}, plus {diag.plus_limit} "
            f"(omega {diag.plus_evidence.get('omega', float('nan')):.4f}, "
            f"max nontrivial multiplier {diag.plus_evidence.get('floquet_leading_nontrivial', float('nan')):.2e})"
        )
    h = hopf_diagram.hopf
    hopf_ok = h is not None and h.get("orbit") is not None
    if hopf_ok:
        omega = h["orbit"]["omega"]
        ref = h["omega_reference"]
        freq_ok = abs(omega - ref) / ref < 0.2
        fates = h["disk_fates"]
        fate_ok = fates["plus"]["fate"] == "ORBIT" and fates["minus"]["fate"] == "ZERO"
        regime_ok = hopf_diagram.regime == "above"
        hopf_ok = freq_ok and fate_ok and regime_ok
        notes.append(
            f"hopf (c=5pi/(3sqrt3), 25, 100): amplitude {h['amplitude']:.3f}, "
            f"omega {omega:.4f} vs 2pi/theta {ref:.4f}, plus-disk {fates['plus']['fate']}, "
            f"minus-disk {fates['minus']['fate']}, regime above: {regime_ok}"
        )
    else:
        notes.append("hopf: no small orbit found")
    ok = ok and hopf_ok
    report(8, ok, "; ".join(notes))


def test_criterion_9_monodromy_sanity(x1_diagram):
    system = System.smooth(1.0, 7.38, n=200)
    orbit = x1_diagram.orbit
    err200 = monodromy_multipliers(system, orbit, N=200).trivial_error
    err400 = monodromy_multipliers(system, orbit, N=400).trivial_error
    ok = err200 < 1e-3 and err400 < err200
    report(9, ok, f"trivial multiplier error {err200:.2e} at N=200 (< 1e-3), {err400:.2e} at N=400 (decreasing)")


def test_criterion_10_property_suites(dstar_c1, plus_branch_limit_1, plus_branch_smooth_200):
    failures = []

    # monotone ordering below the cutoff
    system = System.limit(1.0, 1.3)
    nodes = np.linspace(-1.0, 0.0, 9)
    rng = np.random.default_rng(3)
    base = rng.uniform(0.2, 0.5, size=9)
    ta = integrate(system, HistoryFunction.from_samples(nodes, base), 30.0)
    tb = integrate(system, HistoryFunction.from_samples(nodes, base + 0.05), 30.0)
    tt = np.linspace(0.0, 30.0, 6001)
    if not np.all(ta.eval_many(tt) <= tb.eval_many(tt) + 1e-9):
        failures.append("monotone ordering")

    # seed robustness of the anchored plus branch
    a = shoot_branch(System.limit(1.0, 7.38), "plus", eps_seed=1e-5, T=12.0)
    b = shoot_branch(System.limit(1.0, 7.38), "plus", eps_seed=5e-6, T=12.0)
    ss = np.linspace(0.0, 10.0, 2001)
    if np.max(np.abs(a.eval_many(ss) - b.eval_many(ss))) >= 1e-6:
        failures.append("seed robustness")

    # band membership for the limit and smooth branches
    env = envelopes(1.0, 7.38, d0=0.5 * (dstar_c1.estimate + 7.38))
    sol = plus_branch_limit_1
    grid = np.linspace(0.0, sol.domain[1] - 0.5, 8001)
    vals = sol.eval_many(grid)
    if not (np.min(vals) >= env.m0 - 1e-6 and np.max(vals) <= env.m1 + 1e-6):
        failures.append("limit band membership")
    ysol = plus_branch_smooth_200
    ygrid = np.linspace(0.0, ysol.domain[1] - 0.5, 8001)
    yvals = ysol.eval_many(ygrid)
    if not (np.min(yvals) >= env.m0_n - 1e-6 and np.max(yvals) <= env.m1_n + 1e-6):
        failures.append("smooth band membership")

    # interval-exit bounds with a practical margin delta
    delta = 0.05
    nu1 = 1.0 + (2.0 / (1.0 * delta)) * (2.0 * 7.38 - 1.0)
    t2 = ysol.landmarks.t2
    tt = np.linspace(t2, ysol.domain[1] - 0.5, 40001)
    yv = ysol.eval_many(tt)
    sub_runs = maximal_runs(yv < 1.0 - delta, tt)[:-1]
    sup_runs = maximal_runs(yv > 1.0 + delta, tt)[:-1]
    if not all(length <= env.tau0 + 1e-6 for _, length, _, _ in sub_runs):
        failures.append("sub-cutoff interval exit")
    if not all(yv[i : j + 1].min() >= env.m0 / 2.0 for _, _, i, j in sub_runs):
        failures.append("sub-cutoff interval floor")
    if not all(length <= nu1 for _, length, _, _ in sup_runs):
        failures.append("super-cutoff interval exit")
    if not all(yv[i : j + 1].max() < 2.0 * 7.38 for _, _, i, j in sup_runs):
        failures.append("super-cutoff interval ceiling")

    # fourth-order step-halving convergence
    sys6 = System.smooth(1.0, 7.38, n=6)
    hist = HistoryFunction.constant(0.4)
    v = [integrate(sys6, hist, 5.0, N=N).eval(5.0) for N in (100, 200, 400)]
    order = math.log2(abs(v[0] - v[1]) / abs(v[1] - v[2]))
    if not 3.5 < order < 4.6:
        failures.append(f"step-halving order ({order:.2f})")

    report(10, not failures, "property suites all green" if not failures else "failed: " + ", ".join(failures))
