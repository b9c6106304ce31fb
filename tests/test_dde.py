import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.signal import lfilter

from ddelab import dde, periodic, threshold
from ddelab.dde import (
    _BISECT_TOL,
    _SAMPLE_THETAS,
    System,
    _eval_pieces,
    _hermite_eval,
    _level_crossings,
    _march,
    _rk4_affine_coeffs,
    _rk4_affine_steps,
    _stage_grid,
    check_bounds,
    integrate,
    segment_at,
)
from ddelab.history import _PROBE, HistoryFunction
from ddelab.manifold import shoot_branch
from ddelab.spectrum import stationary_points


def random_history(rng, lo, hi, n_nodes=10):
    nodes = np.linspace(-1.0, 0.0, n_nodes)
    return HistoryFunction.from_samples(nodes, rng.uniform(lo, hi, size=n_nodes))


class TestSystem:
    def test_kind_is_read_off_the_feedback(self):
        """``System`` holds rate, gain and feedback; the feedback's type is its kind."""
        assert [f.name for f in dataclasses.fields(System)] == ["rate", "gain", "feedback"]
        assert System.limit(1.0, 2.0).kind == "limit"
        assert System.smooth(1.0, 2.0).kind == "smooth"

    def test_other_feedback_rejected(self):
        with pytest.raises(ValueError, match="feedback"):
            System(1.0, 2.0, lambda xi: xi)


class TestIntegrate:
    def test_one_step_closed_form_from_cutoff_history(self):
        # constant history at the cutoff: forcing is exactly the gain
        c, d = 1.0, 7.38
        traj = integrate(System.limit(c, d), HistoryFunction.constant(1.0), 1.0)
        t = np.linspace(0.0, 1.0, 501)
        exact = math.e ** (-c * t) * (1.0 - d / c) + d / c
        assert np.max(np.abs(traj.eval_many(t) - exact)) < 1e-10

    def test_stationary_history_stays_constant(self):
        system = System.smooth(1.0, 7.38, n=100)
        xi = stationary_points(system, 0.9).interior().value
        traj = integrate(system, HistoryFunction.constant(xi), 10.0)
        t = np.linspace(0.0, 10.0, 2001)
        assert np.max(np.abs(traj.eval_many(t) - xi)) < 1e-9

    def test_supercutoff_constant_decays_exactly(self):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.constant(1.5), 1.0)
        t = np.linspace(0.0, 1.0, 501)
        assert np.max(np.abs(traj.eval_many(t) - 1.5 * np.exp(-t))) < 1e-12

    def test_continuity_at_nodes(self):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 10.0)
        mid = traj.ts[1:-1]
        left = traj.eval_many(mid - 1e-13)
        right = traj.eval_many(mid + 1e-13)
        scale = np.maximum(1.0, np.abs(traj.xs[1:-1]))
        assert np.max(np.abs(left - right) / scale) < 1e-11

    def test_negative_history_rejected(self):
        with pytest.raises(ValueError, match="history must be nonnegative"):
            integrate(System.limit(1.0, 2.0), HistoryFunction.constant(-0.5), 1.0)

    def test_non_finite_column_named_by_its_first_node(self):
        history = HistoryFunction.from_callable(lambda s: np.ones((np.size(s), 3)))

        def forcing(stages, v):  # one column's forcing blows up after t = 1.25
            out = np.zeros_like(v)
            out[stages > 1.25, 1] = np.inf
            return out

        with np.errstate(invalid="ignore"), pytest.raises(dde.DDEIntegrationError, match=r"near t = 1\.260000"):
            list(_march(System.smooth(1.0, 7.38, n=20), history, 3.0, 100, [], forcing))

    def test_non_finite_scalar_node_named(self):
        def forcing(stages, v):  # the forcing blows up after t = 1.25
            return np.where(stages > 1.25, np.inf, 0.0)

        with np.errstate(invalid="ignore"), pytest.raises(dde.DDEIntegrationError, match=r"near t = 1\.260000"):
            list(_march(System.smooth(1.0, 7.38, n=20), HistoryFunction.constant(1.0), 3.0, 100, [], forcing))

    def test_march_takes_a_tangent_history_of_either_sign(self):
        """Only ``integrate`` checks the sign: a variational history may dip below zero."""
        history = HistoryFunction.from_callable(lambda s: np.sin(2.0 * np.pi * np.asarray(s)))
        blocks = list(_march(System.smooth(1.0, 7.38, n=20), history, 2.0, 100, []))
        assert len(blocks) == 2 and np.all(np.isfinite(blocks[-1][1]))

    def test_coarse_mesh_rejected(self):
        with pytest.raises(ValueError):
            integrate(System.limit(1.0, 2.0), HistoryFunction.constant(0.5), 1.0, N=50)

    def test_event_log_kinds(self):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 10.0)
        kinds = {e["kind"] for e in traj.events}
        assert kinds <= {"forcing-on", "forcing-off"}
        assert len(traj.events) >= 2
        times = [e["t"] for e in traj.events]
        assert times == sorted(times)


class TestSegmentAt:
    def test_identity_at_zero(self):
        hist = HistoryFunction.constant(0.7)
        traj = integrate(System.limit(1.0, 2.0), hist, 2.0)
        assert segment_at(traj, 0.0) is hist

    def test_constant_trajectory_segments(self):
        system = System.smooth(1.0, 7.38, n=100)
        xi = stationary_points(system, 0.9).interior().value
        traj = integrate(system, HistoryFunction.constant(xi), 5.0)
        seg = segment_at(traj, 3.0)
        s = np.linspace(-1.0, 0.0, 101)
        assert np.max(np.abs(seg.eval(s) - xi)) < 1e-9

    def test_matches_closed_form_after_one_step(self):
        c, d = 1.0, 7.38
        traj = integrate(System.limit(c, d), HistoryFunction.constant(1.0), 1.0)
        seg = segment_at(traj, 1.0)
        s = np.linspace(-1.0, 0.0, 201)
        exact = np.exp(-c * (1.0 + s)) * (1.0 - d / c) + d / c
        assert np.max(np.abs(seg.eval(s) - exact)) < 1e-10

    def test_out_of_range_rejected(self):
        traj = integrate(System.limit(1.0, 2.0), HistoryFunction.constant(0.5), 2.0)
        with pytest.raises(ValueError):
            segment_at(traj, 3.0)


class TestBounds:
    def test_band_and_slope_limit(self):
        rng = np.random.default_rng(7)
        system = System.limit(1.0, 7.38)
        for _ in range(5):
            hist = random_history(rng, 0.0, 7.38)
            rep = check_bounds(integrate(system, hist, 8.0))
            assert rep.band_ok and rep.lipschitz_ok

    def test_band_and_slope_smooth(self):
        rng = np.random.default_rng(8)
        system = System.smooth(1.0, 7.38, n=100)
        for _ in range(5):
            hist = random_history(rng, 0.0, 2 * 7.38)
            rep = check_bounds(integrate(system, hist, 8.0))
            assert rep.band_ok and rep.lipschitz_ok

    def test_zero_history_stays_zero(self):
        rep = check_bounds(integrate(System.limit(1.0, 7.38), HistoryFunction.constant(0.0), 5.0))
        assert rep.max_value == 0.0 and rep.min_value == 0.0


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(6)


def integral_residual(traj, tau: float, t: float) -> float:
    """Defect of the variation-of-constants identity between ``tau`` and ``t``.

    The convolution integral is evaluated by fixed Gauss panels on the dense
    mesh pieces, which never straddle a forcing switch; all panels are
    evaluated together.
    """
    if not 0.0 <= tau < t <= traj.T + 1e-12:
        raise ValueError("need 0 <= tau < t <= T")
    sys_ = traj.system
    i0 = np.searchsorted(traj.ts, tau, side="right") - 1
    i1 = np.searchsorted(traj.ts, t, side="left") - 1
    i = np.arange(max(i0, 0), min(i1, len(traj.ts) - 2) + 1)
    a = np.maximum(traj.ts[i], tau)
    b = np.minimum(traj.ts[i + 1], t)
    i, a, b = i[b > a], a[b > a], b[b > a]
    half = (0.5 * (b - a))[:, None]
    s = 0.5 * (a + b)[:, None] + half * _GAUSS_NODES
    xi = traj.eval_many(s - 1.0)
    if sys_.kind == "limit":
        # the stored one-sided forcing: off on pieces above the cutoff
        forcing = np.where(traj.side[i][:, None] == 1, 0.0, sys_.gain * sys_.feedback.clamped_power(xi))
    else:
        forcing = sys_.gain * sys_.feedback.value(np.maximum(xi, 0.0))
    total = float(np.sum(half * forcing * np.exp(-sys_.rate * (t - s)) * _GAUSS_WEIGHTS))
    rhs = math.exp(-sys_.rate * (t - tau)) * traj.eval(tau) + total
    return abs(traj.eval(t) - rhs)


class TestIntegralEquation:
    def test_residual_on_random_windows(self):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 30.0)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(30):
            tau = rng.uniform(0.0, 29.0)
            t = rng.uniform(tau + 0.01, 30.0)
            worst = max(worst, integral_residual(traj, tau, t))
        assert worst < 1e-6

    def test_residual_smooth_system(self):
        traj = integrate(System.smooth(1.0, 7.38, n=50), HistoryFunction.constant(1.2), 20.0, N=400)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(20):
            tau = rng.uniform(0.0, 19.0)
            t = rng.uniform(tau + 0.01, 20.0)
            worst = max(worst, integral_residual(traj, tau, t))
        assert worst < 1e-6

    @pytest.mark.parametrize(
        "system", [System.limit(1.0, 7.38), System.smooth(1.0, 7.38, n=50)], ids=["limit", "smooth"]
    )
    def test_matches_panel_loop(self, system):
        """The batched quadrature against one Gauss panel per piece, summed in a loop."""
        traj = integrate(system, HistoryFunction.exp_decay(1.0), 6.0)
        nodes, weights = np.polynomial.legendre.leggauss(6)
        for tau, t in ((0.0, 6.0), (0.3, 2.71), (1.05, 1.3)):
            total = 0.0
            for i in range(len(traj.ts) - 1):
                a, b = max(traj.ts[i], tau), min(traj.ts[i + 1], t)
                if b <= a:
                    continue
                s = 0.5 * (a + b) + 0.5 * (b - a) * nodes
                xi = traj.eval_many(s - 1.0)
                if system.kind == "limit":
                    forcing = 0.0 if traj.side[i] == 1 else system.gain * system.feedback.clamped_power(xi)
                else:
                    forcing = system.gain * system.feedback.value(xi)
                total += 0.5 * (b - a) * float(np.dot(weights, forcing * np.exp(-system.rate * (t - s))))
            ref = abs(traj.eval(t) - math.exp(-system.rate * (t - tau)) * traj.eval(tau) - total)
            assert integral_residual(traj, tau, t) == pytest.approx(ref, abs=1e-13)


class TestMonotoneOrdering:
    def test_ordered_histories_stay_ordered_below_cutoff(self):
        system = System.limit(1.0, 1.3)
        nodes = np.linspace(-1.0, 0.0, 9)
        rng = np.random.default_rng(3)
        base = rng.uniform(0.2, 0.5, size=9)
        lo = HistoryFunction.from_samples(nodes, base)
        hi = HistoryFunction.from_samples(nodes, base + 0.05)
        ta = integrate(system, lo, 30.0)
        tb = integrate(system, hi, 30.0)
        tt = np.linspace(0.0, 30.0, 6001)
        assert np.max(tb.eval_many(tt)) < 1.0
        assert np.all(ta.eval_many(tt) <= tb.eval_many(tt) + 1e-9)


class TestEventSplit:
    def test_forced_free_interval_is_exact_decay(self):
        system = System.limit(1.0, 7.38)
        traj = integrate(system, HistoryFunction.exp_decay(1.0), 30.0)
        ups = [t for t, _ in traj.crossings(1.0, "up", 0.0, 29.0)]
        assert ups
        t0 = ups[0] + 1.0  # forcing switches off here
        x0 = traj.eval(t0)
        # stored nodes on the next half unit follow the exponential to rounding
        mask = (traj.ts > t0 + 1e-9) & (traj.ts < t0 + 0.5)
        model = x0 * np.exp(-(traj.ts[mask] - t0))
        rel = np.abs(traj.xs[mask] - model) / model
        assert np.max(rel) < 1e-10

    def test_nodes_at_kinks_and_sides_from_midpoints(self):
        T = 40.0
        crossing_history = HistoryFunction.from_samples(np.linspace(-1.0, 0.0, 5), [0.4, 1.6, 0.7, 2.0, 0.5])
        for history in (HistoryFunction.exp_decay(1.0), crossing_history):
            traj = integrate(System.limit(1.0, 7.38), history, T)
            s = np.linspace(-1.0, 0.0, 4001)
            v = history.eval(s) - 1.0
            past = [brentq(lambda x: history.eval(x) - 1.0, s[j], s[j + 1], xtol=1e-14)
                    for j in np.flatnonzero((v[:-1] > 0.0) != (v[1:] > 0.0))]
            located = past + [t for t, _ in traj.crossings(1.0)]
            assert len(located) > 20
            # a crossing kinks the forcing one to four delays later: a node sits at each kink
            kinks = np.add.outer(located, np.arange(1.0, 5.0)).ravel()
            kinks = kinks[(kinks > 0.0) & (kinks < T)]
            gap = np.min(np.abs(traj.ts[None, :] - kinks[:, None]), axis=1)
            assert np.max(gap) < 1e-10
            # a piece decays freely exactly when its delayed midpoint lies above the cutoff
            delayed = traj.eval_many(0.5 * (traj.ts[:-1] + traj.ts[1:]) - 1.0)
            clear = np.abs(delayed - 1.0) > 1e-9
            assert np.array_equal(traj.side[clear] == 1, delayed[clear] > 1.0)


class TestMarchWork:
    def test_one_delayed_lookup_per_unit(self, monkeypatch):
        calls = []
        evaluate = dde._eval_pieces

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(dde, "_eval_pieces", counted)
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 40.0)
        assert len(traj.events) > 10
        assert 0 < len(calls) <= 40

    def test_limit_steps_run_on_python_floats(self, monkeypatch):
        """Split units hand the RK coefficients Python floats, so the recursion never runs on numpy scalars."""
        steps = []
        coeffs = dde._rk4_affine_coeffs

        def spied(rate, h):
            steps.append(h)
            return coeffs(rate, h)

        monkeypatch.setattr(dde, "_rk4_affine_coeffs", spied)
        integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 50.0)
        assert steps and all(type(h) is float for h in steps)
        assert any(h < 1.0 / 200 for h in steps)  # split units were marched


    def test_delayed_lookup_drops_the_side_array_after_all_hermite_blocks(self, monkeypatch):
        """The lookup passes ``side=None`` exactly when the block before has no exact-exponential piece."""
        sides = []
        evaluate = dde._eval_pieces

        def spied(t, ts, xs, dl, dr, side, rate):
            sides.append(side)
            return evaluate(t, ts, xs, dl, dr, side, rate)

        monkeypatch.setattr(dde, "_eval_pieces", spied)
        for history in (HistoryFunction.exp_decay(1.0), HistoryFunction.constant(1.2)):
            sides.clear()
            blocks = list(_march(System.limit(1.0, 7.38), history, 30.0, 200, []))
            assert len(sides) == len(blocks) - 1  # the first unit looks up the history
            for side, before in zip(sides, blocks):
                assert (side is None) == (not before[4].any())
                assert side is None or side is before[4]
            assert {side is None for side in sides} == {True, False}

    @pytest.mark.parametrize("N", [100, 200, 400, 511, 800, 4671])
    def test_whole_unit_grid_is_the_stage_grid_at_its_start(self, N):
        """``t0`` plus the grid of [0, 1] is ``_stage_grid(t0, t0 + 1, 1/N)``, bit for bit."""
        offs, h2 = _stage_grid(0.0, 1.0, 1.0 / N)
        for t0 in (1.0, 2.0, 4.0, 255.0, 256.0, 1023.0, 1599.0):
            stages, want_h2 = _stage_grid(t0, t0 + 1.0, 1.0 / N)
            assert (t0 + offs).tobytes() == stages.tobytes()
            assert h2 == want_h2 and type(h2) is type(want_h2) is float


class TestRowBlocks:
    """Column units stepped in row blocks of any size give the bytes of whole-unit blocks."""

    @staticmethod
    def blocked(monkeypatch, steps, m, run):
        """``run()`` with row blocks of ``steps`` RK steps over ``m`` columns, and each block's steps."""
        sizes = []
        stepper = dde._rk4_affine_steps

        def spied(rate, h2, x0, B, *out):
            sizes.append(len(B) // 2)
            return stepper(rate, h2, x0, B, *out)

        with monkeypatch.context() as patch:
            patch.setattr(dde, "_ROW_BLOCK", (2 * steps + 1) * m)
            patch.setattr(dde, "_rk4_affine_steps", spied)
            return run(), sizes

    def check(self, monkeypatch, m, steps_per_unit, split, run, same):
        whole, sizes = self.blocked(monkeypatch, 1 << 40, m, run)
        assert steps_per_unit in sizes  # the reference steps whole units
        for steps in (1, split):  # one-step blocks, and a split whose last block is one step
            got, sizes = self.blocked(monkeypatch, steps, m, run)
            assert max(sizes) == steps and 1 in sizes
            assert same(got, whole)
        assert same(run(), whole)  # the default bound

    @pytest.mark.parametrize("variational", [False, True])
    def test_march_over_hat_columns(self, monkeypatch, variational):
        system = System.smooth(1.0, 7.38, n=20)
        mesh = np.linspace(-1.0, 0.0, 41)
        hats = np.eye(41)

        def forcing(s, v):  # a linear time-varying forcing, as the variational equation's
            v *= np.cos(3.0 * s)[:, None]
            return v

        def run():
            history = HistoryFunction.from_callable(lambda s: periodic._interp_columns(s, mesh, hats))
            return list(_march(system, history, 3.5, 150, [], forcing if variational else None))

        def same(a, b):
            return len(a) == len(b) == 4 and all(x.tobytes() == y.tobytes() for u, v in zip(a, b) for x, y in zip(u, v))

        # 150 steps a unit: 149-step blocks leave a one-step last block
        self.check(monkeypatch, 41, 150, 149, run, same)

    @pytest.mark.parametrize("case", ["x1", "x3"])
    def test_period_map(self, monkeypatch, x1_diagram, case):
        """The x1 orbit at N_int = 800 with 200 hats, and the x3 saddle orbit at N_int = 400 with 100 hats."""
        if case == "x1":
            system, orbit, hats, split = System.smooth(1.0, 7.38, n=200), x1_diagram.orbit, 200, 17
        else:
            found = periodic.hopf_orbit_search(5.0 * math.pi / (3.0 * math.sqrt(3.0)), 7.95, 2.0, 100)
            system, orbit, hats, split = found.system, found.orbit, 100, 19
        N_int = periodic._orbit_mesh(system.feedback.n)
        assert N_int == 4 * hats and (N_int - 1) % split == 0  # split-step blocks end on a one-step block
        base = integrate(system, orbit.q0, orbit.omega, N=N_int)
        self.check(monkeypatch, hats + 1, N_int, split, lambda: periodic._period_map_matrix(base, hats),
                   lambda a, b: a.tobytes() == b.tobytes())


def same_bits(a, b) -> bool:
    """Two trajectories with the same horizon, pieces and events, to the bit."""
    return a.T == b.T and a.events == b.events and all(
        getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in ("ts", "xs", "dl", "dr", "side")
    )


class TestExtend:
    @pytest.mark.parametrize("system,history,N", [
        (System.smooth(1.0, 7.38, n=200), HistoryFunction.constant(1.2), 800),
        (System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 200),
        (System.limit(1.0, 7.38), HistoryFunction.constant(1.2), 200),
    ], ids=["smooth", "limit-exp-decay", "limit-constant"])
    @pytest.mark.parametrize("stages", [(0.0, 3.0, 8.0, 8.0, 20.0), (0.4, 5.7, 9.3, 21.25)], ids=["whole", "partial"])
    def test_grown_trajectory_is_the_one_shot_trajectory(self, system, history, N, stages):
        traj = integrate(system, history, stages[0], N=N)
        for T in stages[1:]:
            assert traj.extend(T) is traj
            assert same_bits(traj, integrate(system, history, T, N=N))

    def test_crossing_within_four_delays_of_the_stage_end(self):
        """Breakpoints one to four delays after a crossing before the stage end split the units after it."""
        system, history = System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0)
        tc = integrate(system, history, 30.0).crossings(1.0, "both", t_lo=10.0)[0][0]
        for stage_end in (tc + 0.5, math.floor(tc) + 2.0, tc + 3.5):
            traj = integrate(system, history, stage_end)
            assert 0.0 < stage_end - tc < 4.0
            assert same_bits(traj.extend(stage_end + 6.3), integrate(system, history, stage_end + 6.3))

    @pytest.mark.parametrize("exponential", [True, False], ids=["after-exponential", "after-all-hermite"])
    def test_resume_after_either_kind_of_block(self, exponential):
        """A resume reads from its block whether the delayed lookup needs the side array."""
        system, history = System.limit(1.0, 7.38), HistoryFunction.constant(1.2)
        for stage_end in np.arange(1.0, 30.0):
            traj = integrate(system, history, stage_end)
            if bool(traj._resume[1][4].any()) == exponential:
                break
        else:
            pytest.fail("no stage end after that kind of block")
        assert same_bits(traj.extend(stage_end + 7.5), integrate(system, history, stage_end + 7.5))

    def test_only_forward_growth_of_integrated_trajectories(self):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 5.0)
        with pytest.raises(ValueError, match="forward"):
            traj.extend(4.0)
        bare = dde.Trajectory(system=traj.system, history=traj.history, N=traj.N, T=traj.T,
                              ts=traj.ts, xs=traj.xs, dl=traj.dl, dr=traj.dr, side=traj.side)
        with pytest.raises(ValueError, match="integrate"):
            bare.extend(6.0)

    @pytest.mark.parametrize("history", [HistoryFunction.exp_decay(1.0), HistoryFunction.constant(1.2)],
                             ids=["exp-decay", "constant"])
    def test_split_units_that_overflow_the_arrays(self, monkeypatch, history):
        """With no slack, split units outgrow ``N`` pieces per unit; the arrays double and every bit stays."""
        system = System.limit(1.0, 7.38)
        want = integrate(system, history, 40.0)
        monkeypatch.setattr(dde, "_SPLIT_SLACK", 0)
        traj = integrate(system, history, 3.5)
        for T in (10.0, 22.7, 40.0):
            traj.extend(T)
        assert len(traj.dl) > 40 * traj.N  # more pieces than the estimate held
        assert same_bits(traj, want)
        assert same_bits(integrate(system, history, 40.0), want)

    def test_growth_peaks_near_the_final_arrays(self):
        """Growing 50 units to 200 holds about one copy: the kept pieces go into arrays sized for the new horizon."""
        traj = integrate(System.smooth(1.0, 7.38, n=200), HistoryFunction.constant(1.2), 50.0, N=800)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            traj.extend(200.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        final = sum(getattr(traj, k).nbytes for k in ("ts", "xs", "dl", "dr", "side"))
        assert len(traj.dl) == 200 * 800
        assert peak <= 1.25 * final

    @pytest.mark.parametrize("T0,T1", [(5.7, 5.7), (8.0, 8.0), (0.3, 0.9), (5.7, 6.0), (2.5, 12.25)])
    def test_growth_to_the_same_or_a_near_horizon(self, T0, T1):
        """Growth to the same T, within one unit and from a non-integer T, is the one-shot trajectory."""
        for system, history in ((System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0)),
                                (System.smooth(1.0, 7.38, n=20), HistoryFunction.constant(1.2))):
            traj = integrate(system, history, T0)
            assert same_bits(traj.extend(T1), integrate(system, history, T1))


class TestExtremes:
    def test_smooth_branch_band_is_exact_at_every_horizon(self):
        """The x1 plus branch peaks at 3.0204758 near t = 1.787 past its anchor, over 50 units as over 500."""
        system = System.smooth(1.0, 7.38, n=200)
        bands = []
        for T in (50.0, 500.0):
            sol = shoot_branch(system, "plus", T=T, N=800)
            bands.append(sol.traj.extremes(sol.shift, sol.traj.T - 0.5))
        sampled = sol.traj.eval_many(np.linspace(sol.shift, sol.traj.T - 0.5, 2_000_001))
        lo, hi = bands[1]
        assert lo <= sampled.min() < lo + 1e-7 and hi - 1e-7 < sampled.max() <= hi
        assert abs(bands[0][0] - lo) < 1e-9 and abs(bands[0][1] - hi) < 1e-9
        assert abs(hi - 3.0204758) < 1e-7

    def test_limit_extremes_sit_on_kinks_and_exponential_ends(self):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 40.0)
        for t_lo, t_hi in ((0.0, 40.0), (3.3, 17.9), (12.25, 12.75)):
            lo, hi = traj.extremes(t_lo, t_hi)
            # a peak on a kink sits on a node, which sampling misses to first order
            t = np.concatenate([np.linspace(t_lo, t_hi, 400_001), traj.ts[(traj.ts >= t_lo) & (traj.ts <= t_hi)]])
            sampled = traj.eval_many(t)
            assert lo <= sampled.min() < lo + 1e-9 and hi - 1e-9 < sampled.max() <= hi

    def test_window_outside_the_horizon_is_rejected(self):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 5.0)
        with pytest.raises(ValueError):
            traj.extremes(1.0, 6.0)


class TestStepHalving:
    def test_fourth_order_smooth(self):
        system = System.smooth(1.0, 7.38, n=6)
        hist = HistoryFunction.constant(0.4)
        vals = [integrate(system, hist, 5.0, N=N).eval(5.0) for N in (100, 200, 400)]
        d1, d2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
        order = math.log2(d1 / d2)
        assert 3.5 < order < 4.6

    def test_high_order_limit_with_events(self):
        system = System.limit(1.0, 7.38)
        hist = HistoryFunction.exp_decay(1.0)
        vals = [integrate(system, hist, 8.0, N=N).eval(8.0) for N in (100, 200, 400)]
        d1, d2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
        assert math.log2(d1 / d2) > 3.0


DECAY = 1.3

# (exact exponential?, width, mean slope, left slope, right slope)
_piece = st.tuples(
    st.booleans(),
    st.floats(1e-3, 0.1),
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
)


@st.composite
def dense_pieces(draw):
    """Random piece arrays: Hermite cubics and exact decays, continuous at the nodes."""
    x = draw(st.floats(0.0, 3.0))
    ts, xs, dl, dr, side = [0.0], [x], [], [], []
    for expo, h, mean, d0, d1 in draw(st.lists(_piece, min_size=1, max_size=30)):
        if expo:
            x_next = x * math.exp(-DECAY * h)
            d0, d1 = -DECAY * x, -DECAY * x_next
        else:
            x_next = x + h * mean
        ts.append(ts[-1] + h)
        xs.append(x_next)
        dl.append(d0)
        dr.append(d1)
        side.append(int(expo))
        x = x_next
    arrays = (np.asarray(ts), np.asarray(xs), np.asarray(dl), np.asarray(dr), np.asarray(side, dtype=np.int8))
    level = min(xs) + draw(st.floats(0.05, 0.95)) * (max(xs) - min(xs))
    return arrays, level


def batched_halving(v, thetas, width, f):
    """Reference: every bracket of ``v`` halved together as arrays, ``f(rows, thetas)``."""
    va, vb = v[:, :-1], v[:, 1:]
    rows, j = np.nonzero((va > 0.0) != (vb > 0.0))
    lo, hi, flo = thetas[j], thetas[j + 1], va[rows, j]
    up = vb[rows, j] > flo
    act = np.arange(rows.size)
    while (act := act[(hi[act] - lo[act]) * width[rows[act]] > _BISECT_TOL]).size:
        mid = 0.5 * (lo[act] + hi[act])
        fm = f(rows[act], mid)
        left = flo[act] * fm <= 0.0
        hi[act[left]] = mid[left]
        right = act[~left]
        lo[right], flo[right] = mid[~left], fm[~left]
    return rows, 0.5 * (lo + hi), up


def _level_crossings_both_groups(level, ts, xs, dl, dr, side, rate):
    """Reference: ``_level_crossings`` with both groups always run and merged by a stable argsort."""
    x0, x1 = xs[:-1], xs[1:]
    h = ts[1:] - ts[:-1]
    p1, p2 = x0 + h * dl / 3.0, x1 - h * dr / 3.0
    below = np.minimum(np.minimum(x0, x1), np.minimum(p1, p2)) - level <= dde._GRAZE_TOL
    above = np.maximum(np.maximum(x0, x1), np.maximum(p1, p2)) - level >= -dde._GRAZE_TOL
    i = np.flatnonzero(np.where(side == 1, (x0 > level) & (level >= x1), below & above))
    expo = side[i] == 1
    ie, ih = i[expo], i[~expo]
    t_exp = np.asarray([ts[k] + math.log(xs[k] / level) / rate for k in ie], dtype=float)
    h, x0, d0, x1, d1 = h[ih], x0[ih], dl[ih], x1[ih], dr[ih]
    v = _hermite_eval(_SAMPLE_THETAS, h[:, None], x0[:, None], d0[:, None], x1[:, None], d1[:, None]) - level
    rows, theta, up = dde._bisect_crossings(
        v, _SAMPLE_THETAS, lambda r, th: _hermite_eval(th, h[r], x0[r], d0[r], x1[r], d1[r]) - level, _BISECT_TOL, h,
    )
    order = np.argsort(np.concatenate([ie, ih[rows]]), kind="stable")
    times = np.concatenate([t_exp, ts[ih[rows]] + theta * h[rows]])[order]
    return times, np.concatenate([np.zeros(ie.size, dtype=bool), up])[order]


def piece_block(start, pieces):
    """Piece arrays from ``start``: ``("e", h)`` decays exactly, ``("h", h, x1, d0, d1)`` is a Hermite cubic."""
    ts, xs, dl, dr, side = [0.0], [start], [], [], []
    for kind, h, *rest in pieces:
        if kind == "e":
            x1, d0, d1 = xs[-1] * math.exp(-DECAY * h), -DECAY * xs[-1], -DECAY * xs[-1] * math.exp(-DECAY * h)
        else:
            x1, d0, d1 = rest
        ts.append(ts[-1] + h)
        xs.append(x1)
        dl.append(d0)
        dr.append(d1)
        side.append(int(kind == "e"))
    return np.asarray(ts), np.asarray(xs), np.asarray(dl), np.asarray(dr), np.asarray(side, dtype=np.int8)


# level 1: each block keeps pieces of the kinds its name says; the cubic with slopes 4 and -4 over
# 0.5 bulges about 0.5 above its chord and crosses the level twice
_GROUP_BLOCKS = {
    "none": (0.2, [("h", 0.2, 0.4, 1.0, 1.0), ("h", 0.3, 0.6, 0.5, 1.5), ("e", 0.4), ("e", 0.1)]),
    "exponential-only": (1.5, [("h", 0.2, 1.6, 0.5, 0.0), ("e", 0.1), ("e", 0.3), ("h", 0.2, 0.6, -1.0, -1.0)]),
    "hermite-only": (0.6, [
        ("e", 0.1), ("h", 0.2, 1.3, 4.0, 4.0), ("h", 0.3, 0.8, -1.5, -1.5), ("h", 0.5, 0.9, 4.0, -4.0), ("e", 0.2),
    ]),
    "both": (0.5, [
        ("h", 0.2, 1.3, 4.0, 4.0), ("e", 0.1), ("e", 0.3), ("h", 0.5, 0.9, 4.0, -4.0),
        ("h", 0.25, 1.2, 1.2, 1.2), ("e", 0.3), ("h", 0.2, 0.5, -1.0, -1.0),
    ]),
}


class TestCrossingLocator:
    @pytest.mark.parametrize("case", list(_GROUP_BLOCKS))
    def test_groups_match_merged_reference(self, case):
        """With a group skipped when it is empty, the bits of both groups merged by the stable argsort."""
        block = piece_block(*_GROUP_BLOCKS[case])
        times, ups = _level_crossings(1.0, *block, DECAY)
        want_times, want_ups = _level_crossings_both_groups(1.0, *block, DECAY)
        assert (times.dtype, ups.dtype) == (np.float64, np.bool_)
        assert times.shape == ups.shape == want_times.shape
        assert times.tobytes() == want_times.tobytes() and ups.tobytes() == want_ups.tobytes()
        ts, side = block[0], block[4]
        kinds = {int(side[np.searchsorted(ts, t) - 1]) for t in times}
        assert kinds == {"none": set(), "exponential-only": {1}, "hermite-only": {0}, "both": {0, 1}}[case]
        if case == "none":
            assert times.shape == (0,)
        if case == "both":  # a Hermite crossing comes before an exponential one in piece order
            assert side[np.searchsorted(ts, times[0]) - 1] == 0 and ups[0]

    @settings(max_examples=300, deadline=None)
    @given(dense_pieces())
    def test_matches_batched_halving(self, case):
        """Bitwise the crossings of the batched array halving, closed-form decays merged in piece order."""
        (ts, xs, dl, dr, side), level = case
        times, ups = _level_crossings(level, ts, xs, dl, dr, side, DECAY)
        ih = np.flatnonzero(side == 0)
        coef = (ts[ih + 1] - ts[ih], xs[ih], dl[ih], xs[ih + 1], dr[ih])
        v = _hermite_eval(_SAMPLE_THETAS, *(c[:, None] for c in coef)) - level
        rows, theta, up = batched_halving(
            v, _SAMPLE_THETAS, coef[0], lambda r, th: _hermite_eval(th, *(c[r] for c in coef)) - level
        )
        ie = [k for k in np.flatnonzero(side == 1) if xs[k] > level >= xs[k + 1]]
        t_exp = [ts[k] + math.log(xs[k] / level) / DECAY for k in ie]
        order = np.argsort(np.concatenate([ie, ih[rows]]), kind="stable")
        assert np.array_equal(times, np.concatenate([t_exp, ts[ih[rows]] + theta * coef[0][rows]])[order])
        assert np.array_equal(ups, np.concatenate([np.zeros(len(ie), dtype=bool), up])[order])

    def test_history_scan_matches_batched_halving(self):
        history = HistoryFunction.from_samples(np.linspace(-1.0, 0.0, 6), [0.3, 1.7, 0.6, 1.2, 0.9, 2.0])
        crossings = []
        list(_march(System.limit(1.0, 7.38), history, 0.0, 200, crossings))
        s, v = history.sampled(4001)
        _, ref, up = batched_halving((v - 1.0)[None, :], s, np.ones(1), lambda _r, th: history.eval(th) - 1.0)
        assert len(crossings) == 5
        assert np.array_equal([tc for tc, _ in crossings], ref)
        assert [u for _, u in crossings] == up.tolist()

    @settings(max_examples=100, deadline=None)
    @given(dense_pieces(), st.booleans())
    def test_level_outside_every_hull_finds_nothing(self, case, high):
        (ts, xs, dl, dr, side), _ = case
        h = np.diff(ts)
        hull = np.concatenate([xs, xs[:-1] + h * dl / 3.0, xs[1:] - h * dr / 3.0])
        level = np.max(hull) + 0.1 if high else np.min(hull) - 0.1
        result = _level_crossings(level, ts, xs, dl, dr, side, DECAY)
        assert [a.size for a in result] == [0, 0]
        assert [a.dtype for a in result] == [np.float64, np.bool_]

    @settings(max_examples=300, deadline=None)
    @given(dense_pieces())
    def test_one_root_per_sign_change(self, case):
        (ts, xs, dl, dr, side), level = case
        times, ups = _level_crossings(level, ts, xs, dl, dr, side, DECAY)
        if times.size:
            assert np.max(np.abs(_eval_pieces(times, ts, xs, dl, dr, side, DECAY) - level)) < 1e-9
        for i in range(len(ts) - 1):
            a, h = ts[i], ts[i + 1] - ts[i]
            if side[i] == 1:
                brackets = [(a, a + h, False)] if xs[i] > level > xs[i + 1] else []
            else:
                v = _hermite_eval(_SAMPLE_THETAS, h, xs[i], dl[i], xs[i + 1], dr[i]) - level
                brackets = [
                    (a + _SAMPLE_THETAS[j] * h, a + _SAMPLE_THETAS[j + 1] * h, bool(v[j + 1] > v[j]))
                    for j in range(4)
                    if v[j] * v[j + 1] < 0.0
                ]
            for lo, hi, up in brackets:
                inside = (times >= lo) & (times <= hi)
                assert np.count_nonzero(inside) == 1
                assert ups[inside][0] == up

    @pytest.mark.parametrize(
        "history", [HistoryFunction.exp_decay(1.0), HistoryFunction.constant(1.5)], ids=["exp-decay", "above-cutoff"]
    )
    def test_integrate_events_are_located_crossings(self, history):
        traj = integrate(System.limit(1.0, 7.38), history, 40.0)
        later = [(e["t"], e["kind"]) for e in traj.events if e["t"] >= 1.0]
        located = [
            (t + 1.0, "forcing-off" if d == "up" else "forcing-on")
            for t, d in traj.crossings(1.0, t_hi=traj.T - 1.0)
        ]
        assert later
        assert later == located


def _level_crossings_full_hull(level, ts, xs, dl, dr, side, rate):
    """Reference: ``_level_crossings`` without the crossing-free exit, every block through the hull rule."""
    x0, x1 = xs[:-1], xs[1:]
    h = ts[1:] - ts[:-1]
    p1 = x0 + h * dl / 3.0
    p2 = x1 - h * dr / 3.0
    below = np.minimum(np.minimum(x0, x1), np.minimum(p1, p2)) - level <= dde._GRAZE_TOL
    above = np.maximum(np.maximum(x0, x1), np.maximum(p1, p2)) - level >= -dde._GRAZE_TOL
    i = np.flatnonzero(np.where(side == 1, (x0 > level) & (level >= x1), below & above))
    if not i.size:
        return np.empty(0), np.empty(0, dtype=bool)
    expo = side[i] == 1
    ie, ih = i[expo], i[~expo]
    t_exp = np.asarray([ts[k] + math.log(xs[k] / level) / rate for k in ie.tolist()], dtype=float)
    if not ih.size:
        return t_exp, np.zeros(ie.size, dtype=bool)
    h, x0, d0, x1, d1 = h[ih], x0[ih], dl[ih], x1[ih], dr[ih]
    col = np.s_[:, None]
    v = _hermite_eval(_SAMPLE_THETAS, h[col], x0[col], d0[col], x1[col], d1[col]) - level
    hl, x0l, d0l, x1l, d1l = (a.tolist() for a in (h, x0, d0, x1, d1))
    rows, theta, up = dde._bisect_crossings(
        v, _SAMPLE_THETAS, lambda r, th: _hermite_eval(th, hl[r], x0l[r], d0l[r], x1l[r], d1l[r]) - level,
        _BISECT_TOL, h,
    )
    t_herm = ts[ih[rows]] + theta * h[rows]
    if not ie.size:
        return t_herm, up
    order = np.argsort(np.concatenate([ie, ih[rows]]), kind="stable")
    times = np.concatenate([t_exp, t_herm])[order]
    ups = np.concatenate([np.zeros(ie.size, dtype=bool), up])[order]
    return times, ups


@st.composite
def levels_near_and_far(draw):
    """A random block and a level near a node, between the nodes and the hull's edge or its reach, or far off."""
    block, _ = draw(dense_pieces())
    ts, xs, dl, dr, _side = block
    h = np.diff(ts)
    reach = float(np.max(h * np.maximum(np.abs(dl), np.abs(dr)))) / 3.0
    hull = np.concatenate([xs, xs[:-1] + h * dl / 3.0, xs[1:] - h * dr / 3.0])
    lo, hi = float(xs.min()), float(xs.max())
    frac = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.25)))
    anchor = draw(st.sampled_from([
        lo - frac * reach, hi + frac * reach,
        lo - frac * (lo - hull.min()), hi + frac * (hull.max() - hi), float(xs[len(xs) // 2]),
    ]))
    offset = draw(st.one_of(st.just(0.0), st.floats(-4e-9, 4e-9), st.floats(-3.0, 3.0)))
    return block, anchor + offset


class _HullRuleCounter:
    """``numpy`` as ``dde`` sees it, counting ``flatnonzero``: one call per block the hull rule scans."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, a):
        self.calls += 1
        return np.flatnonzero(a)


class TestCrossingFreeExit:
    @settings(max_examples=400, deadline=None)
    @given(levels_near_and_far())
    def test_exit_never_drops_a_crossing(self, case):
        """The same times and flags, to the bit, as the hull rule run on every block."""
        block, level = case
        times, ups = _level_crossings(level, *block, DECAY)
        want_times, want_ups = _level_crossings_full_hull(level, *block, DECAY)
        assert (times.dtype, ups.dtype) == (np.float64, np.bool_)
        assert times.tobytes() == want_times.tobytes() and ups.tobytes() == want_ups.tobytes()

    @pytest.mark.parametrize("level", [0.0, 0.2, 0.3, 1.6, 1.8, 2.0])
    def test_a_dip_below_every_node_is_kept(self, level):
        """A cubic dips below (or bulges above) all nodes by 3/4 of its reach, and its crossings stay."""
        block = piece_block(1.0, [("h", 0.1, 1.0, 0.0, 0.0), ("h", 0.3, 1.0, -10.0, 10.0), ("e", 0.1)])
        if level > 1.0:
            block = piece_block(1.0, [("h", 0.3, 1.0, 10.0, -10.0), ("h", 0.1, 1.0, 0.0, 0.0)])
        times, ups = _level_crossings(level, *block, DECAY)
        want_times, want_ups = _level_crossings_full_hull(level, *block, DECAY)
        assert times.tobytes() == want_times.tobytes() and ups.tobytes() == want_ups.tobytes()
        assert times.size == (2 if level in (0.3, 1.6) else 0)

    @staticmethod
    def _shares(monkeypatch, run) -> tuple:
        """(blocks scanned, blocks that took the exit) while ``run()`` runs."""
        counter, scans = _HullRuleCounter(), []
        locate = dde._level_crossings

        def counted(*args):
            scans.append(1)
            return locate(*args)

        monkeypatch.setattr(dde, "np", counter)
        monkeypatch.setattr(dde, "_level_crossings", counted)
        run()
        return len(scans), len(scans) - counter.calls

    def test_exit_takes_most_units_of_a_probe(self, monkeypatch):
        """Before its contact a probe lies below the cutoff, further than any control point reaches."""
        res = []
        scans, exits = self._shares(monkeypatch, lambda: res.append(threshold.classify_zd(0.926518, 1.5863)))
        assert res[0].verdict == threshold.HITS_ONE and 28.0 < res[0].tau0 < 30.0
        assert scans > 25 and exits >= scans - 2

    def test_exit_takes_the_units_away_from_the_cutoff(self, monkeypatch):
        """The (1, 7.38) solution oscillates through the cutoff; its units clear of it take the exit."""
        scans, exits = self._shares(
            monkeypatch, lambda: integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 50.0)
        )
        assert scans == 50 and exits >= 10


def listed_rule(times, ups, direction, t_lo, t_hi):
    """The window, dedup and direction rule of ``Trajectory.crossings`` on one whole-range scan."""
    out = []
    for tc, up in sorted(zip(times.tolist(), ups.tolist())):
        dirn = "up" if up else "down"
        if not (t_lo - 1e-12 <= tc <= t_hi + 1e-12):
            continue
        if out and abs(tc - out[-1][0]) < 1e-10:
            continue
        if dirn == direction or direction == "both":
            out.append((tc, dirn))
    return out


class TestWindowedScan:
    @pytest.fixture(scope="class")
    def long_limit(self):
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), 400.0, N=200)
        assert len(traj.ts) - 1 > 3 * dde._CHUNK
        return traj

    @pytest.mark.parametrize("direction", ["up", "down", "both"])
    @pytest.mark.parametrize("level", [1.0, 0.3, 100.0])
    def test_first_crossing_heads_the_list(self, long_limit, level, direction):
        traj = long_limit
        t_mid = float(traj.ts[dde._CHUNK + 1000])  # inside the second window
        for window in [(0.0, None), (t_mid, 300.0)]:
            listed = traj.crossings(level, direction, *window)
            first = traj.first_crossing(level, direction, *window)
            assert first == (listed[0] if listed else None)

    @pytest.mark.parametrize("direction", ["up", "down", "both"])
    def test_windows_match_one_whole_range_scan(self, long_limit, direction):
        traj = long_limit
        times, ups = _level_crossings(1.0, traj.ts, traj.xs, traj.dl, traj.dr, traj.side, traj.system.rate)
        t_mid = float(traj.ts[dde._CHUNK + 1000])
        for t_lo, t_hi in [(0.0, traj.T), (t_mid, 300.0)]:
            listed = traj.crossings(1.0, direction, t_lo, t_hi)
            assert len(listed) > 20
            assert listed == listed_rule(times, ups, direction, t_lo, t_hi)


@st.composite
def forcing_blocks(draw):
    """A stage grid on [0, span] with random forcing for m equations stepped together."""
    rate = draw(st.floats(0.1, 10.0))
    stages, h2 = _stage_grid(0.0, draw(st.floats(0.01, 1.0)), draw(st.floats(1e-3, 0.1)))
    m = draw(st.integers(1, 5))
    x0 = draw(arrays(np.float64, m, elements=st.floats(-3.0, 3.0)))
    B = draw(arrays(np.float64, (stages.size, m), elements=st.floats(-20.0, 20.0)))
    side = draw(arrays(np.int8, stages.size // 2, elements=st.integers(0, 1)))
    return rate, stages, h2, x0, B, side


class TestSharedStepper:
    @settings(max_examples=200, deadline=None)
    @given(forcing_blocks(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_columns_match_single_equations(self, case, thetas):
        rate, stages, h2, x0, B, side = case
        nodes = stages[0::2]
        vals, d0, d1 = _rk4_affine_steps(rate, h2, x0, B)
        t = nodes[0] + np.asarray(thetas) * (nodes[-1] - nodes[0])
        dense = _eval_pieces(t, nodes, vals, d0, d1, side, rate)
        assert vals.shape == (nodes.size, B.shape[1]) and dense.shape == (t.size, B.shape[1])
        for j in range(B.shape[1]):
            one = _rk4_affine_steps(rate, h2, x0[j], B[:, j])
            for batched, single in zip((vals, d0, d1), one):
                assert batched[:, j].tobytes() == single.tobytes()
            single_dense = _eval_pieces(t, nodes, vals[:, j], d0[:, j], d1[:, j], side, rate)
            assert dense[:, j].tobytes() == single_dense.tobytes()

    def test_blocks_of_times_match_single_times(self):
        """Wide columns split the times into several blocks; each row is evaluated on its own."""
        rng = np.random.default_rng(0)
        ts = np.cumsum(rng.uniform(0.01, 0.1, size=50))
        xs = rng.normal(size=(50, 3000))
        dl, dr = rng.normal(size=(49, 3000)), rng.normal(size=(49, 3000))
        t = np.concatenate([ts[[0, 7, -1]], rng.uniform(ts[0], ts[-1], size=37)])
        whole = _eval_pieces(t, ts, xs, dl, dr)
        for i in range(t.size):
            assert whole[i].tobytes() == _eval_pieces(t[i : i + 1], ts, xs, dl, dr)[0].tobytes()


class TestAffineRecursion:
    @pytest.mark.parametrize("shape", [(1,), (47,), (200,), (511,), (120, 101), (755, 201)])
    def test_nodes_are_lfilter_bit_for_bit(self, shape):
        """The recursion gives the bits of ``lfilter([1], [1, -A], r, zi=A x0)``, one column or many."""
        rng = np.random.default_rng(shape[0])
        rate, h2 = 1.3, 1.0 / 200
        B = rng.normal(scale=5.0, size=(2 * shape[0] + 1,) + shape[1:])
        x0 = rng.normal(size=shape[1:]) if len(shape) > 1 else float(rng.normal())
        A, c1, cm, c2 = _rk4_affine_coeffs(rate, h2)
        r = c1 * B[0:-1:2] + cm * B[1::2] + c2 * B[2::2]
        x0_row = np.asarray(x0)[None]
        want = np.concatenate([x0_row, lfilter([1.0], [1.0, -A], r, axis=0, zi=A * x0_row)[0]])
        assert _rk4_affine_steps(rate, h2, x0, B)[0].tobytes() == want.tobytes()


def _eval_pieces_with_clip(t, ts, xs, dl, dr, side=None, rate=0.0):
    """The reference: ``_eval_pieces`` with its clamps written as ``np.clip``, for one block of times."""
    col = (slice(None),) + (None,) * (np.ndim(xs) - 1)
    idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    theta = np.clip((t - ts[idx]) / h, 0.0, 1.0)
    vals = _hermite_eval(theta[col], h[col], xs[idx], dl[idx], xs[idx + 1], dr[idx])
    if side is not None:
        above = side[idx] == 1
        if np.any(above):
            vals[above] = xs[idx[above]] * np.exp(-rate * (t[above] - ts[idx[above]]))[col]
    return vals


class TestEvalPiecesBits:
    @pytest.mark.parametrize("columns", [None, 4])
    def test_same_bits_as_with_clip(self, columns):
        """At the nodes, the piece midpoints and past either end, the bits of the ``np.clip`` form."""
        rng = np.random.default_rng(7)
        ts = np.cumsum(rng.uniform(0.001, 0.01, size=200))
        shape = (200,) if columns is None else (200, columns)
        xs = rng.normal(size=shape)
        dl, dr = rng.normal(size=(199,) + shape[1:]), rng.normal(size=(199,) + shape[1:])
        side = rng.integers(0, 2, size=199).astype(np.int8)
        t = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:]), ts[0] - [1e-3, 1e-15], ts[-1] + [1e-15, 1e-3]])
        for sd in (None, side):
            got = _eval_pieces(t, ts, xs, dl, dr, sd, 1.7)
            assert got.tobytes() == _eval_pieces_with_clip(t, ts, xs, dl, dr, sd, 1.7).tobytes()


def _pchip_cases():
    """About 1,000 sampled histories for the PCHIP comparison.

    Two-point meshes; values with flat runs and zero secants; secants that
    change sign; monotone values; scales from 1e-3 to 1e3; and, at both
    ends, a one-sided slope zeroed against its secant and one capped at
    three secants.
    """
    cases = [
        ([-1.0, -0.1, 0.0], [0.0, 0.9, 10.9]),  # left end slope against its secant: zeroed
        ([-1.0, -0.1, 0.0], [0.0, 0.9, -9.1]),  # left end secants of both signs: capped
        ([-1.0, -0.9, 0.0], [10.9, 0.9, 0.0]),  # the same two at the right end
        ([-1.0, -0.9, 0.0], [-9.1, 0.9, 0.0]),
    ]
    rng = np.random.default_rng(23)
    for i in range(1000):
        n = 2 + i % 13
        mesh = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 0.0, n - 2)), [0.0]])
        style = i % 4
        if style == 0:
            values = rng.normal(size=n)
        elif style == 1:
            values = np.round(rng.normal(scale=1.5, size=n))
        elif style == 2:
            values = np.cumsum(np.abs(rng.normal(size=n)))
        else:
            values = rng.uniform(0.0, 1.0, size=n) ** 6
        cases.append((mesh, values * 10.0 ** rng.uniform(-3.0, 3.0)))
    return cases


class TestSampledHistory:
    def test_interpolant_is_scipy_pchip_bit_for_bit(self):
        for mesh, values in _pchip_cases():
            mesh, values = np.asarray(mesh), np.asarray(values)
            history = HistoryFunction.from_samples(mesh, values)
            pchip = PchipInterpolator(mesh, values, extrapolate=True)
            for s in (_PROBE, mesh):
                assert history.eval(s).tobytes() == pchip(s).tobytes()

    @pytest.mark.parametrize("mesh,values", [([-1.0, 0.0], [0.0, 1e308]), ([-1.0, -0.5, 0.0], [0.0, 1e308, 0.0])])
    def test_overflowing_interpolant_is_rejected(self, mesh, values):
        # the first interpolant is NaN everywhere; the second one's node slopes overflow
        with pytest.raises(ValueError):
            HistoryFunction.from_samples(mesh, values)

    def test_large_finite_values_are_kept(self):
        history = HistoryFunction.from_samples([-1.0, 0.0], [0.0, 8e307])
        assert history.eval(0.0) == 8e307 and history.min() == 0.0
