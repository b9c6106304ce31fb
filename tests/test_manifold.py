import math

import numpy as np
import pytest

from ddelab.dde import System, Trajectory
from ddelab.manifold import _plus_landmarks, convergence_table, exp_segment_check, shoot_branch


class TestPlusBranch:
    def test_anchor_value(self, plus_branch_limit_1):
        sol = plus_branch_limit_1
        assert abs(sol.eval(0.0) - (sol.equilibrium + sol.kappa)) < 1e-8

    def test_second_crossing_identity(self, plus_branch_limit_1):
        sol = plus_branch_limit_1
        lm = sol.landmarks
        c = sol.system.rate
        assert abs(lm.t2 - lm.t1 - 1.0 - math.log(lm.x_t1p1) / c) < 1e-6

    def test_monotone_up_to_first_delay_past_crossing(self, plus_branch_limit_1):
        sol = plus_branch_limit_1
        t_lo = max(sol.domain[0] + 0.1, -15.0 / sol.lambda0)
        tt = np.linspace(t_lo, sol.landmarks.t1 + 1.0, 4001)
        diffs = np.diff(sol.eval_many(tt))
        assert np.min(diffs) > -1e-10

    def test_decay_segment(self, plus_branch_limit_1):
        assert exp_segment_check(plus_branch_limit_1) < 1e-8

    def test_decay_segment_deterministic(self, plus_branch_limit_1):
        a = exp_segment_check(plus_branch_limit_1)
        b = exp_segment_check(plus_branch_limit_1)
        assert a == b

    def test_super_threshold_window(self, plus_branch_limit_1):
        lm = plus_branch_limit_1.landmarks
        assert lm.t3 is not None and lm.eps > 0.0
        assert lm.t1 < lm.t3 and lm.t3 + 1.0 < lm.t2
        w = np.linspace(lm.t3, lm.t3 + 1.0, 501)
        assert np.min(plus_branch_limit_1.eval_many(w)) >= 1.0 + 2.0 * lm.eps - 1e-9


@pytest.mark.parametrize("fixture", ["plus_branch_limit_1", "plus_branch_smooth_200"])
def test_early_stopping_scans_match_the_full_lists(fixture, request, monkeypatch):
    """The anchor and landmarks equal those read off the whole crossing lists."""
    sol = request.getfixturevalue(fixture)
    traj = sol.traj
    assert sol.shift == traj.crossings(sol.equilibrium + sol.kappa, "up")[0][0]
    walk = Trajectory._walk_crossings
    monkeypatch.setattr(Trajectory, "_walk_crossings", lambda *args: iter(list(walk(*args))))
    assert _plus_landmarks(sol) == sol.landmarks
    assert sol.landmarks.t2 is not None


class TestMinusBranch:
    def test_decreasing_with_zero_tail(self):
        sol = shoot_branch(System.limit(1.0, 7.38), "minus", T=30.0)
        tt = np.linspace(max(sol.domain[0] + 0.1, -20.0), sol.domain[1] - 0.5, 4001)
        vals = sol.eval_many(tt)
        assert np.all(np.diff(vals) < 1e-12)
        assert vals[-1] < 1e-8
        assert np.all(vals > 0.0)

    def test_range_inside_equilibrium_gap(self):
        sol = shoot_branch(System.limit(1.0, 7.38), "minus", T=30.0)
        tt = np.linspace(sol.domain[0] + 0.1, sol.domain[1] - 0.5, 2001)
        vals = sol.eval_many(tt)
        assert np.all(vals < sol.equilibrium) and np.all(vals > 0.0)


class TestSeedRobustness:
    def test_halving_seed_leaves_normalized_branch(self):
        system = System.limit(1.0, 7.38)
        eps = 1e-5
        a = shoot_branch(system, "plus", eps_seed=eps, T=12.0)
        b = shoot_branch(system, "plus", eps_seed=eps / 2.0, T=12.0)
        tt = np.linspace(0.0, 10.0, 2001)
        assert np.max(np.abs(a.eval_many(tt) - b.eval_many(tt))) < 1e-6


class TestValidation:
    def test_bad_branch_name(self):
        with pytest.raises(ValueError):
            shoot_branch(System.limit(1.0, 7.38), "up")

    def test_marker_out_of_range(self):
        with pytest.raises(ValueError):
            shoot_branch(System.limit(1.0, 7.38), "plus", kappa=2.0)

    def test_oversized_seed(self):
        with pytest.raises(ValueError):
            shoot_branch(System.limit(1.0, 7.38), "plus", eps_seed=1e-2)

    def test_stable_equilibrium_rejected(self):
        # gain below rate: no interior equilibrium at all
        with pytest.raises(ValueError):
            shoot_branch(System.limit(1.0, 0.9), "plus")


class TestConvergenceTable:
    def test_distances_shrink_with_order(self):
        tab = convergence_table(1.0, 7.38, 2.0, (20, 40))
        assert tab.rows[1][1] < tab.rows[0][1]
        assert tab.m >= 4

    def test_seed_segment_distance_bounded_by_equilibrium_shift(self):
        tab = convergence_table(1.0, 7.38, 2.0, (20,))
        n, sup, seg, _ = tab.rows[0]
        # both branches are pinned to marker + own equilibrium at t = 0
        from ddelab.spectrum import stationary_points

        xi_n = stationary_points(System.smooth(1.0, 7.38, n=20), 0.9).interior().value
        assert abs(seg) <= abs(xi_n - 1.0 / 7.38) + 1e-9


class TestSmoothBranch:
    def test_plus_branch_monotone_before_anchor(self):
        sol = shoot_branch(System.smooth(1.0, 7.38, n=100), "plus", T=10.0)
        tt = np.linspace(max(sol.domain[0] + 0.1, -12.0), 0.0, 2001)
        assert np.min(np.diff(sol.eval_many(tt))) > -1e-10

    def test_landmarks_present(self):
        sol = shoot_branch(System.smooth(1.0, 7.38, n=100), "plus", T=10.0)
        assert sol.landmarks.t1 is not None and sol.landmarks.t2 is not None
