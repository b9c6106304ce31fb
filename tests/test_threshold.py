import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ddelab import dde, threshold
from ddelab.dde import ParameterError, System, integrate
from ddelab.history import HistoryFunction
from ddelab.nonlinearity import PowerCutoff
from ddelab.spectrum import interior_equilibrium
from ddelab.threshold import (
    HITS_ONE,
    IN_D,
    UNRESOLVED,
    classify_zd,
    envelopes,
    find_dstar,
)


class TestClassify:
    def test_equal_rates_stay_below_cutoff(self):
        res = classify_zd(1.0, 1.0, T_max=100.0)
        assert res.verdict == UNRESOLVED
        assert res.max_value < 1.0

    def test_slightly_supercritical_gain_collapses(self):
        res = classify_zd(1.0, 1.1)
        assert res.verdict == IN_D
        assert res.certificate_time is not None

    def test_large_gain_hits_fast(self):
        res = classify_zd(1.0, 100.0)
        assert res.verdict == HITS_ONE
        assert 1.0 < res.tau0 <= 2.0

    def test_figure_gain_hits(self):
        res = classify_zd(1.0, 7.38)
        assert res.verdict == HITS_ONE
        assert res.tau0 > 1.0

    def test_contact_value_accuracy(self):
        res = classify_zd(1.0, 7.38)
        traj = integrate(System.limit(1.0, 7.38), HistoryFunction.exp_decay(1.0), res.tau0)
        assert abs(traj.eval(res.tau0 - 1.0) - 1.0) < 1e-10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            classify_zd(1.0, 0.5)


def _probe_on_one_horizon(c: float, d: float, horizon: float = 25.0):
    """The probe decided after one integration to ``horizon``, or None.

    Re-scans the whole trajectory for the first up-crossing and takes the
    certificate from the last node at or above the interior equilibrium.
    """
    traj = integrate(System.limit(c, d), HistoryFunction.exp_decay(c), horizon)
    ups = traj.crossings(1.0, "up", t_lo=0.0, t_hi=horizon)
    if ups:
        return HITS_ONE, ups[0][0] + 1.0, None
    above = traj.xs >= interior_equilibrium(c, d, 2.0) * (1.0 - 1e-12)
    if np.all(above):
        return None
    last_above_t = traj.ts[np.flatnonzero(above)[-1]] if np.any(above) else traj.ts[0]
    t_cert = last_above_t + 1.0 + 2.0 / traj.N
    if t_cert <= traj.T:
        return IN_D, None, float(t_cert) + 1.0
    return None


class TestProbeMarch:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 2.8]), st.floats(0.0, 3.0, exclude_min=True))
    def test_matches_one_horizon_reference(self, c, excess):
        d = c * (1.0 + excess)
        assume(d > c * (1.0 + 1e-9))
        ref = _probe_on_one_horizon(c, d)
        assume(ref is not None)
        res = classify_zd(c, d)
        assert (res.verdict, res.tau0, res.certificate_time) == ref

    @staticmethod
    def _count_units(monkeypatch) -> list:
        units = []
        march = threshold._march

        def counted(*args):
            for item in march(*args):
                units.append(1)
                yield item

        monkeypatch.setattr(threshold, "_march", counted)
        return units

    def test_contact_stops_within_two_units(self, monkeypatch):
        units = self._count_units(monkeypatch)
        res = classify_zd(1.0, 100.0)
        assert res.verdict == HITS_ONE and 1.0 < res.tau0 <= 2.0
        assert len(units) <= 2

    def test_certificate_stops_at_its_unit(self, monkeypatch):
        units = self._count_units(monkeypatch)
        res = classify_zd(1.0, 1.1)
        assert res.verdict == IN_D
        assert len(units) == math.ceil(res.certificate_time - 1.0)

    def test_collapsing_probe_halves_only_the_history(self, monkeypatch):
        """No unit of an IN_D probe comes near the cutoff, so its scans return before any halving."""
        calls = []
        halve = dde._bisect_crossings

        def counted(*args):
            calls.append(1)
            return halve(*args)

        monkeypatch.setattr(dde, "_bisect_crossings", counted)
        assert classify_zd(1.0, 1.1).verdict == IN_D
        assert len(calls) == 1


class TestDStar:
    def test_bracket_and_consistency(self, dstar_c1):
        res = dstar_c1
        assert res.width < 1e-4
        assert res.estimate > 1.0
        assert classify_zd(1.0, res.lo).verdict == IN_D
        assert classify_zd(1.0, res.hi).verdict == HITS_ONE

    def test_bracket_shrinks_monotonically(self, dstar_c1):
        widths = []
        lo, hi = None, None
        for d, verdict, _ in dstar_c1.history:
            if verdict == IN_D:
                lo = d if lo is None else max(lo, d)
            elif verdict == HITS_ONE:
                hi = d if hi is None else min(hi, d)
            if lo is not None and hi is not None:
                widths.append(hi - lo)
        assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))

    def test_down_closed_on_grid(self, dstar_c1):
        # any gain between the rate and the bracket floor certifies collapse
        for d in np.linspace(1.15, dstar_c1.lo, 4):
            assert classify_zd(1.0, float(d)).verdict == IN_D

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            find_dstar(1.0, bracket=(5.0, 9.0), tol=1e-3)

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_critical_gain_above_rate(self, c):
        res = find_dstar(c, tol=1e-2)
        assert res.estimate > c
        assert not res.unresolved


# find_dstar(1.0, tol=1e-4): bracket and probe rows as the march gave them before its units skipped
# the work they rule out (crossing-free scans, side arrays, per-unit stage grids)
_PINNED_DSTAR_C1 = (1.7564453125000001, 1.7565429687500003, 1.756494140625, (
    (1.1, IN_D, 2.01), (1.3, IN_D, 2.01), (1.6, IN_D, 2.01), (2.0, HITS_ONE, 4.722023021230416),
    (1.8, HITS_ONE, 8.685856018194173), (1.7000000000000002, IN_D, 2.8), (1.75, IN_D, 4.164999999999999),
    (1.775, HITS_ONE, 10.879437289625931), (1.7625, HITS_ONE, 13.831555591526849), (1.75625, IN_D, 7.885),
    (1.759375, HITS_ONE, 15.767511852347816), (1.7578125, HITS_ONE, 17.817507222827118),
    (1.75703125, HITS_ONE, 20.1311849642123), (1.7566406250000002, HITS_ONE, 23.266001631037508),
    (1.7564453125000001, IN_D, 9.389999999999999), (1.7565429687500003, HITS_ONE, 25.45563526109181),
))


def test_bisection_is_pinned_to_the_bit():
    """Every probe row, the bracket and the estimate, as floats compared with ``==``."""
    res = find_dstar(1.0, tol=1e-4)
    assert (res.lo, res.hi, res.estimate, res.history) == _PINNED_DSTAR_C1


class TestOrdering:
    def test_probe_solutions_ordered_in_gain(self):
        grid = [1.2, 1.35, 1.5, 1.62, 1.72]
        tt = np.linspace(1.01, 30.0, 4001)
        profiles = []
        for d in grid:
            traj = integrate(System.limit(1.0, d), HistoryFunction.exp_decay(1.0), 30.0)
            vals = traj.eval_many(tt - 1.0)  # probe time axis
            assert np.max(vals) < 1.0
            profiles.append(vals)
        for lo, hi in zip(profiles, profiles[1:]):
            assert np.all(lo < hi + 1e-9)


class TestEnvelopes:
    def test_degenerate_upper_time(self):
        # d1 = c collapses the logarithm argument to 1
        c = 1.3
        tau1 = 1.0 + math.log((c / c) * (1 - math.exp(-c)) + math.exp(-c)) / c
        assert tau1 == pytest.approx(1.0, abs=1e-15)

    def test_upper_envelope_returns_to_cutoff(self, dstar_c1):
        env = envelopes(1.0, 7.38, d0=0.5 * (dstar_c1.estimate + 7.38))
        assert abs(float(env.w1(np.asarray([env.tau1]))[0]) - 1.0) < 1e-10
        interior = np.linspace(1e-3, env.tau1 - 1e-3, 2001)
        assert np.all(env.w1(interior) > 1.0)

    def test_band_brackets_cutoff(self, dstar_c1):
        env = envelopes(1.0, 7.38, d0=0.5 * (dstar_c1.estimate + 7.38))
        assert env.m0 < 1.0 < env.m1
        assert env.m0_n == env.m0 / 2.0 and env.m1_n == 2.0 * 7.38

    def test_margin_ledger_consistent(self, dstar_c1):
        env = envelopes(1.0, 7.38, d0=0.5 * (dstar_c1.estimate + 7.38))
        assert all(item["ok"] for item in env.ledger.values())
        assert env.delta < env.m0 / 4.0
        assert env.nu1 > 1.0
        assert env.sigma == max(env.tau0, env.tau1)

    def test_gap_filling_against_plus_branch(self, dstar_c1, plus_branch_limit_1):
        env = envelopes(1.0, 7.38, d0=0.5 * (dstar_c1.estimate + 7.38))
        sol = plus_branch_limit_1
        t2 = sol.landmarks.t2
        crossings = sol.traj.crossings(1.0, "both", t_lo=t2 + sol.shift - 1e-9, t_hi=sol.traj.T)
        events = [(t - sol.shift, d) for t, d in crossings]
        checked = 0
        for (ta, da), (tb, _db) in zip(events[:-1], events[1:]):
            if da != "down":
                continue
            length = tb - ta
            assert length <= env.tau0 + 1e-9
            local = np.linspace(0.0, length, 301)
            assert np.all(sol.eval_many(ta + local) >= env.w0(local) - 1e-9)
            checked += 1
        assert checked >= 3

    def test_invalid_gain_ordering(self):
        with pytest.raises(ValueError):
            envelopes(1.0, 7.38, d0=8.0)

    @pytest.mark.parametrize("c,d,d0,k", [
        (1.0, 7.38, 6.5, 2.0), (1.0, 5.0, 4.0, 2.0), (0.7, 6.0, 5.5, 3.0), (2.0, 14.0, 12.0, 2.0), (1.0, 7.38, 6.5, 1.5),
    ])
    def test_ledger_integral_matches_quadrature(self, c, d, d0, k):
        """Bound 3's integral, in closed form, against adaptive quadrature of e^{cs} g(e^{-c(s-1)}) on [1, 1 + Delta]."""
        env = envelopes(c, d, d0, k=k)
        g = PowerCutoff(k=k)
        integral = quad(lambda s: math.exp(c * s) * g.value(math.exp(-c * (s - 1.0))), 1.0, 1.0 + env.big_delta)[0]
        bound = (d - d0) / env.k2 * math.exp(-c * (1.0 + env.big_delta)) * integral
        assert env.ledger["3"]["bound"] == pytest.approx(bound, rel=1e-14)


class TestSmallRates:
    def test_bracket_ends_reclassify_to_their_sides(self):
        # already 1.1c reaches the cutoff at c = 0.1, where d*/c is 1.0957
        res = find_dstar(0.1, tol=1e-3)
        # the probes march to 4 T_max = 1600
        assert classify_zd(0.1, res.lo, T_max=1600.0).verdict == IN_D
        assert classify_zd(0.1, res.hi, T_max=1600.0).verdict == HITS_ONE
        assert res.lo < 1.0957 * 0.1 < res.hi
        assert res.hi - res.lo <= 1e-3

    def test_no_collapsing_probe_names_c(self, monkeypatch):
        def hits(c, d, k=2.0, T_max=400.0):
            return threshold.ZClassification(HITS_ONE, c, d, tau0=2.0)

        monkeypatch.setattr(threshold, "classify_zd", hits)
        with pytest.raises(ParameterError) as err:
            find_dstar(0.1)
        assert err.value.field == "c"

    def test_no_contact_names_c(self, monkeypatch):
        def collapses(c, d, k=2.0, T_max=400.0):
            return threshold.ZClassification(IN_D, c, d, certificate_time=3.0)

        monkeypatch.setattr(threshold, "classify_zd", collapses)
        with pytest.raises(ParameterError) as err:
            find_dstar(0.1)
        assert err.value.field == "c"

    def test_one_march_and_one_row_per_probe(self, monkeypatch):
        """Each probe is marched once, to 4 T_max, and logs one row: its verdict and the time that decided it."""
        marched = []

        def counted(c, d, **kwargs):
            marched.append(d)
            return classify_zd(c, d, **kwargs)

        monkeypatch.setattr(threshold, "classify_zd", counted)
        res = find_dstar(0.001, tol=1e-6)
        assert marched == [d for d, _, _ in res.history]
        assert any(t is not None and t > 400.0 for _, _, t in res.history)  # some probes need the longer march

        rows = []
        for d in marched:
            cls = classify_zd(0.001, d, T_max=1600.0)
            rows.append((d, cls.verdict, cls.tau0 if cls.verdict == HITS_ONE else cls.certificate_time))
        assert list(res.history) == rows
        assert list(res.unresolved) == [d for d, v, _ in rows if v == UNRESOLVED]

    def test_unresolved_midpoint_ends_the_bisection(self, monkeypatch):
        """The ladder brackets [1.6, 2.0]; an unresolved first midpoint leaves that bracket as it stands."""
        def stub(c, d, k=2.0, T_max=400.0):
            if abs(d - 1.8) < 1e-12:
                return threshold.ZClassification(UNRESOLVED, c, d)
            if d < 1.8:
                return threshold.ZClassification(IN_D, c, d, certificate_time=3.0)
            return threshold.ZClassification(HITS_ONE, c, d, tau0=2.0)

        monkeypatch.setattr(threshold, "classify_zd", stub)
        res = find_dstar(1.0, tol=1e-6)
        assert (res.lo, res.hi) == (1.6, 2.0)
        assert res.unresolved == (pytest.approx(1.8),)
        assert [d for d, _, _ in res.history] == pytest.approx([1.1, 1.3, 1.6, 2.0, 1.8])
