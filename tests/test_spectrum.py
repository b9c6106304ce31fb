import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import lambertw

from ddelab import spectrum
from ddelab.dde import ParameterError, System
from ddelab.spectrum import (
    complex_root_pairs,
    hopf_angles,
    hopf_data,
    interior_equilibrium,
    leading_real_root,
    solve_theta,
    spectrum_report,
    stationary_points,
    track_crossing_root,
    transversality,
)

HOPF_C = 5.0 * math.pi / (3.0 * math.sqrt(3.0))

# frozen from an independent bracketing solve of  x + 1 - 2 exp(-x) = 0
LAMBDA0_1_2 = 0.3748225281839233

# found in a rate x slope sweep: Newton from the band seeds overflows here from 6 pairs on
OVERFLOW_RATE, OVERFLOW_SLOPE = 0.0022985779227651477, 3.224590545296398


def test_frozen_leading_root_oracle():
    # re-derive the frozen constant with an independent root finder
    val = brentq(lambda x: x + 1.0 - 2.0 * math.exp(-x), 0.0, 2.0, xtol=1e-15)
    assert val == pytest.approx(LAMBDA0_1_2, abs=1e-12)


class TestStationaryPoints:
    def test_limit_closed_form(self):
        st = stationary_points(System.limit(1.0, 7.38), ceiling=0.9)
        assert st.interior().value == pytest.approx(interior_equilibrium(1.0, 7.38), abs=1e-10)
        assert st.points[0].value == 0.0

    def test_smooth_interior_matches_bracketing_oracle(self):
        system = System.smooth(1.0, 7.38, n=100)
        fb = system.feedback
        oracle = brentq(lambda x: -x + 7.38 * fb.value(x), 0.05, 0.5, xtol=1e-14)
        st = stationary_points(system, ceiling=0.9)
        assert st.interior().value == pytest.approx(oracle, abs=1e-10)
        assert abs(st.interior().value - 1.0 / 7.38) < 1e-6

    @pytest.mark.parametrize("c,d", [(0.001, 100.0), (1e-4, 7.38)])
    def test_root_below_the_first_grid_point(self, c, d):
        # the interior equilibrium c/d lies below the first grid point, 0.999/9999
        st = stationary_points(System.limit(c, d), ceiling=0.999)
        assert [p.value for p in st.points] == [0.0, pytest.approx(interior_equilibrium(c, d), rel=1e-9)]

    def test_scan_ceiling_two_reveals_second_zero(self):
        st = stationary_points(System.smooth(1.0, 7.38, n=100), ceiling=2.0)
        inner = [p.value for p in st.points if p.value > 0]
        assert len(inner) == 2
        assert abs(inner[1] - 1.0) < 0.15

    def test_residuals_small(self):
        st = stationary_points(System.smooth(1.0, 7.38, n=100), ceiling=2.0)
        assert all(p.residual < 1e-10 for p in st.points)

    def test_classification(self):
        st = stationary_points(System.smooth(1.0, 7.38, n=100), ceiling=2.0)
        by_value = {round(p.value, 3): p.classification for p in st.points}
        assert by_value[0.0] == "stable-candidate"
        assert by_value[round(st.interior().value, 3)] == "unstable"

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.1, 5.0),
        b=st.floats(0.1, 50.0),
        n=st.integers(3, 300),
    )
    def test_scan_roots_are_sign_changes(self, a, b, n):
        system = System.smooth(a, b, n=n)
        scan = stationary_points(system, ceiling=2.0)
        assert scan.points[0].value == 0.0

        def alpha(xi):
            return -a * xi + b * system.feedback.value(xi)

        for p in scan.points[1:]:
            assert alpha(p.value - 1e-12) * alpha(p.value + 1e-12) < 0.0


class TestLeadingRealRoot:
    def test_boundary_case_zero(self):
        assert leading_real_root(1.0, 1.0) == 0.0

    def test_constructed_identity(self):
        # 1 + 1 - 2e * exp(-1) = 0
        assert leading_real_root(1.0, 2.0 * math.e) == pytest.approx(1.0, abs=1e-12)

    def test_prototype_frozen_value(self):
        assert leading_real_root(1.0, 2.0) == pytest.approx(LAMBDA0_1_2, abs=1e-10)

    def test_no_positive_root_flagged(self):
        with pytest.warns(UserWarning):
            root = leading_real_root(1.0, 0.5)
        assert root < 0.0
        assert abs(root + 1.0 - 0.5 * math.exp(-root)) < 1e-10

    def test_increasing_in_slope(self):
        roots = [leading_real_root(1.0, mu) for mu in (1.2, 1.6, 2.0, 3.0, 5.0)]
        assert all(b > a for a, b in zip(roots, roots[1:]))


class TestComplexRoots:
    def test_residuals(self):
        for re, im in complex_root_pairs(1.0, 2.0, count=3):
            lam = complex(re, im)
            assert abs(lam + 1.0 - 2.0 * cmath.exp(-lam)) < 1e-10

    def test_band_placement(self):
        pairs = complex_root_pairs(1.0, 2.0, count=4)
        for j, (_, im) in enumerate(pairs, start=1):
            assert (2 * j - 1) * math.pi < im < 2 * j * math.pi

    def test_ordering_below_leading_root(self):
        lam0 = leading_real_root(1.0, 2.0)
        pairs = complex_root_pairs(1.0, 2.0, count=3)
        res = [lam0] + [re for re, _ in pairs]
        assert all(b < a for a, b in zip(res, res[1:]))

    def test_tiny_rates_take_the_phase_reduction(self, monkeypatch):
        # every band comes from _root_by_phase, also at rate = slope = 1e-4,
        # where a Newton iteration from the band seeds -rate + i(2j - 1/2)pi fails
        entered = []
        real = spectrum._root_by_phase

        def counted(*args):
            entered.append(args)
            return real(*args)

        monkeypatch.setattr(spectrum, "_root_by_phase", counted)
        pairs = complex_root_pairs(1e-4, 1e-4, 5)
        assert len(entered) == 5
        for j, (re, im) in enumerate(pairs, start=1):
            assert (2 * j - 1) * math.pi < im < 2 * j * math.pi
            lam = complex(re, im)
            assert abs(lam + 1e-4 - 1e-4 * cmath.exp(-lam)) <= 1e-10

    def test_phase_reduction_matches_bracketing_oracle(self):
        """Bands above y = 64, where floats lie further apart than 1e-14, included."""
        G = lambda y: math.log(0.05 / (-y / math.sin(y))) + 0.1 + y / math.tan(y)
        for j in range(1, 13):
            lo, hi = (2 * j - 1) * math.pi, 2 * j * math.pi
            lam = spectrum._root_by_phase(0.1, 0.05, lo, hi)
            ys = np.linspace(lo + 1e-6, hi - 1e-6, 4001)
            k = next(k for k in range(4000) if G(ys[k]) * G(ys[k + 1]) < 0)
            assert abs(lam.imag - brentq(G, ys[k], ys[k + 1], xtol=1e-14)) < 1e-13

    def test_conjugate_symmetry(self):
        re, im = complex_root_pairs(1.0, 2.0, count=1)[0]
        lam = complex(re, -im)
        assert abs(lam + 1.0 - 2.0 * cmath.exp(-lam)) < 1e-10

    def test_report_serializes(self):
        rep = spectrum_report(1.0, 2.0, count=3)
        doc = rep.to_dict()
        assert doc["lambda0"] == pytest.approx(LAMBDA0_1_2, abs=1e-10)
        assert len(doc["pairs"]) == 3
        assert doc["beta_window"][0] < doc["beta_window"][1]

    @pytest.mark.parametrize("count", range(6, 13))
    def test_overflow_input_gives_every_pair(self, count):
        pairs = complex_root_pairs(OVERFLOW_RATE, OVERFLOW_SLOPE, count)
        assert len(pairs) == count
        for re, im in pairs:
            lam = complex(re, im)
            assert abs(lam + OVERFLOW_RATE - OVERFLOW_SLOPE * cmath.exp(-lam)) <= 1e-10


_W_RATES = (0.01, 0.5, 1.0, 3.0, 30.0)
_W_SLOPES = (0.05, 2.0, 7.38, 25.0, 1000.0)


def _lambert_root(rate: float, slope: float, j: int) -> complex:
    """Root of ``lam + rate - slope exp(-lam)`` on branch j of Lambert W, imaginary part positive.

    ``w = lam + rate`` solves ``w exp(w) = slope exp(rate)`` (Corless et al.,
    Adv. Comput. Math. 5 (1996) 329-359).
    """
    lam = complex(lambertw(slope * math.exp(rate), j)) - rate
    return complex(lam.real, abs(lam.imag))


class TestLambertReference:
    @pytest.mark.parametrize("rate", _W_RATES)
    def test_pairs_match_lambert_w(self, rate):
        for slope in _W_SLOPES:
            for j, (re, im) in enumerate(complex_root_pairs(rate, slope, 12), start=1):
                ref = _lambert_root(rate, slope, j)
                assert abs(complex(re, im) - ref) <= 1e-13 * abs(ref), (slope, j)

    @pytest.mark.parametrize("rate", _W_RATES)
    def test_crossing_root_matches_lambert_w(self, rate):
        for slope in _W_SLOPES:
            for j in (1, 2, 5):
                for alpha in (-0.05, 0.0, 1e-5, 0.05):
                    lam = track_crossing_root(rate, slope, (2 * j - 0.5) * math.pi, alpha)
                    ref = _lambert_root((1.0 + alpha) * rate, (1.0 + alpha) * slope, j)
                    assert abs(lam - ref) <= 1e-13 * abs(ref), (slope, j, alpha)

    def test_crossing_root_needs_a_band_angle(self):
        with pytest.raises(ValueError, match="theta inside a band"):
            track_crossing_root(1.0, 2.0, 0.5 * math.pi, 0.0)
        with pytest.raises(ValueError, match="alpha > -1"):
            track_crossing_root(1.0, 2.0, 1.5 * math.pi, -1.0)


class TestTheta:
    def test_closed_form_case(self):
        # tan(5pi/3) = -sqrt(3) makes 5pi/3 the band root for this c
        assert solve_theta(HOPF_C, 1) == pytest.approx(5.0 * math.pi / 3.0, abs=1e-10)

    def test_band_placement(self):
        for c in (0.2, 1.0, 4.0):
            th = solve_theta(c, 1)
            assert 1.5 * math.pi < th < 2.0 * math.pi

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_residuals_on_grid(self, c, j):
        th = solve_theta(c, j)
        assert abs(th + c * math.tan(th)) < 1e-10

    def test_monotone_in_c(self):
        thetas = [solve_theta(c, 1) for c in (0.1, 0.5, 1.0, 3.0, 10.0)]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        assert thetas[0] > 1.5 * math.pi and thetas[-1] < 2.0 * math.pi


class TestHopfData:
    def test_coincident_slope_gives_unit_rescale(self):
        c = HOPF_C
        theta = solve_theta(c, 1)
        theta_n, beta_n = hopf_angles(c, 2.0 * c, 1)
        assert theta_n == pytest.approx(theta, abs=1e-12)
        assert beta_n == pytest.approx(1.0, abs=1e-12)

    def test_prototype_criticality_constant(self):
        # cos(theta) = 1/2 forces c = (2 pi - pi/3) / sqrt(3) for the first band
        c = (2.0 * math.pi - math.pi / 3.0) / math.sqrt(3.0)
        assert c == pytest.approx(HOPF_C, abs=1e-14)
        theta = solve_theta(c, 1)
        assert abs(c - 2.0 * c * math.cos(theta)) < 1e-10

    def test_transversality_arithmetic(self):
        assert transversality(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_transversality_matches_finite_difference(self):
        c = HOPF_C
        theta = solve_theta(c, 1)
        slope = 2.0 * c
        eps = 1e-5
        lam_p = track_crossing_root(c, slope, theta, eps)
        lam_m = track_crossing_root(c, slope, theta, -eps)
        fd = (lam_p.real - lam_m.real) / (2.0 * eps)
        assert abs(fd - transversality(c, theta)) < 1e-6

    def test_full_bundle(self):
        hd = hopf_data(HOPF_C, 25.0, 2.0, 100, j=1, alpha=0.0)
        assert hd.beta_n == pytest.approx(1.0, abs=1e-9)
        assert hd.theta_n == pytest.approx(5.0 * math.pi / 3.0, abs=1e-9)
        assert hd.transversality > 0.0
        assert hd.a_n == pytest.approx(HOPF_C, rel=1e-9)
        assert hd.omega_guess == pytest.approx(1.2, abs=1e-9)

    def test_transversality_positive_on_grid(self):
        for rate in (0.5, 1.0, 3.0):
            for theta in (solve_theta(rate, j) for j in (1, 2)):
                assert transversality(rate, theta) > 0.0

    def test_linearization_constant_independent_of_gain(self):
        # k = 2 makes gain * slope-at-equilibrium identically 2c
        for d in (1.5, 2.0, 7.38, 25.0, 100.0):
            xi = interior_equilibrium(1.0, d, 2.0)
            assert d * 2.0 * xi == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("call,value", [
    ("solve_theta(1.0, 82)", 513.6523457015494),
    ("solve_theta(1.0, 100)", 626.7493299240246),
    ("leading_real_root(1.0, 1e300)", 684.245750364634),
])
def test_halving_ends_at_one_float_spacing(call, value):
    """Where the float spacing exceeds the tolerance, the halving stops at it instead of spinning.

    Run in a subprocess with a timeout, so a halving that never ends fails the test.
    """
    src = str(Path(spectrum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"from ddelab.spectrum import *; print(repr({call}))"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == value


def test_unrecoverable_pair_names_rate():
    """At rate 1e300 a pair's real part is log(slope / R) with R = -y / sin(y) near 1e300, past what y resolves."""
    with pytest.raises(ParameterError, match="root pair 1 lies nearer its band's edge") as err:
        complex_root_pairs(1e300, 1.0)
    assert err.value.field == "rate"


@pytest.mark.parametrize("rate", [800.0, 1e4, 1e6])
def test_large_rate_roots_clear_the_scaled_residual_gate(rate):
    """The terms of the characteristic function cancel to about the rate, and the gate scales with them.

    Each pair lies in its band, and a Newton step on the characteristic
    function would move it by less than 1e-10 relative; the residual (2.5e-10
    for pair 1 at rate 800) is the root's error times the rate.
    """
    pairs = complex_root_pairs(rate, 1.0, 5)
    for j, (re, im) in enumerate(pairs, start=1):
        lam = complex(re, im)
        assert (2 * j - 1) * math.pi < im < 2 * j * math.pi
        assert abs(spectrum._char(lam, rate, 1.0) / (1.0 + cmath.exp(-lam))) <= 1e-10 * abs(lam), j
    assert max(abs(spectrum._char(complex(*p), rate, 1.0)) for p in pairs) > 1e-10


@pytest.mark.parametrize("rate", [1e7, 1e8, 1e12, 1e15])
@pytest.mark.parametrize("slope_per_rate", [None, 2.0], ids=["slope-1", "slope-2rate"])
def test_roots_in_the_strip_the_band_scan_leaves_out(rate, slope_per_rate):
    """Pair 1 lies about 2 pi / rate below 2 pi, inside the 1e-6 strip the band scan leaves out.

    The strip is sampled down to one float spacing and a root found there is
    polished on ``_char``: each pair lies in its band and clears the gate, and
    a further Newton step would move a polished pair by at most 4 eps
    relative at every rate (the phase form alone is off by up to 2e-2 at
    1e15), and a pair of the band scan by at most eps * rate.
    """
    slope = 1.0 if slope_per_rate is None else slope_per_rate * rate
    pairs = complex_root_pairs(rate, slope, 5)
    assert 2.0 * math.pi - pairs[0][1] < 1e-6
    for j, (re, im) in enumerate(pairs, start=1):
        lam = complex(re, im)
        assert (2 * j - 1) * math.pi < im < 2 * j * math.pi
        assert abs(spectrum._char(lam, rate, slope)) <= max(1e-10, 2.0**-48 * (abs(lam) + rate) ** 2)
        step = spectrum._char(lam, rate, slope) / (1.0 + slope * cmath.exp(-lam))
        polished = 2 * j * math.pi - im < 1e-6  # found in the strip; the others by the band scan
        assert abs(step) <= sys.float_info.epsilon * abs(lam) * (4.0 if polished else rate), j


@pytest.mark.parametrize("slope", [1e300, 1e-300])
def test_large_roots_clear_the_scaled_residual_gate(slope):
    """Near |lam| = 690 a residual of eps |lam|^2 (up to 3.3e-10 here) is the float floor, not a failed root."""
    pairs = complex_root_pairs(1.0, slope, 6)
    for j, (re, im) in enumerate(pairs, start=1):
        ref = _lambert_root(1.0, slope, j)
        assert abs(complex(re, im) - ref) <= 1e-15 * abs(ref), j
    assert max(abs(spectrum._char(complex(*p), 1.0, slope)) for p in pairs) > 1e-10


@pytest.mark.parametrize("rate,slope", [(1e300, 1.0), (1e298, 1.0), (1e300, 1e-300)])
def test_negative_root_past_the_exp_range(rate, slope):
    """The root lies below -512 (about -690.8 at rate 1e300), where exp(-lam) alone overflows from -709."""
    with pytest.warns(UserWarning, match="negative real root"):
        lam = leading_real_root(rate, slope)
    # lam + rate = slope exp(-lam), in logs
    assert abs(math.log(lam + rate) - (math.log(slope) - lam)) <= 1e-12
    assert lam < -512.0


@pytest.mark.parametrize("slope", [1e-308, 1e-310])
def test_slope_near_the_float_floor_names_slope(slope):
    """Pair 1's real part lies below -709 there, so exp(-lam) overflows in the residual gate."""
    with pytest.raises(ParameterError, match="root pair 1 did not converge") as err:
        complex_root_pairs(1.0, slope)
    assert err.value.field == "slope"


@pytest.mark.parametrize("rate, slope", [(1.0, 1e-320), (1e9, 1e-315)])
def test_slope_over_R_underflow_names_slope(rate, slope):
    """Near a band's edge slope / R underflows to 0: the scan reads it as -inf, and a root there names slope.

    At (1, 1e-320) the halving used to reach math.log(0.0) and raise a bare
    ValueError; at (1e9, 1e-315) the root found in the strip has slope / R = 0.
    """
    with pytest.raises(ParameterError) as err:
        complex_root_pairs(rate, slope)
    assert err.value.field == "slope"


@pytest.mark.parametrize("k", [1.0, 0.5])
def test_interior_equilibrium_needs_k_above_one(k):
    with pytest.raises(ValueError, match="k > 1"):
        interior_equilibrium(1.0, 7.38, k)
