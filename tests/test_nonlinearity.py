import numpy as np
import pytest

from ddelab.nonlinearity import Hill, PowerCutoff


class TestPowerCutoff:
    def test_normalization_at_cutoff(self):
        assert PowerCutoff(k=2.0).value(1.0) == 1.0

    def test_vanishes_above_cutoff(self):
        assert PowerCutoff(k=2.0).value(2.0) == 0.0

    def test_power_evaluation(self):
        assert PowerCutoff(k=2.0).value(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            PowerCutoff().value(-0.1)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            PowerCutoff(k=0.0)

    @pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 5.0])
    def test_strict_slope_gap_on_grid(self, k):
        # slope strictly above the secant slope on (0, 1] whenever k > 1
        g = PowerCutoff(k=k)
        grid = np.linspace(1e-3, 1.0, 10_000)
        gap = g.deriv(grid) - g.value(grid) / grid
        assert np.min(gap) > 0.0


class TestHill:
    def test_value_at_origin(self):
        assert Hill(k=2.0, n=20).value(0.0) == 0.0

    def test_value_at_one_is_half(self):
        assert Hill(k=2.0, n=20).value(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_direct_arithmetic(self):
        # 0.25 / (1 + 2**-6) = 16/65
        assert Hill(k=2.0, n=6).value(0.5) == pytest.approx(16.0 / 65.0, abs=1e-15)

    def test_order_must_exceed_exponent(self):
        with pytest.raises(ValueError):
            Hill(k=2.0, n=2)

    @pytest.mark.parametrize("n", [6, 20, 100])
    def test_increasing_below_half_and_bounded(self, n):
        f = Hill(k=2.0, n=n)
        lo = np.linspace(1e-6, 0.5, 2000)
        assert np.all(f.deriv(lo) > 0.0)
        wide = np.linspace(0.0, 1000.0, 20_000)
        vals = f.value(wide)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)

    def test_no_overflow_for_large_arguments(self):
        f = Hill(k=2.0, n=400)
        assert np.isfinite(f.value(50.0)) and np.isfinite(f.deriv(50.0))

