import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invarkit.ramps import (
    RampCombination,
    abs_identity,
    fit_ramp_combination,
    hat_via_ramps,
    step_approx,
)


class TestAbsIdentity:
    @pytest.mark.parametrize("s,expected", [(2.0, 2.0), (-3.0, 3.0), (0.0, 0.0)])
    def test_values(self, s, expected):
        assert abs_identity(s) == expected

    @given(st.floats(-1e12, 1e12))
    @settings(max_examples=500)
    def test_exact_for_all_floats(self, s):
        assert abs_identity(s) == abs(s)

    def test_exact_on_large_random_batch(self):
        s = np.random.default_rng(0).uniform(-1e6, 1e6, 10**6)
        lhs = np.maximum(s, 0.0) + np.maximum(-s, 0.0)
        assert np.array_equal(lhs, np.abs(s))


class TestStepApprox:
    def test_saturated(self):
        assert step_approx(0.05, 100.0) == pytest.approx(1.0, abs=1e-12)

    def test_below_zero(self):
        assert step_approx(-0.1, 100.0) == 0.0

    def test_mid_ramp(self):
        assert step_approx(0.005, 100.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("s", [-0.7, -0.01, 0.02, 1.3])
    def test_pointwise_convergence_to_step(self, s):
        target = 1.0 if s > 0 else 0.0
        errors = [abs(step_approx(s, a) - target) for a in (10, 1e2, 1e4, 1e6)]
        # saturated points only move at roundoff scale, hence the slack
        assert errors[-1] <= errors[0] + 1e-9
        assert errors[-1] <= 1e-6

    @pytest.mark.parametrize("alpha", [7, 3e3, 1e4])
    def test_bit_equal_to_the_two_ramp_formula(self, alpha):
        def two_ramps(s):
            return alpha * (np.maximum(s, 0.0) - np.maximum(s - 1.0 / alpha, 0.0))

        r = np.random.default_rng(6)
        edge = np.linspace(-2 / alpha, 3 / alpha, 1001)
        s = np.concatenate([edge, r.uniform(-1, 1, 999)])
        for x in (s, s.reshape(50, 40), s[::3]):
            assert np.array_equal(step_approx(x, alpha), two_ramps(x))
        for x in (-0.5, 0.0, 0.3 / alpha, 1.0 / alpha, 2.0):
            got = step_approx(x, alpha)
            assert type(got) is float and got == float(two_ramps(np.asarray(x)))
        listed = [0.0, 0.5 / alpha]
        assert np.array_equal(step_approx(listed, alpha), two_ramps(np.array(listed)))

    def test_leaves_its_argument_unmodified(self):
        s = np.linspace(-1.0, 1.0, 1001)
        before = s.copy()
        out = step_approx(s, 1e2)
        assert np.array_equal(s, before) and out is not s


class TestHat:
    def test_peak(self):
        assert hat_via_ramps(0.0, 1.0) == 1.0

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_support_edges(self, s):
        assert hat_via_ramps(s, 1.0) == 0.0

    def test_linear_flank(self):
        assert hat_via_ramps(0.5, 1.0) == pytest.approx(0.5)

    def test_symmetric(self):
        s = np.random.default_rng(1).uniform(-2, 2, 1000)
        np.testing.assert_allclose(
            hat_via_ramps(s, 1.3), hat_via_ramps(-s, 1.3), atol=1e-15
        )

    @pytest.mark.parametrize("w", [0.5, 1.0, 2.0])
    def test_integrates_to_w(self, w):
        s = np.linspace(-3 * w, 3 * w, 200_001)
        integral = np.trapezoid(hat_via_ramps(s, w), s)
        assert integral == pytest.approx(w, abs=1e-6)


class TestFit:
    def test_single_ramp_target_exact(self):
        combo, err = fit_ramp_combination(
            lambda s: max(s, 0.0), (-1.0, 1.0, 100), 1
        )
        assert err <= 1e-10

    def test_abs_target_two_units(self):
        combo, err = fit_ramp_combination(abs, (-1.0, 1.0, 100), 2)
        assert err <= 1e-10

    def test_gaussian_twenty_units(self):
        _, err = fit_ramp_combination(
            lambda s: float(np.exp(-(s**2) / 2)), (-3.0, 3.0, 601), 20
        )
        assert err <= 0.05

    def test_error_non_increasing_in_k(self):
        errs = [
            fit_ramp_combination(
                lambda s: float(np.exp(-(s**2) / 2)), (-3.0, 3.0, 601), k
            )[1]
            for k in (5, 10, 20, 40)
        ]
        assert errs == sorted(errs, reverse=True)

    def test_deterministic(self):
        a = fit_ramp_combination(np.cos, (-2.0, 2.0, 200), 8)
        b = fit_ramp_combination(np.cos, (-2.0, 2.0, 200), 8)
        assert a[1] == b[1]
        assert a[0].units == b[0].units

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            fit_ramp_combination(abs, (-1.0, 1.0, 15), 2)


class TestRampCombination:
    def test_piecewise_linear_eval(self):
        combo = RampCombination(units=((1.0, 0.0, 1), (1.0, 0.0, -1)))
        s = np.linspace(-2, 2, 101)
        np.testing.assert_allclose(combo(s), np.abs(s))

    def test_breakpoints(self):
        combo = RampCombination(units=((1.0, -0.5, 1), (2.0, 0.25, -1)))
        assert combo.breakpoints() == (0.5, 0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RampCombination(units=())
