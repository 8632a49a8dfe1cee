"""Tests for the random-effects meta-regression and the trend test."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ctxmr.errors import ConfigError, DomainError
from ctxmr.ivcore import ContextResult
from ctxmr.metareg import meta_regress, trend_test

from oracles import reml_loglik, reml_profile_grid
from regression_sets import ELEVEN_CONTEXT_SUMMARY_CSV


def make_result(context, bx, bx_se, by, by_se, mean, n=1000):
    return ContextResult.from_summary_stats(
        context, bx=bx, bx_se=bx_se, by=by, by_se=by_se, exposure_mean=mean, n=n
    )


def random_instance(rng, k=10, tau=0.0):
    v = rng.uniform(0.001, 0.01, size=k)
    x = rng.uniform(8.0, 10.0, size=k)
    y = 0.2 + 0.05 * x + rng.normal(scale=np.sqrt(v + tau**2))
    return y, v, x


class TestMetaRegress:
    def test_constant_estimates_give_zero_slope(self):
        y = np.full(6, 0.8)
        v = np.full(6, 0.01)
        x = np.linspace(8, 10, 6)
        for method in ("fixed", "dl", "reml"):
            res = meta_regress(y, v, x, method=method)
            assert res.slope == pytest.approx(0.0, abs=1e-10)
            assert res.slope_p == pytest.approx(1.0, abs=1e-10)
            assert res.tau2 == pytest.approx(0.0, abs=1e-12)

    def test_exact_line_recovered(self):
        x = np.array([8.0, 9.0, 10.0])
        y = 1.0 + 0.25 * x
        v = np.full(3, 0.02)
        fixed = meta_regress(y, v, x, method="fixed")
        assert fixed.slope == pytest.approx(0.25, abs=1e-12)
        assert fixed.intercept == pytest.approx(1.0, abs=1e-10)
        dl = meta_regress(y, v, x, method="dl")
        assert dl.tau2 == 0.0
        assert dl.slope == pytest.approx(fixed.slope, abs=1e-12)

    def test_reml_matches_profile_likelihood_grid(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            y, v, x = random_instance(rng, tau=0.05 if trial % 2 else 0.0)
            res = meta_regress(y, v, x, method="reml")
            hi = 10.0 * float(np.var(y))
            tau2_grid, slope_grid = reml_profile_grid(y, v, x, hi=hi)
            assert res.tau2 == pytest.approx(tau2_grid, abs=1e-4)
            assert res.slope == pytest.approx(slope_grid, abs=1e-6)

    def test_eleven_context_set_reaches_the_profile_maximum(self):
        rows = [line.split(",") for line in ELEVEN_CONTEXT_SUMMARY_CSV.splitlines()[1:]]
        bx, by, by_se, x = (np.array([float(r[i]) for r in rows]) for i in (1, 3, 4, 5))
        res = meta_regress(by / bx, (by_se / bx) ** 2, x, method="reml")
        assert res.tau2 == pytest.approx(0.0033979816, abs=1e-6)
        assert res.slope == pytest.approx(0.0588366543, abs=1e-6)

    def test_interior_maximum_found_past_a_local_one_at_zero(self):
        # The restricted likelihood falls from tau2 = 0 but peaks higher near
        # tau2 = 0.0071, so a search that stops at the boundary misses it.
        y = np.array([0.4694, 0.4085, 0.4144, 0.6144, 0.5376, 0.3971, 0.9434, 1.0032, 0.2272,
                      0.6415, 0.4282, 0.6436, 0.6071, 0.8062, 1.1382, 0.4034, 0.6633])
        v = np.array([0.02461, 0.03782, 0.04777, 0.00494, 0.03868, 0.02035, 0.03586, 0.03246,
                      0.03073, 0.00132, 0.01849, 0.035, 0.03291, 0.02828, 0.0279, 0.01584,
                      0.00817])
        x = np.array([8.738, 8.1, 9.33, 8.858, 9.3, 8.178, 8.753, 9.051, 9.343, 8.776, 8.123,
                      9.692, 8.078, 8.935, 9.906, 8.254, 8.615])
        assert reml_loglik(1e-4, y, v, x) < reml_loglik(0.0, y, v, x)
        res = meta_regress(y, v, x, method="reml")
        tau2_grid, slope_grid = reml_profile_grid(y, v, x, hi=0.1, step=2.5e-4)
        assert tau2_grid > 0.007
        assert res.tau2 == pytest.approx(tau2_grid, abs=1e-6)
        assert res.slope == pytest.approx(slope_grid, abs=1e-6)

    def test_means_offset_by_a_million_match_exact_arithmetic(self):
        rng = np.random.default_rng(27)
        y, v, x = random_instance(rng)
        x = x + 1e6
        w = [1 / Fraction(vk) for vk in v]
        xs, ys = [Fraction(xk) for xk in x], [Fraction(yk) for yk in y]
        s0, sx, sy = sum(w), sum(a * b for a, b in zip(w, xs)), sum(a * b for a, b in zip(w, ys))
        sxx = sum(a * b * b for a, b in zip(w, xs))
        sxy = sum(a * b * c for a, b, c in zip(w, xs, ys))
        exact = (s0 * sxy - sx * sy) / (s0 * sxx - sx * sx)
        res = meta_regress(y, v, x, method="fixed")
        assert res.slope == pytest.approx(float(exact), rel=1e-12)

    def test_mean_shift_moves_intercept_only(self):
        rng = np.random.default_rng(22)
        y, v, x = random_instance(rng, tau=0.03)
        base = meta_regress(y, v, x, method="reml")
        shifted = meta_regress(y, v, x + 100.0, method="reml")
        assert shifted.slope == pytest.approx(base.slope, abs=1e-10)
        assert shifted.slope_p == pytest.approx(base.slope_p, abs=1e-10)
        assert shifted.intercept != pytest.approx(base.intercept, abs=1e-3)

    def test_variance_scaling_leaves_slope_invariant(self):
        rng = np.random.default_rng(23)
        y, v, x = random_instance(rng, tau=0.05)
        for method in ("fixed", "reml"):
            base = meta_regress(y, v, x, method=method)
            scaled = meta_regress(y, 4.0 * v, x, method=method)
            assert scaled.slope == pytest.approx(base.slope, abs=1e-8)
            if method == "reml":
                assert scaled.tau2 == pytest.approx(4.0 * base.tau2, abs=1e-6)

    def test_homogeneous_data_reduce_to_fixed_fit(self):
        x = np.array([8.0, 8.5, 9.0, 9.5, 10.0])
        y = 1.0 + 0.2 * x + np.array([1e-4, -1e-4, 5e-5, -5e-5, 0.0])
        v = np.full(5, 0.05)
        fixed = meta_regress(y, v, x, method="fixed")
        for method in ("dl", "reml"):
            res = meta_regress(y, v, x, method=method)
            assert res.tau2 == 0.0
            assert res.slope == pytest.approx(fixed.slope, abs=1e-12)
            assert res.slope_se == pytest.approx(fixed.slope_se, abs=1e-12)

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match=">= 3"):
            meta_regress([1.0, 2.0], [0.1, 0.1], [1.0, 2.0])
        with pytest.raises(ConfigError, match="collinear"):
            meta_regress([1.0, 2.0, 3.0], [0.1] * 3, [5.0, 5.0, 5.0])
        with pytest.raises(DomainError):
            meta_regress([1.0, 2.0, 3.0], [0.1, -0.1, 0.1], [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match="unknown tau2"):
            meta_regress([1.0, 2.0, 3.0], [0.1] * 3, [1.0, 2.0, 3.0], method="pm")


class TestTrendTest:
    def test_replicated_contexts_match_two_point_slope(self):
        a = make_result("a", bx=0.5, bx_se=0.01, by=0.30, by_se=0.05, mean=50.0)
        b = make_result("b", bx=0.5, bx_se=0.01, by=0.40, by_se=0.05, mean=56.0)
        results = [a, b] * 5
        res = trend_test(results, method="fixed")
        expected = (b.ratio - a.ratio) / (56.0 - 50.0)
        assert res.slope == pytest.approx(expected, abs=1e-12)

    def test_null_rejection_rate_is_calibrated(self):
        # Homogeneous true effect: trend rejections should sit near but
        # slightly below the nominal 5% level.
        rng = np.random.default_rng(24)
        means = 8.0 + 0.2 * np.arange(10)
        rejections = 0
        reps = 1000
        for _ in range(reps):
            bx = rng.normal(0.5, 0.0218, size=10)
            by_se = np.full(10, 0.02)
            by = 0.8 * bx + rng.normal(scale=by_se)
            rs = [
                make_result(str(i), bx=bx[i], bx_se=0.0218, by=by[i],
                            by_se=by_se[i], mean=means[i])
                for i in range(10)
            ]
            if trend_test(rs, method="reml").slope_p < 0.05:
                rejections += 1
        assert 0.02 <= rejections / reps <= 0.07

    def test_increasing_effects_yield_positive_slope(self):
        rng = np.random.default_rng(25)
        means = 8.3 + 0.2 * np.arange(10)
        positive = 0
        reps = 200
        for _ in range(reps):
            bx = rng.normal(0.5, 0.0218, size=10)
            by_se = np.full(10, 0.03)
            by = (0.08 * means) * bx + rng.normal(scale=by_se)
            rs = [
                make_result(str(i), bx=bx[i], bx_se=0.0218, by=by[i],
                            by_se=by_se[i], mean=means[i])
                for i in range(10)
            ]
            if trend_test(rs).slope > 0:
                positive += 1
        assert positive / reps > 0.95
