"""Tests for the random-effects meta-regression and the trend test."""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest

from ctxmr.errors import ConfigError, CtxMRError, DomainError, EstimationError
from ctxmr.ivcore import ContextTable
from ctxmr.metareg import meta_regress, meta_regress_lanes, trend_test, trend_test_lanes

from oracles import reml_loglik, reml_loglik_grid, reml_profile_grid
from regression_sets import ELEVEN_CONTEXT_SUMMARY_CSV


def make_table(bx, bx_se, by, by_se, means, n=1000, labels=None):
    """A context table of equal-length columns (scalars broadcast), labelled 0, 1, ..."""
    cols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=float))
                                 for c in (bx, bx_se, by, by_se, means)))
    if labels is None:
        labels = [str(i) for i in range(cols[0].size)]
    return ContextTable.from_columns(labels, *cols, np.full(cols[0].size, n))


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
        # Only the fixed fit has this property: it weights by 1/v alone.
        # test_metareg_properties checks REML's scaling of y and v together.
        rng = np.random.default_rng(23)
        y, v, x = random_instance(rng, tau=0.05)
        base = meta_regress(y, v, x, method="fixed")
        scaled = meta_regress(y, 4.0 * v, x, method="fixed")
        assert scaled.slope == pytest.approx(base.slope, rel=1e-12)
        assert scaled.slope_se == pytest.approx(2.0 * base.slope_se, rel=1e-12)

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
        t = make_table(bx=0.5, bx_se=0.01, by=[0.30, 0.40] * 5, by_se=0.05,
                       means=[50.0, 56.0] * 5, labels=["a", "b"] * 5)
        res = trend_test(t, method="fixed")
        expected = (0.40 / 0.5 - 0.30 / 0.5) / (56.0 - 50.0)
        assert res.slope == pytest.approx(expected, abs=1e-12)

    def test_slope_is_per_scale_units(self):
        rng = np.random.default_rng(26)
        t = make_table(bx=rng.uniform(0.4, 0.6, 8), bx_se=0.02, by=rng.normal(0.4, 0.05, 8),
                       by_se=0.03, means=8.0 + 0.25 * np.arange(8))
        base, scaled = trend_test(t), trend_test(t.rescaled(10.0))
        assert scaled.slope == pytest.approx(10.0 * base.slope, rel=1e-9)
        assert scaled.tau2 == pytest.approx(100.0 * base.tau2, rel=1e-6, abs=1e-12)
        assert scaled.slope_p == pytest.approx(base.slope_p, rel=1e-9)

    @pytest.mark.parametrize("factor", [1e100, 1e150, 1e-150])
    def test_extreme_scales_match_the_rescaled_trend(self, factor):
        # The variances lie near the ends of the float range; the REML
        # criterion's log terms must neither underflow nor warn.
        rng = np.random.default_rng(26)
        t = make_table(bx=rng.uniform(0.4, 0.6, 8), bx_se=0.02, by=rng.normal(0.4, 0.05, 8),
                       by_se=0.03, means=8.0 + 0.25 * np.arange(8))
        base = trend_test(t)
        assert base.tau2 > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = trend_test(t.rescaled(factor))
        assert scaled.slope == pytest.approx(factor * base.slope, rel=1e-9)
        assert scaled.tau2 == pytest.approx(factor * factor * base.tau2, rel=1e-9)
        assert scaled.slope_p == pytest.approx(base.slope_p, rel=1e-9)
        assert scaled.iterations <= 8

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
            t = make_table(bx, 0.0218, by, by_se, means)
            if trend_test(t, method="reml").slope_p < 0.05:
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
            if trend_test(make_table(bx, 0.0218, by, by_se, means)).slope > 0:
                positive += 1
        assert positive / reps > 0.95


class TestLanes:
    """A stacked call gives each lane the result it gets alone."""

    @pytest.mark.parametrize("method, failure", [("reml", EstimationError),
                                                 ("dl", DomainError), ("fixed", DomainError)])
    def test_each_lane_equals_its_arrays_alone(self, method, failure):
        rng = np.random.default_rng(29)
        lanes = [random_instance(rng, k=k, tau=tau) for k, tau in
                 ((10, 0.05), (5, 0.0), (10, 0.0), (60, 0.1), (5, 0.02))]
        lanes[2:2] = [([1.0, 2.0], [0.1, 0.1], [1.0, 2.0]),  # two contexts
                      ([1e300, -1e300, 1e300, 0.0], [1e-300] * 4, [1.0, 2.0, 3.0, 4.0]),
                      ([1.0, 2.0, 3.0], [0.1] * 3, [5.0, 5.0, 5.0])]  # collinear
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 1e300 * 2^498 overflows
            outcomes = meta_regress_lanes(*zip(*lanes), method=method)
        errors = []
        for lane, outcome in zip(lanes, outcomes):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    expected = meta_regress(*lane, method=method)
            except CtxMRError as err:
                assert (type(outcome), str(outcome)) == (type(err), str(err))
                errors.append(type(err))
            else:
                assert outcome == expected
        assert errors == [ConfigError, failure, ConfigError]

    def test_trend_lanes_equal_each_table_alone(self):
        rng = np.random.default_rng(30)
        tables = [make_table(bx=rng.uniform(0.4, 0.6, k), bx_se=0.02,
                             by=rng.normal(0.4, 0.05, k), by_se=0.03,
                             means=8.0 + 0.25 * np.arange(k)) for k in (8, 8, 4, 8)]
        tables.insert(1, make_table(0.5, 0.02, [0.3, 0.4], 0.05, [8.0, 9.0]))
        outcomes = trend_test_lanes(tables)
        assert isinstance(outcomes[1], ConfigError)
        assert outcomes[:1] + outcomes[2:] == [trend_test(t) for t in tables[:1] + tables[2:]]


def test_batched_oracle_loglik_matches_scalar_loglik():
    rng = np.random.default_rng(28)
    for k in (3, 10, 60):
        y, v, x = random_instance(rng, k=k, tau=0.05)
        grid = np.linspace(0.0, 0.5, 401)
        batched = reml_loglik_grid(grid, y, v, x)
        for tau2, value in zip(grid, batched):
            assert value == pytest.approx(reml_loglik(tau2, y, v, x), rel=1e-12, abs=0.0)
