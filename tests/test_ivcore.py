"""Tests for per-context ratio estimates and IVW pooling."""

from __future__ import annotations

import numpy as np
import pytest

from ctxmr.datamodel import Dataset
from ctxmr.errors import ConfigError, DomainError, EstimationError
from ctxmr.heterogeneity import q_first_order
from ctxmr.ivcore import ContextResult, context_iv, ivw_pool, rescale_estimate
from ctxmr.regress import RegressionSpec

EXPOSURE_SPEC = RegressionSpec(response="exposure", predictor="instrument")
OUTCOME_SPEC = RegressionSpec(response="outcome", predictor="instrument")


def make_result(context, bx, bx_se, by, by_se, mean=50.0, n=1000):
    return ContextResult.from_summary_stats(
        context, bx=bx, bx_se=bx_se, by=by, by_se=by_se, exposure_mean=mean, n=n
    )


def _one_context_dataset(rng, n=10_000, alpha=9.0, slope=0.8):
    g = (rng.random(n) < 0.3).astype(float) + (rng.random(n) < 0.3)
    u = rng.standard_normal(n)
    x = alpha + 0.5 * g + u + rng.standard_normal(n)
    y = slope * x - u + rng.standard_normal(n)
    return Dataset(
        instrument=g,
        exposure=x,
        outcome=y,
        context=np.asarray(["1"] * n, dtype=object),
        covariates=np.empty((n, 0)),
    )


class TestContextIv:
    def test_ratio_arithmetic(self):
        r = make_result("a", bx=0.5, bx_se=0.01, by=0.4, by_se=0.1)
        assert r.ratio == pytest.approx(0.8)
        assert r.ratio_se_first_order == pytest.approx(0.2)

    def test_zero_outcome_association_gives_zero_ratio(self):
        r = make_result("a", bx=0.7, bx_se=0.01, by=0.0, by_se=0.1)
        assert r.ratio == 0.0

    def test_recovers_linear_effect_within_four_se(self):
        ds = _one_context_dataset(np.random.default_rng(42))
        r = context_iv("1", ds, EXPOSURE_SPEC, OUTCOME_SPEC)
        assert abs(r.ratio - 0.8) < 4.0 * r.ratio_se_first_order
        assert not r.warnings

    def test_weak_instrument_warns_but_succeeds(self):
        rng = np.random.default_rng(43)
        ds = _one_context_dataset(rng, n=2000)
        ds = Dataset(
            instrument=rng.standard_normal(2000),  # unrelated instrument
            exposure=ds.exposure,
            outcome=ds.outcome,
            context=ds.context,
            covariates=ds.covariates,
        )
        r = context_iv("1", ds, EXPOSURE_SPEC, OUTCOME_SPEC)
        assert r.warnings and "weak instrument" in r.warnings[0]

    def test_zero_bx_is_hard_error(self):
        with pytest.raises(EstimationError):
            make_result("a", bx=0.0, bx_se=0.01, by=0.1, by_se=0.1)


class TestIvwPool:
    def test_requires_two_contexts(self):
        with pytest.raises(ConfigError):
            ivw_pool([make_result("a", 1.0, 0.0, 1.0, 1.0)])

    def test_identical_contexts_pool_to_common_ratio(self):
        r = make_result("a", bx=0.5, bx_se=0.01, by=0.4, by_se=0.1)
        pooled = ivw_pool([r, r])
        assert pooled.beta == pytest.approx(0.8)
        assert pooled.k == 2

    def test_hand_example(self):
        rs = [
            make_result("a", bx=1.0, bx_se=0.0, by=1.0, by_se=1.0),
            make_result("b", bx=1.0, bx_se=0.0, by=2.0, by_se=1.0),
        ]
        pooled = ivw_pool(rs)
        assert pooled.beta == pytest.approx(1.5)
        assert pooled.se == pytest.approx(2.0**-0.5)

    def test_pooled_beta_within_ratio_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rs = [
                make_result(str(i), bx=rng.uniform(0.3, 1.0), bx_se=0.01,
                            by=rng.normal(scale=0.5), by_se=rng.uniform(0.05, 0.3))
                for i in range(6)
            ]
            pooled = ivw_pool(rs)
            ratios = [r.ratio for r in rs]
            assert min(ratios) - 1e-12 <= pooled.beta <= max(ratios) + 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        rs = [
            make_result(str(i), bx=rng.uniform(0.3, 1.0), bx_se=0.01,
                        by=rng.normal(scale=0.5), by_se=rng.uniform(0.05, 0.3))
            for i in range(8)
        ]
        a = ivw_pool(rs)
        b = ivw_pool(list(reversed(rs)))
        assert a.beta == pytest.approx(b.beta, abs=1e-12)

    def test_dominant_weight_limit(self):
        heavy = make_result("a", bx=1.0, bx_se=0.0, by=0.25, by_se=1e-4)
        light = make_result("b", bx=1.0, bx_se=0.0, by=5.0, by_se=1.0)
        pooled = ivw_pool([heavy, light])
        assert pooled.beta == pytest.approx(heavy.ratio, rel=1e-6)


class TestRescale:
    def test_per_ten_unit_scaling(self):
        r = make_result("a", bx=0.5, bx_se=0.01, by=0.02, by_se=0.005)
        scaled = rescale_estimate(r, 10.0)
        assert scaled.by.beta == pytest.approx(0.2)
        assert scaled.by.se == pytest.approx(0.05)
        assert scaled.ratio == pytest.approx(0.4)
        assert scaled.ratio_se_first_order == pytest.approx(0.1)
        assert scaled.bx == r.bx

    def test_identity(self):
        r = make_result("a", bx=0.5, bx_se=0.01, by=0.4, by_se=0.1)
        assert rescale_estimate(r, 1.0) == r

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(DomainError):
            rescale_estimate(make_result("a", bx=0.5, bx_se=0.01, by=0.1, by_se=0.1), 0.0)

    def test_first_order_q_invariant_under_rescaling(self):
        rng = np.random.default_rng(5)
        rs = [
            make_result(str(i), bx=rng.uniform(0.4, 0.6), bx_se=0.02,
                        by=rng.normal(0.4, 0.05), by_se=rng.uniform(0.01, 0.05))
            for i in range(10)
        ]
        q_raw = q_first_order(rs).q
        q_scaled = q_first_order([rescale_estimate(r, 10.0) for r in rs]).q
        assert q_scaled == pytest.approx(q_raw, abs=1e-10)
