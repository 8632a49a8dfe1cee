"""Tests for per-context ratio estimates and IVW pooling."""

from __future__ import annotations

import numpy as np
import pytest

from ctxmr import ivcore, regress
from ctxmr.datamodel import Dataset
from ctxmr.errors import ConfigError, DomainError, EstimationError
from ctxmr.heterogeneity import q_first_order
from ctxmr.ivcore import ContextTable, context_iv, ivw_pool


def make_table(bx, bx_se, by, by_se, mean=50.0, n=1000):
    """A context table of equal-length columns (scalars broadcast), labelled 0, 1, ..."""
    cols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=float))
                                 for c in (bx, bx_se, by, by_se, mean)))
    labels = [str(i) for i in range(cols[0].size)]
    return ContextTable.from_columns(labels, *cols, np.full(cols[0].size, n))


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
        t = make_table(bx=0.5, bx_se=0.01, by=0.4, by_se=0.1)
        assert t.ratio[0] == pytest.approx(0.8)
        assert t.ratio_se[0] == pytest.approx(0.2)

    def test_zero_outcome_association_gives_zero_ratio(self):
        t = make_table(bx=0.7, bx_se=0.01, by=0.0, by_se=0.1)
        assert t.ratio[0] == 0.0

    def test_recovers_linear_effect_within_four_se(self):
        ds = _one_context_dataset(np.random.default_rng(42))
        r = context_iv("1", ds)
        assert (r.n, r.exposure_mean) == (len(ds), float(ds.exposure.mean()))
        assert abs(r.by.beta / r.bx.beta - 0.8) < 4.0 * r.by.se / abs(r.bx.beta)
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
        r = context_iv("1", ds)
        assert r.warnings and "weak instrument" in r.warnings[0]

    def test_zero_bx_is_hard_error(self):
        ds = _one_context_dataset(np.random.default_rng(44), n=200)
        ds = Dataset(
            instrument=ds.instrument,
            exposure=np.full(len(ds), 9.0),  # no association with the instrument
            outcome=ds.outcome,
            context=ds.context,
            covariates=ds.covariates,
        )
        with pytest.warns(Warning), pytest.raises(EstimationError):
            context_iv("1", ds)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_both_fits_share_one_design(self, monkeypatch, family):
        rng = np.random.default_rng(46)
        ds = _one_context_dataset(rng, n=1000)
        ds = Dataset(instrument=ds.instrument, exposure=ds.exposure,
                     outcome=(ds.outcome > ds.outcome.mean()) * 1.0, context=ds.context,
                     covariates=rng.standard_normal((1000, 2)), covariate_names=("a", "b"))
        built, fitted = [], []

        def counting_design(*args):
            built.append(regress.design(*args))
            return built[-1]

        def recording(fit):
            def wrapped(design, y):
                fitted.append(design)
                return fit(design, y)
            return wrapped

        monkeypatch.setattr(ivcore, "design", counting_design)
        monkeypatch.setattr(ivcore, "fit_linear", recording(ivcore.fit_linear))
        monkeypatch.setattr(ivcore, "fit_logistic", recording(ivcore.fit_logistic))
        context_iv("1", ds, family)
        assert len(built) == 1
        assert len(fitted) == 2 and all(d is built[0] for d in fitted)

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError, match="family"):
            context_iv("1", _one_context_dataset(np.random.default_rng(47), n=200), "probit")


class TestContextTable:
    def test_rows_ordered_by_mean_then_label(self):
        t = ContextTable.from_columns(
            ["b", "c", "a", "d"], [1.0, 2.0, 3.0, 4.0], [0.1] * 4, [1.0] * 4, [0.5] * 4,
            [9.0, 8.0, 9.0, 7.5], [100, 200, 300, 400],
        )
        assert t.labels.tolist() == ["d", "c", "a", "b"]
        assert t.bx.tolist() == [4.0, 2.0, 3.0, 1.0]
        assert t.n.tolist() == [400, 200, 300, 100]

    def test_from_results_matches_from_columns(self):
        rng = np.random.default_rng(45)
        results = [
            context_iv(str(j), _one_context_dataset(rng, n=500, alpha=9.0 - j))
            for j in range(3)
        ]
        t = ContextTable.from_results(results)
        assert t.labels.tolist() == ["2", "1", "0"]
        assert t.by.tolist() == [r.by.beta for r in reversed(results)]
        assert t.xmean.tolist() == [r.exposure_mean for r in reversed(results)]

    def test_unequal_columns_rejected(self):
        with pytest.raises(DomainError):
            ContextTable.from_columns(["a", "b"], [1.0], [0.1], [1.0], [0.5], [9.0], [100])


class TestIvwPool:
    def test_requires_two_contexts(self):
        with pytest.raises(ConfigError):
            ivw_pool(make_table(1.0, 0.0, 1.0, 1.0))

    def test_identical_contexts_pool_to_common_ratio(self):
        pooled = ivw_pool(make_table(bx=[0.5, 0.5], bx_se=0.01, by=[0.4, 0.4], by_se=0.1))
        assert pooled.beta == pytest.approx(0.8)
        assert pooled.k == 2

    def test_hand_example(self):
        pooled = ivw_pool(make_table(bx=[1.0, 1.0], bx_se=0.0, by=[1.0, 2.0], by_se=1.0))
        assert pooled.beta == pytest.approx(1.5)
        assert pooled.se == pytest.approx(2.0**-0.5)

    def test_pooled_beta_within_ratio_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = make_table(bx=rng.uniform(0.3, 1.0, 6), bx_se=0.01,
                           by=rng.normal(scale=0.5, size=6), by_se=rng.uniform(0.05, 0.3, 6))
            pooled = ivw_pool(t)
            assert t.ratio.min() - 1e-12 <= pooled.beta <= t.ratio.max() + 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        bx = rng.uniform(0.3, 1.0, 8)
        by = rng.normal(scale=0.5, size=8)
        by_se = rng.uniform(0.05, 0.3, 8)
        a = ivw_pool(make_table(bx, 0.01, by, by_se))
        b = ivw_pool(make_table(bx[::-1], 0.01, by[::-1], by_se[::-1]))
        assert a.beta == pytest.approx(b.beta, abs=1e-12)

    def test_dominant_weight_limit(self):
        t = make_table(bx=[1.0, 1.0], bx_se=0.0, by=[0.25, 5.0], by_se=[1e-4, 1.0])
        pooled = ivw_pool(t)
        assert pooled.beta == pytest.approx(0.25, rel=1e-6)


class TestRescale:
    def test_per_ten_unit_scaling(self):
        t = make_table(bx=0.5, bx_se=0.01, by=0.02, by_se=0.005)
        scaled = t.rescaled(10.0)
        by, by_se = scaled.outcome()
        assert by[0] == pytest.approx(0.2)
        assert by_se[0] == pytest.approx(0.05)
        assert scaled.ratio[0] == pytest.approx(0.4)
        assert scaled.ratio_se[0] == pytest.approx(0.1)
        assert (scaled.bx, scaled.by) == (t.bx, t.by)

    def test_identity(self):
        t = make_table(bx=0.5, bx_se=0.01, by=0.4, by_se=0.1)
        same = t.rescaled(1.0)
        assert same.scale == 1.0
        assert same.ratio.tolist() == t.ratio.tolist()
        assert [c.tolist() for c in same.outcome()] == [c.tolist() for c in t.outcome()]

    def test_nonpositive_factor_rejected(self):
        t = make_table(bx=0.5, bx_se=0.01, by=0.1, by_se=0.1)
        for factor in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                t.rescaled(factor)

    def test_first_order_q_invariant_under_rescaling(self):
        rng = np.random.default_rng(5)
        t = make_table(bx=rng.uniform(0.4, 0.6, 10), bx_se=0.02,
                       by=rng.normal(0.4, 0.05, 10), by_se=rng.uniform(0.01, 0.05, 10))
        q_raw = q_first_order(t).q
        q_scaled = q_first_order(t.rescaled(10.0)).q
        assert q_scaled == pytest.approx(q_raw, abs=1e-10)
