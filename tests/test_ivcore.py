"""Tests for per-context ratio estimates, the context table and the IVW pooled estimate."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from ctxmr import ivcore, regress
from ctxmr.datamodel import Dataset
from ctxmr.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EstimationError,
    RankDeficiencyError,
)
from ctxmr.heterogeneity import q_first_order
from ctxmr.ivcore import ContextTable, context_iv
from ctxmr.report import analyze_summary_results

from fixtures import context_table


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
        bx, by, n, xmean = context_iv("1", ds)
        assert (n, xmean) == (len(ds), float(ds.exposure.mean()))
        assert abs(by.beta / bx.beta - 0.8) < 4.0 * by.se / abs(bx.beta)

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
        table = context_table([("1", ds), ("2", _one_context_dataset(rng, alpha=9.5))])
        report = analyze_summary_results(table)
        assert report.contexts["context"] == ("1", "2")
        (note,) = [w for w in report.warnings if "weak instrument" in w]
        assert note.startswith("context '1': weak instrument (|bx|/se = ")

    def test_zero_bx_is_hard_error(self):
        ds = _one_context_dataset(np.random.default_rng(44), n=200)
        ds = Dataset(
            instrument=ds.instrument,
            exposure=np.full(len(ds), 9.0),  # no association with the instrument
            outcome=ds.outcome,
            context=ds.context,
            covariates=ds.covariates,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the exact fit is flagged, not warned about
            bx = context_iv("1", ds)[0]
        assert bx.degenerate and bx.se == 0.0
        with pytest.raises(EstimationError, match="context '1': instrument-exposure association"):
            context_table([("1", ds)])

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

    def test_a_rank_error_of_the_fits_names_the_context_and_keeps_its_column(self):
        ds = _one_context_dataset(np.random.default_rng(48), n=200)
        ds = Dataset(instrument=ds.instrument, exposure=ds.exposure, outcome=ds.outcome,
                     context=ds.context, covariates=2.0 * ds.instrument[:, None],
                     covariate_names=("dose",))
        with pytest.raises(RankDeficiencyError) as caught:
            context_iv("c7", ds)
        assert str(caught.value) == (
            "context 'c7': design matrix is rank deficient at column 2 (covariate 'dose')")
        assert caught.value.column == 2

    def test_a_convergence_error_of_the_fits_names_the_context_and_keeps_its_trace(
            self, monkeypatch):
        def stalled(design, y):
            raise ConvergenceError("IRLS did not converge in 50 iterations", trace=(9.0, 8.5))

        monkeypatch.setattr(ivcore, "fit_logistic", stalled)
        ds = _one_context_dataset(np.random.default_rng(49), n=200)
        with pytest.raises(ConvergenceError) as caught:
            context_iv("c7", ds, "logistic")
        assert str(caught.value) == "context 'c7': IRLS did not converge in 50 iterations"
        assert caught.value.trace == (9.0, 8.5)


class TestContextTable:
    def test_rows_ordered_by_mean_then_label(self):
        t = ContextTable.from_columns(
            ["b", "c", "a", "d"], [1.0, 2.0, 3.0, 4.0], [0.1] * 4, [1.0] * 4, [0.5] * 4,
            [9.0, 8.0, 9.0, 7.5], [100, 200, 300, 400],
        )
        assert t.labels.tolist() == ["d", "c", "a", "b"]
        assert t.bx.tolist() == [4.0, 2.0, 3.0, 1.0]
        assert t.n.tolist() == [400, 200, 300, 100]

    def test_context_iv_fits_enter_the_table_by_mean_exposure(self):
        rng = np.random.default_rng(45)
        contexts = [(str(j), _one_context_dataset(rng, n=500, alpha=9.0 - j)) for j in range(3)]
        fits = [context_iv(label, sub) for label, sub in contexts]
        t = context_table(contexts)
        assert t.labels.tolist() == ["2", "1", "0"]
        assert t.by.tolist() == [by.beta for _, by, _, _ in reversed(fits)]
        assert t.xmean.tolist() == [xmean for *_, xmean in reversed(fits)]

    @pytest.mark.parametrize("bx", [0.0, -1e-13, float("nan")])
    def test_zero_or_nan_bx_is_refused(self, bx):
        with pytest.raises(EstimationError) as caught:
            ContextTable.from_columns(["a", "b", "c"], [0.5, bx, 0.0], [0.1] * 3, [1.0] * 3,
                                      [0.5] * 3, [9.0, 8.0, 7.0], [100] * 3)
        assert str(caught.value) == (f"context 'b': instrument-exposure association "
                                     f"{bx:.3e} is indistinguishable from zero")

    def test_unequal_columns_rejected(self):
        with pytest.raises(DomainError):
            ContextTable.from_columns(["a", "b"], [1.0], [0.1], [1.0], [0.5], [9.0], [100])


def closed_form_ivw(t):
    """The IVW estimate sum(by bx / se(by)^2) / sum(bx^2 / se(by)^2), per ``t.scale`` units."""
    by, by_se = t.by * t.scale, t.by_se * t.scale
    return float(np.sum(by * t.bx / by_se**2) / np.sum(t.bx**2 / by_se**2))


class TestIvwPool:
    """The IVW pooled estimate, which the first-order Q reports as ``pooled_beta``."""

    def test_requires_two_contexts(self):
        with pytest.raises(ConfigError):
            q_first_order(make_table(1.0, 0.0, 1.0, 1.0))

    def test_identical_contexts_pool_to_common_ratio(self):
        t = make_table(bx=[0.5, 0.5], bx_se=0.01, by=[0.4, 0.4], by_se=0.1)
        assert q_first_order(t).pooled_beta == pytest.approx(0.8, rel=1e-12)

    def test_hand_example(self):
        t = make_table(bx=[1.0, 1.0], bx_se=0.0, by=[1.0, 2.0], by_se=1.0)
        assert q_first_order(t).pooled_beta == 1.5

    def test_matches_closed_form(self):
        rng = np.random.default_rng(2)
        for k in (2, 3, 10, 40):
            size = rng.uniform(0.05, 1.0, k)
            t = make_table(bx=np.where(rng.random(k) < 0.3, -size, size), bx_se=0.01,
                           by=rng.normal(scale=0.5, size=k), by_se=rng.uniform(0.005, 0.3, k))
            assert q_first_order(t).pooled_beta == pytest.approx(closed_form_ivw(t), rel=1e-12)

    def test_scales_with_the_scale(self):
        rng = np.random.default_rng(6)
        t = make_table(bx=rng.uniform(0.3, 1.0, 8), bx_se=0.01,
                       by=rng.normal(scale=0.5, size=8), by_se=rng.uniform(0.05, 0.3, 8))
        beta = q_first_order(t).pooled_beta
        for factor in (1e-3, 10.0, 1e6):
            scaled = t.rescaled(factor)
            pooled = q_first_order(scaled).pooled_beta
            assert pooled == pytest.approx(closed_form_ivw(scaled), rel=1e-12)
            assert pooled == pytest.approx(factor * beta, rel=1e-12)

    def test_pooled_beta_within_ratio_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = make_table(bx=rng.uniform(0.3, 1.0, 6), bx_se=0.01,
                           by=rng.normal(scale=0.5, size=6), by_se=rng.uniform(0.05, 0.3, 6))
            pooled = q_first_order(t).pooled_beta
            assert t.ratio.min() - 1e-12 <= pooled <= t.ratio.max() + 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        bx = rng.uniform(0.3, 1.0, 8)
        by = rng.normal(scale=0.5, size=8)
        by_se = rng.uniform(0.05, 0.3, 8)
        a = q_first_order(make_table(bx, 0.01, by, by_se))
        b = q_first_order(make_table(bx[::-1], 0.01, by[::-1], by_se[::-1]))
        assert a.pooled_beta == pytest.approx(b.pooled_beta, abs=1e-12)
        assert a.pooled_beta == pytest.approx(closed_form_ivw(make_table(bx, 0.01, by, by_se)),
                                              rel=1e-12)

    def test_dominant_weight_limit(self):
        t = make_table(bx=[1.0, 1.0], bx_se=0.0, by=[0.25, 5.0], by_se=[1e-4, 1.0])
        assert q_first_order(t).pooled_beta == pytest.approx(0.25, rel=1e-6)

    def test_weight_sum_beyond_the_float_range_is_an_estimation_error(self):
        t = make_table(bx=[0.5, 0.5], bx_se=0.01, by=[0.4, 0.3], by_se=1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError,
                               match=r"IVW pooled estimate is nan \(weight sum inf\)"):
                q_first_order(t)


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
