"""Tests for the linear and logistic association fits."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from ctxmr import regress
from ctxmr.datamodel import partition_by_context
from ctxmr.errors import DomainError, EstimationError, SeparationError
from ctxmr.numerics import gram_inverse
from ctxmr.regress import (
    AssocEstimate,
    design,
    fit_linear,
    fit_logistic,
    fit_logistic_detail,
)
from fixtures import synthetic_cohort
from oracles import fit_logistic_loop, logistic_mle_newton


def _simple_slope(g, y):
    # Closed-form simple regression: cov(g, y) / var(g).
    g = np.asarray(g, float)
    y = np.asarray(y, float)
    gc = g - g.mean()
    return float(gc @ (y - y.mean()) / (gc @ gc))


class TestFitLinear:
    def test_exact_fit_degenerates_to_zero_se(self):
        rng = np.random.default_rng(0)
        g = rng.integers(0, 3, size=100).astype(float)
        est = fit_linear(design(g), 2.0 * g)
        assert est.beta == pytest.approx(2.0, abs=1e-12)
        assert est.se == 0.0
        assert est.degenerate

    def test_matches_closed_form_simple_regression(self):
        rng = np.random.default_rng(1)
        g = np.repeat([0.0, 1.0, 2.0], 200)
        y = g + rng.normal(size=g.size)
        est = fit_linear(design(g), y)
        assert est.beta == pytest.approx(_simple_slope(g, y), abs=1e-10)
        assert est.n == g.size

    def test_recovers_unit_slope_within_four_se(self):
        rng = np.random.default_rng(2)
        g = np.tile([0.0, 1.0, 2.0], 3334)[:10_000]
        y = g + rng.normal(size=g.size)
        est = fit_linear(design(g), y)
        assert abs(est.beta - 1.0) < 4.0 * est.se

    def test_orthogonal_covariate_leaves_beta_unchanged(self):
        # Covariate constructed orthogonal to both the intercept and g.
        g = np.array([0.0, 1.0, 2.0] * 4)
        z = np.tile([1.0, 0.0, -1.0], 4) * np.repeat([1.0, -1.0], 6)
        z -= z.mean()
        z -= (z @ (g - g.mean())) / ((g - g.mean()) @ (g - g.mean())) * (g - g.mean())
        rng = np.random.default_rng(3)
        y = 0.5 * g + rng.normal(size=g.size)
        plain = fit_linear(design(g), y)
        adjusted = fit_linear(design(g, z[:, None]), y)
        assert adjusted.beta == pytest.approx(plain.beta, abs=1e-8)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=500)
        z = rng.normal(size=500)
        y = 0.3 * g + 0.1 * z + rng.normal(size=500)
        est = fit_linear(design(g, z[:, None]), y)
        perm = rng.permutation(500)
        est_p = fit_linear(design(g[perm], z[perm, None]), y[perm])
        assert est_p.beta == pytest.approx(est.beta, abs=1e-10)
        assert est_p.se == pytest.approx(est.se, abs=1e-10)

    def test_response_rescaling_scales_beta_and_se(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=300)
        y = 0.4 * g + rng.normal(size=300)
        est = fit_linear(design(g), y)
        est2 = fit_linear(design(g), 2.0 * y)
        # Doubling is exact in binary floating point.
        assert est2.beta == 2.0 * est.beta
        assert est2.se == 2.0 * est.se
        est_c = fit_linear(design(g), 3.7 * y)
        assert est_c.beta == pytest.approx(3.7 * est.beta, rel=1e-12)
        assert est_c.se == pytest.approx(3.7 * est.se, rel=1e-12)

    def test_errors(self):
        with pytest.raises(DomainError, match="row 2"):
            fit_linear(design(np.arange(4.0)), np.array([1.0, 2.0, np.nan, 4.0]))
        with pytest.raises(DomainError, match="n > p"):
            fit_linear(design(np.arange(2.0)), np.zeros(2))


class TestFitLogistic:
    def test_null_effect_within_four_se(self):
        rng = np.random.default_rng(10)
        g = rng.integers(0, 3, size=10_000).astype(float)
        y = (rng.random(10_000) < 0.5).astype(float)
        est = fit_logistic(design(g), y)
        assert abs(est.beta) < 4.0 * est.se

    def test_recovers_known_log_odds(self):
        rng = np.random.default_rng(11)
        g = rng.integers(0, 3, size=100_000).astype(float)
        logit = -2.0 + 0.3 * g
        y = (rng.random(g.size) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        est = fit_logistic(design(g), y)
        assert abs(est.beta - 0.3) < 4.0 * est.se
        assert est.se < 0.05

    def test_perfect_separation_raises(self):
        g = np.array([0.0, 0.0, 0.0, 2.0, 2.0, 2.0])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_logistic(design(g), y)

    def test_covariate_with_large_mean_is_not_separation(self):
        # Age in years puts the raw intercept near -19 on valid data; the
        # fit must agree with the one on centred age, not raise.
        rng = np.random.default_rng(14)
        n = 20_000
        g = rng.binomial(2, 0.3, n).astype(float)
        age = rng.normal(60.0, 5.0, n)
        logit = -19.0 + 0.3 * age + 0.2 * g
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        raw = fit_logistic_detail(design(g, age[:, None]), y)
        centred = fit_logistic_detail(design(g, age[:, None] - 60.0), y)
        assert raw.coef[0] < -15.0
        assert raw.coef[1:] == pytest.approx(centred.coef[1:], rel=1e-8)
        assert abs(raw.coef[2] - 0.3) < 4.0 * np.sqrt(raw.cov[2, 2])

    def test_uncentred_intercept_and_covariance_match_lstsq(self):
        # At the maximum, the IRLS working regression on the raw columns
        # reproduces the fit; its least-squares solution is the reference
        # for the back-mapped intercept and the first row of cov.
        rng = np.random.default_rng(15)
        n = 400
        g = rng.binomial(2, 0.3, n).astype(float)
        age = rng.normal(1e3, 5.0, n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(-0.5 + 0.3 * g)))).astype(float)
        fit = fit_logistic_detail(design(g, age[:, None]), y)
        X = np.column_stack([np.ones(n), g, age])
        eta = X @ fit.coef
        prob = 1.0 / (1.0 + np.exp(-eta))
        sw = np.sqrt(prob * (1.0 - prob))
        A = X * sw[:, None]
        coef_ref = np.linalg.lstsq(A, sw * eta + (y - prob) / sw, rcond=None)[0]
        pinv = np.linalg.lstsq(A, np.eye(n), rcond=None)[0]
        cov_ref = pinv @ pinv.T
        assert fit.coef[0] == pytest.approx(coef_ref[0], rel=1e-9)
        assert fit.cov[0, :] == pytest.approx(cov_ref[0, :], rel=1e-7)

    def test_single_class_raises(self):
        for y in (np.zeros(20), np.ones(20)):
            with pytest.raises(EstimationError, match="single class"):
                fit_logistic(design(np.arange(20.0)), y)

    def test_non_binary_response_rejected(self):
        for y in ([0.0, 1.0, 2.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.5], [0.5, 0.5, 0.5]):
            with pytest.raises(DomainError, match="0/1"):
                fit_logistic(design(np.arange(3.0)), np.array(y))

    def test_deviance_trace_non_increasing(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=2000)
        z = rng.normal(size=2000)
        logit = -1.0 + 0.8 * g - 0.5 * z
        y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        fit = fit_logistic_detail(design(g, z[:, None]), y)
        trace = fit.deviance_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        assert fit.iterations <= 50

    def test_row_order_invariance(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=3000)
        y = (rng.random(3000) < 1.0 / (1.0 + np.exp(-0.4 * g))).astype(float)
        est = fit_logistic(design(g), y)
        perm = rng.permutation(3000)
        est_p = fit_logistic(design(g[perm]), y[perm])
        assert est_p.beta == pytest.approx(est.beta, abs=1e-8)
        assert est_p.se == pytest.approx(est.se, abs=1e-8)


class TestFusedIrlsPass:
    """One exp pass gives each IRLS step its deviance and its probabilities."""

    SPECIAL_ETA = [-800.0, -40.0, -1e-300, -0.0, 0.0, 1e-300, 40.0, 800.0]

    @staticmethod
    def _eta():
        rng = np.random.default_rng(21)
        return np.concatenate([TestFusedIrlsPass.SPECIAL_ETA, rng.normal(scale=20.0, size=4000),
                               rng.uniform(-750.0, 750.0, size=4000)])

    @staticmethod
    def _check_deviance(eta, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dev, _ = regress._deviance(eta, y)
        want = 2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta)
        assert abs(dev - want) <= 1e-14 * abs(want)

    def test_deviance_matches_logaddexp_at_special_points(self):
        for eta in self.SPECIAL_ETA:
            for y in (0.0, 1.0):
                self._check_deviance(np.array([eta]), np.array([y]))

    def test_deviance_matches_logaddexp_on_random_eta(self):
        eta = self._eta()
        self._check_deviance(eta, (np.random.default_rng(22).random(eta.size) < 0.5) * 1.0)

    def test_probabilities_within_four_ulp(self):
        eta = self._eta()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, prob = regress._deviance(eta, np.zeros(eta.size))
        with np.errstate(over="ignore"):
            odds = np.exp(-eta)
        finite = np.isfinite(odds)
        assert finite.sum() > 4000
        reference = 1.0 / (1.0 + odds[finite])
        assert (np.abs(prob[finite] - reference) <= 4 * np.spacing(reference)).all()
        assert ((prob >= 0.0) & (prob <= 1.0)).all()

    def test_step_halving_weights_come_from_the_accepted_candidate(self, monkeypatch):
        rng = np.random.default_rng(5)
        g = rng.normal(size=500)
        y = (rng.random(500) < 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * g)))).astype(float)
        built = design(g)
        plain = fit_logistic_detail(built, y)
        events = []
        invert, deviance = regress.gram_inverse, regress._deviance

        def overshooting_inverse(gram):
            events.append(("factor", gram.copy()))
            cov = invert(gram)
            # The Newton step is cov @ score: the first one overshoots
            # eightfold, so the deviance rises and it is halved.
            return 8.0 * cov if len(events) == 1 else cov

        def recording_deviance(eta, y, out):
            events.append(("deviance", eta.copy()))
            return deviance(eta, y, out)

        monkeypatch.setattr(regress, "gram_inverse", overshooting_inverse)
        monkeypatch.setattr(regress, "_deviance", recording_deviance)
        fit = fit_logistic_detail(built, y)
        kinds = [kind for kind, _ in events]
        # The start is scored without a pass over the rows.
        assert kinds[0] == "factor"
        second = kinds.index("factor", 1)
        assert second > 2  # the overshooting candidate was halved at least once
        start = np.full(y.size, np.log(y.mean() / (1.0 - y.mean())))
        for at, (kind, gram) in enumerate(events):
            if kind == "factor":
                # The constant start, then the last candidate evaluated: the accepted one.
                eta = start if at == 0 else events[at - 1][1]
                prob = 1.0 / (1.0 + np.exp(-eta))
                w = np.maximum(prob * (1.0 - prob), 1e-10)
                want = built.X.T @ (built.X * w[:, None])
                # Off the diagonal an entry can be a rounding-level zero.
                np.testing.assert_allclose(gram, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(fit.coef, plain.coef, rtol=1e-8)


    def test_a_fit_without_halving_makes_one_deviance_pass_per_scored_step(self, monkeypatch):
        ds = synthetic_cohort(7)
        built = design(ds.instrument, ds.covariates)
        calls = []
        deviance = regress._deviance

        def counting_deviance(eta, y, out):
            calls.append(eta.size)
            return deviance(eta, y, out)

        monkeypatch.setattr(regress, "_deviance", counting_deviance)
        fit = fit_logistic_detail(built, ds.outcome)
        # Five steps, none halved: neither the start nor the final step
        # (below the tolerance) is scored, so the steps between make four.
        assert fit.iterations == 5
        assert len(fit.deviance_trace) == 5
        assert calls == [len(ds)] * 4


class TestLogisticOracle:
    """The Newton fit against plain Newton-Raphson from zero (``oracles``)."""

    @staticmethod
    def _check(g, z, y):
        fit = fit_logistic_detail(design(g, z[:, None]), y)
        coef, cov = logistic_mle_newton(np.column_stack([np.ones(g.size), g, z]), y)
        np.testing.assert_allclose(fit.coef, coef, rtol=1e-9)
        np.testing.assert_allclose(fit.cov, cov, rtol=1e-9)

    @staticmethod
    def _data(seed, n, intercept, offset=0.0):
        rng = np.random.default_rng(seed)
        g = rng.binomial(2, 0.3, n).astype(float)
        z = offset + rng.normal(size=n)
        logit = intercept + 0.3 * g + 0.2 * (z - offset)
        return g, z, (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)

    def test_balanced_outcome(self):
        g, z, y = self._data(31, 5000, -0.1)
        assert 0.4 < y.mean() < 0.6
        self._check(g, z, y)

    def test_rare_outcome(self):
        g, z, y = self._data(32, 20_000, -6.5)
        assert 0.001 < y.mean() < 0.003
        self._check(g, z, y)

    def test_covariate_mean_of_a_million(self):
        self._check(*self._data(33, 5000, -0.4, offset=1e6))

    def test_equals_the_loop_that_scores_every_iterate_on_the_cohort(self):
        for seed in (7, 8):
            for label, ctx in partition_by_context(synthetic_cohort(seed)).contexts:
                built = design(ctx.instrument, ctx.covariates)
                fit = fit_logistic_detail(built, ctx.outcome)
                coef, cov, iterations, trace = fit_logistic_loop(
                    built.X, built.center, ctx.outcome, gram_inverse)
                assert (fit.coef == coef).all(), label
                assert (fit.cov == cov).all(), label
                assert fit.iterations == iterations, label
                # The trace stops before the final, unscored iterate; the
                # start's deviance is summed from the count of ones.
                assert fit.deviance_trace[1:] == tuple(trace[1:-1]), label
                assert fit.deviance_trace[0] == pytest.approx(trace[0], rel=1e-12), label

    def test_at_most_six_steps_on_the_cohort(self):
        for label, ctx in partition_by_context(synthetic_cohort(7)).contexts:
            fit = fit_logistic_detail(design(ctx.instrument, ctx.covariates), ctx.outcome)
            assert fit.iterations <= 6, label


@pytest.mark.parametrize("offset", [1e3, 1e6])
class TestCovariateFarFromZero:
    """Centring inside the fits: a covariate's offset changes nothing but the intercept."""

    @staticmethod
    def _data(offset, logistic):
        rng = np.random.default_rng(16)
        n = 3000
        g = rng.binomial(2, 0.3, n).astype(float)
        z = offset + rng.normal(size=n)
        zc = z - z.mean()
        logit = -0.4 + 0.3 * g + 0.2 * zc
        if logistic:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        else:
            y = logit + rng.normal(size=n)
        return y, design(g, z[:, None]), design(g, zc[:, None])

    def test_linear_matches_precentred_fit(self, offset):
        y, raw, centred = self._data(offset, logistic=False)
        a, b = fit_linear(raw, y), fit_linear(centred, y)
        assert a.beta == pytest.approx(b.beta, rel=1e-10)
        assert a.se == pytest.approx(b.se, rel=1e-10)

    def test_logistic_matches_precentred_fit(self, offset):
        y, raw, centred = self._data(offset, logistic=True)
        a, b = fit_logistic_detail(raw, y), fit_logistic_detail(centred, y)
        assert a.coef[1:] == pytest.approx(b.coef[1:], rel=1e-10)
        assert a.cov[1:, 1:] == pytest.approx(b.cov[1:, 1:], rel=1e-10)
        # Only the intercept moves: to the linear predictor at z = 0.
        mean = raw.center[1]  # the mean of z
        assert a.coef[0] == pytest.approx(b.coef[0] - mean * b.coef[2], rel=1e-10)


class TestDesignAndEstimate:
    def test_design_is_intercept_then_centred_columns(self):
        g, z = np.array([0.0, 1.0, 2.0, 1.0]), np.array([10.0, 11.0, 13.0, 14.0])
        built = design(g, z[:, None])
        assert built.center.tolist() == [1.0, 12.0]
        assert built.X.tolist() == [[1.0, -1.0, -2.0], [1.0, 0.0, -1.0],
                                    [1.0, 1.0, 1.0], [1.0, 0.0, 2.0]]
        assert built.X.flags.f_contiguous

    def test_design_errors(self):
        with pytest.raises(DomainError, match="'covariate 1' at row 3"):
            design(np.arange(5.0), np.column_stack([np.ones(5), [0, 1, 2, np.inf, 4]]))
        with pytest.raises(DomainError, match="'predictor' at row 0"):
            design(np.array([np.nan, 1.0, 2.0]))
        with pytest.raises(DomainError, match="covariates have shape"):
            design(np.arange(4.0), np.ones(4))
        with pytest.raises(DomainError, match="response has shape"):
            fit_linear(design(np.arange(4.0)), np.ones(3))
        with pytest.raises(DomainError, match="at least as many rows"):
            design(np.arange(2.0), np.ones((2, 1)))

    def test_estimate_validation(self):
        with pytest.raises(DomainError):
            AssocEstimate(beta=float("nan"), se=1.0, n=10)
        with pytest.raises(DomainError):
            AssocEstimate(beta=0.0, se=-1.0, n=10)
        with pytest.raises(DomainError):
            AssocEstimate(beta=0.0, se=1.0, n=1)
