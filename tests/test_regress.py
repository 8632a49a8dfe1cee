"""Tests for the linear and logistic association fits."""

from __future__ import annotations

import numpy as np
import pytest

from ctxmr.errors import DegenerateFitWarning, DomainError, EstimationError, SeparationError
from ctxmr.regress import (
    AssocEstimate,
    RegressionSpec,
    fit_linear,
    fit_logistic,
    fit_logistic_detail,
)

LINEAR = RegressionSpec(response="y", predictor="g", family="linear")
LOGISTIC = RegressionSpec(response="y", predictor="g", family="logistic")


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
        with pytest.warns(DegenerateFitWarning):
            est = fit_linear({"y": 2.0 * g, "g": g}, LINEAR)
        assert est.beta == pytest.approx(2.0, abs=1e-12)
        assert est.se == 0.0
        assert est.degenerate

    def test_matches_closed_form_simple_regression(self):
        rng = np.random.default_rng(1)
        g = np.repeat([0.0, 1.0, 2.0], 200)
        y = g + rng.normal(size=g.size)
        est = fit_linear({"y": y, "g": g}, LINEAR)
        assert est.beta == pytest.approx(_simple_slope(g, y), abs=1e-10)
        assert est.n == g.size

    def test_recovers_unit_slope_within_four_se(self):
        rng = np.random.default_rng(2)
        g = np.tile([0.0, 1.0, 2.0], 3334)[:10_000]
        y = g + rng.normal(size=g.size)
        est = fit_linear({"y": y, "g": g}, LINEAR)
        assert abs(est.beta - 1.0) < 4.0 * est.se

    def test_orthogonal_covariate_leaves_beta_unchanged(self):
        # Covariate constructed orthogonal to both the intercept and g.
        g = np.array([0.0, 1.0, 2.0] * 4)
        z = np.tile([1.0, 0.0, -1.0], 4) * np.repeat([1.0, -1.0], 6)
        z -= z.mean()
        z -= (z @ (g - g.mean())) / ((g - g.mean()) @ (g - g.mean())) * (g - g.mean())
        rng = np.random.default_rng(3)
        y = 0.5 * g + rng.normal(size=g.size)
        plain = fit_linear({"y": y, "g": g}, LINEAR)
        spec = RegressionSpec(response="y", predictor="g", covariates=("z",))
        adjusted = fit_linear({"y": y, "g": g, "z": z}, spec)
        assert adjusted.beta == pytest.approx(plain.beta, abs=1e-8)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=500)
        z = rng.normal(size=500)
        y = 0.3 * g + 0.1 * z + rng.normal(size=500)
        spec = RegressionSpec(response="y", predictor="g", covariates=("z",))
        est = fit_linear({"y": y, "g": g, "z": z}, spec)
        perm = rng.permutation(500)
        est_p = fit_linear({"y": y[perm], "g": g[perm], "z": z[perm]}, spec)
        assert est_p.beta == pytest.approx(est.beta, abs=1e-10)
        assert est_p.se == pytest.approx(est.se, abs=1e-10)

    def test_response_rescaling_scales_beta_and_se(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=300)
        y = 0.4 * g + rng.normal(size=300)
        est = fit_linear({"y": y, "g": g}, LINEAR)
        est2 = fit_linear({"y": 2.0 * y, "g": g}, LINEAR)
        # Doubling is exact in binary floating point.
        assert est2.beta == 2.0 * est.beta
        assert est2.se == 2.0 * est.se
        est_c = fit_linear({"y": 3.7 * y, "g": g}, LINEAR)
        assert est_c.beta == pytest.approx(3.7 * est.beta, rel=1e-12)
        assert est_c.se == pytest.approx(3.7 * est.se, rel=1e-12)

    def test_errors(self):
        with pytest.raises(DomainError, match="row 2"):
            fit_linear({"y": np.array([1.0, 2.0, np.nan, 4.0]), "g": np.arange(4.0)}, LINEAR)
        with pytest.raises(DomainError, match="n > p"):
            fit_linear({"y": np.zeros(2), "g": np.arange(2.0)}, LINEAR)
        with pytest.raises(DomainError, match="family"):
            fit_linear({"y": np.zeros(3), "g": np.arange(3.0)}, LOGISTIC)


class TestFitLogistic:
    def test_null_effect_within_four_se(self):
        rng = np.random.default_rng(10)
        g = rng.integers(0, 3, size=10_000).astype(float)
        y = (rng.random(10_000) < 0.5).astype(float)
        est = fit_logistic({"y": y, "g": g}, LOGISTIC)
        assert abs(est.beta) < 4.0 * est.se

    def test_recovers_known_log_odds(self):
        rng = np.random.default_rng(11)
        g = rng.integers(0, 3, size=100_000).astype(float)
        logit = -2.0 + 0.3 * g
        y = (rng.random(g.size) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        est = fit_logistic({"y": y, "g": g}, LOGISTIC)
        assert abs(est.beta - 0.3) < 4.0 * est.se
        assert est.se < 0.05

    def test_perfect_separation_raises(self):
        g = np.array([0.0, 0.0, 0.0, 2.0, 2.0, 2.0])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_logistic({"y": y, "g": g}, LOGISTIC)

    def test_covariate_with_large_mean_is_not_separation(self):
        # Age in years puts the raw intercept near -19 on valid data; the
        # fit must agree with the one on centred age, not raise.
        rng = np.random.default_rng(14)
        n = 20_000
        g = rng.binomial(2, 0.3, n).astype(float)
        age = rng.normal(60.0, 5.0, n)
        logit = -19.0 + 0.3 * age + 0.2 * g
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        spec = RegressionSpec(response="y", predictor="g", covariates=("age",),
                              family="logistic")
        raw = fit_logistic_detail({"y": y, "g": g, "age": age}, spec)
        centred = fit_logistic_detail({"y": y, "g": g, "age": age - 60.0}, spec)
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
        spec = RegressionSpec(response="y", predictor="g", covariates=("age",),
                              family="logistic")
        fit = fit_logistic_detail({"y": y, "g": g, "age": age}, spec)
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
        with pytest.raises(EstimationError, match="single class"):
            fit_logistic({"y": np.zeros(20), "g": np.arange(20.0)}, LOGISTIC)

    def test_non_binary_response_rejected(self):
        with pytest.raises(DomainError, match="0/1"):
            fit_logistic({"y": np.array([0.0, 1.0, 2.0]), "g": np.arange(3.0)}, LOGISTIC)

    def test_deviance_trace_non_increasing(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=2000)
        z = rng.normal(size=2000)
        logit = -1.0 + 0.8 * g - 0.5 * z
        y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        spec = RegressionSpec(response="y", predictor="g", covariates=("z",), family="logistic")
        fit = fit_logistic_detail({"y": y, "g": g, "z": z}, spec)
        trace = fit.deviance_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        assert fit.iterations <= 50

    def test_row_order_invariance(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=3000)
        y = (rng.random(3000) < 1.0 / (1.0 + np.exp(-0.4 * g))).astype(float)
        est = fit_logistic({"y": y, "g": g}, LOGISTIC)
        perm = rng.permutation(3000)
        est_p = fit_logistic({"y": y[perm], "g": g[perm]}, LOGISTIC)
        assert est_p.beta == pytest.approx(est.beta, abs=1e-8)
        assert est_p.se == pytest.approx(est.se, abs=1e-8)


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
        return {"y": y, "g": g, "z": z}, {"y": y, "g": g, "z": zc}

    def test_linear_matches_precentred_fit(self, offset):
        raw, centred = self._data(offset, logistic=False)
        spec = RegressionSpec(response="y", predictor="g", covariates=("z",))
        a, b = fit_linear(raw, spec), fit_linear(centred, spec)
        assert a.beta == pytest.approx(b.beta, rel=1e-10)
        assert a.se == pytest.approx(b.se, rel=1e-10)

    def test_logistic_matches_precentred_fit(self, offset):
        raw, centred = self._data(offset, logistic=True)
        spec = RegressionSpec(response="y", predictor="g", covariates=("z",),
                              family="logistic")
        a, b = fit_logistic_detail(raw, spec), fit_logistic_detail(centred, spec)
        assert a.coef[1:] == pytest.approx(b.coef[1:], rel=1e-10)
        assert a.cov[1:, 1:] == pytest.approx(b.cov[1:, 1:], rel=1e-10)
        # Only the intercept moves: to the linear predictor at z = 0.
        mean = raw["z"].mean()
        assert a.coef[0] == pytest.approx(b.coef[0] - mean * b.coef[2], rel=1e-10)


class TestSpecAndEstimate:
    def test_predictor_cannot_be_covariate(self):
        with pytest.raises(DomainError):
            RegressionSpec(response="y", predictor="g", covariates=("g",))

    def test_estimate_validation(self):
        with pytest.raises(DomainError):
            AssocEstimate(beta=float("nan"), se=1.0, n=10)
        with pytest.raises(DomainError):
            AssocEstimate(beta=0.0, se=-1.0, n=10)
        with pytest.raises(DomainError):
            AssocEstimate(beta=0.0, se=1.0, n=1)
