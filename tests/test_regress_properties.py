"""The logistic fit against the loop that scores every iterate.

``regress.fit_logistic_detail`` takes the start's deviance from the count
of ones, does not score the final step and writes into reused buffers.
``oracles.fit_logistic_loop`` does none of that: it reads every iterate's
deviance from a pass over the rows, in fresh arrays. On designs of 2 to 12
columns, with rare and balanced outcomes and covariates far from zero,
the two must reach the same fit, or both must refuse the data.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ctxmr.errors import EstimationError  # noqa: E402
from ctxmr.numerics import gram_inverse  # noqa: E402
from ctxmr.regress import design, fit_logistic_detail  # noqa: E402

from oracles import fit_logistic_loop  # noqa: E402

#: A design: rows, columns p (the intercept included), outcome prevalence,
#: the covariates' common offset and the seed of the draws.
DESIGNS = st.tuples(
    st.integers(200, 4000),
    st.integers(2, 12),
    st.sampled_from([0.01, 0.05, 0.5]),
    st.sampled_from([0.0, 1e3, 1e6]),
    st.integers(0, 2**32 - 1),
)


def _draw(n, p, prevalence, offset, seed):
    rng = np.random.default_rng(seed)
    predictor = rng.normal(size=n)
    covariates = offset + rng.normal(scale=rng.uniform(0.5, 10.0, p - 2), size=(n, p - 2))
    slopes = rng.normal(scale=0.2, size=p - 1) / np.r_[1.0, covariates.std(axis=0)]
    logit = np.log(prevalence / (1.0 - prevalence)) + slopes[0] * predictor
    logit += (covariates - covariates.mean(axis=0)) @ slopes[1:]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return design(predictor, covariates), y


@settings(max_examples=120, deadline=None)
@given(DESIGNS)
def test_fit_agrees_with_the_loop_that_scores_every_iterate(params):
    built, y = _draw(*params)
    if y.min() == y.max():
        with pytest.raises(EstimationError, match="single class"):
            fit_logistic_detail(built, y)
        return
    try:
        coef, cov, iterations, trace = fit_logistic_loop(built.X, built.center, y, gram_inverse)
    except ArithmeticError:
        with pytest.raises(EstimationError):
            fit_logistic_detail(built, y)
        return
    fit = fit_logistic_detail(built, y)
    assert fit.iterations == iterations
    np.testing.assert_allclose(fit.coef, coef, rtol=1e-12)
    np.testing.assert_allclose(fit.cov, cov, rtol=1e-12)
    np.testing.assert_allclose(fit.deviance_trace, trace[:len(fit.deviance_trace)], rtol=1e-12)
