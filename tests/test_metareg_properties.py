"""Property tests of the REML trend test (meta-regression on mean exposure).

Summary sets have 3 to 39 contexts, within-context variances between
5e-4 and 5e-2, means between 8 and 10 and a between-context sd of 0, 0.01,
0.05 or 0.3: the regime where a fixed absolute step tolerance on tau2 used
to stop the REML iteration from converging.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ctxmr.metareg import meta_regress  # noqa: E402

from oracles import reml_loglik, reml_profile_grid  # noqa: E402

# A summary set: the number of contexts, the between-context sd, and the
# seed from which numpy draws the variances, means and estimates.
SUMMARY_SETS = st.tuples(st.integers(3, 39), st.sampled_from([0.0, 0.01, 0.05, 0.3]),
                         st.integers(0, 2**32 - 1))


def summary_arrays(drawn):
    k, tau, seed = drawn
    rng = np.random.default_rng(seed)
    v = rng.uniform(5e-4, 5e-2, size=k)
    x = rng.uniform(8.0, 10.0, size=k)
    y = 0.2 + 0.05 * x + rng.normal(scale=np.sqrt(v + tau**2))
    return y, v, x


@settings(max_examples=25, deadline=None)
@given(SUMMARY_SETS)
def test_matches_profile_likelihood_grid(drawn):
    y, v, x = summary_arrays(drawn)
    res = meta_regress(y, v, x, method="reml")
    # Every maximum of the restricted likelihood lies below this bound.
    ols = np.polyval(np.polyfit(x, y, 1), x) - y
    hi = float(ols @ ols) / (len(y) - 2) + float(v.max())
    tau2_grid, slope_grid = reml_profile_grid(y, v, x, hi=hi, step=hi / 400)
    assert reml_loglik(res.tau2, y, v, x) >= reml_loglik(tau2_grid, y, v, x) - 1e-9
    assert res.tau2 == pytest.approx(tau2_grid, abs=1e-4)
    assert res.slope == pytest.approx(slope_grid, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(SUMMARY_SETS, st.randoms(use_true_random=False), st.floats(-1e3, 1e3),
       st.floats(-10.0, 10.0))
def test_invariant_to_order_and_shifts(drawn, rng, mean_shift, estimate_shift):
    y, v, x = summary_arrays(drawn)
    base = meta_regress(y, v, x, method="reml")
    order = list(range(len(y)))
    rng.shuffle(order)
    for res in (meta_regress(y[order], v[order], x[order], method="reml"),
                meta_regress(y, v, x + mean_shift, method="reml"),
                meta_regress(y + estimate_shift, v, x, method="reml")):
        assert res.tau2 == pytest.approx(base.tau2, rel=1e-6, abs=1e-12)
        assert res.slope == pytest.approx(base.slope, rel=1e-8, abs=1e-10)
        assert res.slope_p == pytest.approx(base.slope_p, rel=1e-8, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(SUMMARY_SETS, st.floats(1e-3, 1e3))
def test_tau2_scales_with_the_variances(drawn, scale):
    # Estimates scaled by s and variances by s^2: the restricted likelihood
    # moves by a constant, so tau2 scales by s^2, the slope by s, p not at all.
    y, v, x = summary_arrays(drawn)
    base = meta_regress(y, v, x, method="reml")
    scaled = meta_regress(np.sqrt(scale) * y, scale * v, x, method="reml")
    assert scaled.tau2 == pytest.approx(scale * base.tau2, rel=1e-6, abs=1e-12 * scale)
    assert scaled.slope == pytest.approx(np.sqrt(scale) * base.slope, rel=1e-8, abs=1e-10)
    assert scaled.slope_p == pytest.approx(base.slope_p, rel=1e-8, abs=1e-10)
