"""Property tests of the first-order Q, the IVW estimate and the modified Q.

For the modified second-order Q the sets sit in the weak-instrument
regime: |bx|/se(bx) between 3 and 8 and a between-context sd of about
0.1 in the ratio are where Q(b) has several local minima, so they
exercise the solver's choice of basin as well as its refinement.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ctxmr.heterogeneity import q_first_order, q_modified_second_order  # noqa: E402
from ctxmr.ivcore import ContextTable  # noqa: E402

from oracles import modified_q_grid_min  # noqa: E402

# One context: bx, |bx|/se(bx), ratio deviation (uniform, sd 0.1),
# se(by), and the sampling noise of by in units of se(by).
CONTEXT = st.tuples(
    st.floats(0.3, 0.6),
    st.floats(3.0, 8.0),
    st.floats(-0.17, 0.17),
    st.floats(0.005, 0.02),
    st.floats(-2.0, 2.0),
)
SUMMARY_SETS = st.lists(CONTEXT, min_size=3, max_size=30)


def summary_arrays(contexts):
    bx, t, deviation, by_se, noise = (np.array(col) for col in zip(*contexts))
    by = (0.05 + deviation) * bx + noise * by_se
    return bx, bx / t, by, by_se


def table_from(bx, bx_se, by, by_se):
    k = len(bx)
    return ContextTable.from_columns([str(i) for i in range(k)], bx, bx_se, by, by_se,
                                     np.full(k, 50.0), np.full(k, 1000))


def refined_grid_min(bx, bx_se, by, by_se, lo, hi):
    """Grid minimum of Q(b) on [lo, hi], refined twice around the best point."""
    steps = 20_001
    for _ in range(3):
        beta, q = modified_q_grid_min(bx, bx_se, by, by_se, lo, hi, steps=steps)
        width = 2.0 * (hi - lo) / (steps - 1)
        lo, hi, steps = beta - width, beta + width, 2001
    return q


@settings(max_examples=150, deadline=None)
@given(SUMMARY_SETS)
def test_matches_refined_grid_minimum(contexts):
    bx, bx_se, by, by_se = summary_arrays(contexts)
    het = q_modified_second_order(table_from(bx, bx_se, by, by_se))
    # The ratio range plus that range again on each side; widened to reach
    # the solver's answer when the minimum lies farther out.
    ratios = by / bx
    span = float(ratios.max() - ratios.min())
    lo = min(float(ratios.min()) - span, het.pooled_beta - 0.01 * span)
    hi = max(float(ratios.max()) + span, het.pooled_beta + 0.01 * span)
    q_grid = refined_grid_min(bx, bx_se, by, by_se, lo, hi)
    assert het.q <= q_grid + 1e-9
    assert het.q == pytest.approx(q_grid, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(SUMMARY_SETS, st.randoms(use_true_random=False), st.floats(1e-3, 1e3))
def test_invariant_to_order_and_outcome_scale(contexts, rng, scale):
    bx, bx_se, by, by_se = summary_arrays(contexts)
    q = q_modified_second_order(table_from(bx, bx_se, by, by_se)).q
    order = list(range(len(bx)))
    rng.shuffle(order)
    shuffled = q_modified_second_order(table_from(bx[order], bx_se[order], by[order],
                                                    by_se[order]))
    scaled = q_modified_second_order(table_from(bx, bx_se, scale * by, scale * by_se))
    assert shuffled.q == pytest.approx(q, rel=1e-10, abs=1e-10)
    assert scaled.q == pytest.approx(q, rel=1e-10, abs=1e-10)


# One context for the first-order tests: bx of either sign, by, se(by).
FIRST_ORDER_CONTEXT = st.tuples(
    st.floats(0.05, 1.0),
    st.booleans(),
    st.floats(-1.0, 1.0),
    st.floats(0.005, 0.5),
)
FIRST_ORDER_SETS = st.lists(FIRST_ORDER_CONTEXT, min_size=2, max_size=30)


def first_order_table(contexts):
    size, negative, by, by_se = (np.array(col) for col in zip(*contexts))
    bx = np.where(negative, -size, size)
    return table_from(bx, np.zeros(bx.size), by, by_se)


@settings(max_examples=150, deadline=None)
@given(FIRST_ORDER_SETS, st.randoms(use_true_random=False), st.floats(1e-6, 1e6))
def test_first_order_q(contexts, rng, factor):
    t = first_order_table(contexts)
    het = q_first_order(t)
    assert het.q >= 0.0 and 0.0 <= het.p <= 1.0 and het.df == len(t) - 1
    # Directly: the squared deviations of the ratios from the IVW estimate,
    # weighted by the inverse first-order ratio variances.
    direct = float(np.sum((t.ratio - het.pooled_beta) ** 2 / t.ratio_se**2))
    assert het.q == pytest.approx(direct, rel=1e-9, abs=1e-9)
    order = list(range(len(t)))
    rng.shuffle(order)
    assert q_first_order(t.subset(np.array(order))).q == pytest.approx(het.q, rel=1e-9, abs=1e-9)
    assert q_first_order(t.rescaled(factor)).q == pytest.approx(het.q, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(FIRST_ORDER_SETS)
@example([(0.5, False, 5e-324, 0.5)] * 2)  # by * bx * w underflows to 0
def test_ivw_estimate_lies_within_the_ratio_range(contexts):
    t = first_order_table(contexts)
    slack = 1e-12 * float(np.abs(t.ratio).max())
    assert t.ratio.min() - slack <= q_first_order(t).pooled_beta <= t.ratio.max() + slack
