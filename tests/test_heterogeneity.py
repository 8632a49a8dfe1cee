"""Tests for Cochran's Q with first-order and modified second-order weights."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from ctxmr.errors import ConfigError, CtxMRError, EstimationError
from ctxmr.heterogeneity import (
    q_first_order,
    q_first_order_lanes,
    q_modified_second_order,
    q_modified_second_order_lanes,
)
from ctxmr.ivcore import ContextTable
from ctxmr.numerics import chi_square_sf

from oracles import ks_uniform_pvalue, modified_q_grid_min


def make_table(bx, bx_se, by, by_se, mean=50.0, n=1000, labels=None):
    """A context table of equal-length columns (scalars broadcast), labelled 0, 1, ..."""
    cols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=float))
                                 for c in (bx, bx_se, by, by_se, mean)))
    if labels is None:
        labels = [str(i) for i in range(cols[0].size)]
    return ContextTable.from_columns(labels, *cols, np.full(cols[0].size, n))


def random_instance(rng, k=10):
    """Summary statistics shaped like a stratified MR analysis."""
    bx = rng.normal(0.5, 0.03, size=k)
    bx_se = rng.uniform(0.01, 0.04, size=k)
    theta = 0.8 + rng.normal(scale=0.15, size=k)
    by_se = rng.uniform(0.01, 0.05, size=k)
    by = theta * bx + rng.normal(scale=by_se)
    return make_table(bx, bx_se, by, by_se)


class TestFirstOrder:
    def test_equal_ratios_give_zero_q(self):
        t = make_table(bx=[0.5, 0.8, 0.6], bx_se=0.0, by=[0.4, 0.64, 0.48],
                       by_se=[0.1, 0.2, 0.15])
        het = q_first_order(t)
        assert het.q == pytest.approx(0.0, abs=1e-20)
        assert het.p == 1.0
        assert het.df == 2

    def test_hand_example(self):
        t = make_table(bx=[1.0, 1.0], bx_se=0.0, by=[1.0, 2.0], by_se=1.0)
        het = q_first_order(t)
        assert het.q == pytest.approx(0.5, abs=1e-12)
        assert het.p == pytest.approx(0.4795001221869535, abs=1e-9)
        assert het.pooled_beta == 1.5
        assert het.iterations == 1

    def test_needs_two_contexts(self):
        with pytest.raises(ConfigError):
            q_first_order(make_table(1.0, 0.0, 1.0, 1.0))

    def test_null_q_is_chi_square_distributed(self):
        # 20 contexts with no true effect: p-values should look uniform.
        rng = np.random.default_rng(100)
        pvals = []
        for _ in range(500):
            bx = rng.normal(0.05, 0.003, size=20)
            by_se = rng.uniform(0.01, 0.03, size=20)
            by = rng.normal(0.0, by_se)
            pvals.append(q_first_order(make_table(bx, 0.003, by, by_se)).p)
        assert ks_uniform_pvalue(pvals) > 0.01


class TestModifiedSecondOrder:
    def test_zero_bx_se_reduces_to_first_order(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = make_table(
                bx=rng.uniform(0.3, 0.9, 8),
                bx_se=0.0,
                by=rng.normal(0.4, 0.2, 8),
                by_se=rng.uniform(0.05, 0.2, 8),
            )
            first = q_first_order(t)
            modified = q_modified_second_order(t)
            assert modified.q == pytest.approx(first.q, abs=1e-12)
            assert modified.pooled_beta == pytest.approx(first.pooled_beta, abs=1e-10)

    def test_equal_ratios_give_zero_q(self):
        t = make_table(bx=[0.5, 0.8, 0.6], bx_se=[0.02, 0.03, 0.01], by=[0.4, 0.64, 0.48],
                       by_se=[0.1, 0.2, 0.15])
        het = q_modified_second_order(t)
        assert het.q == pytest.approx(0.0, abs=1e-18)
        assert het.p == 1.0

    def test_matches_grid_search_minimum(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            t = random_instance(rng)
            het = q_modified_second_order(t)
            ivw = q_first_order(t).pooled_beta
            _, q_grid = modified_q_grid_min(t.bx, t.bx_se, t.by, t.by_se,
                                            lo=ivw - 1.0, hi=ivw + 1.0)
            assert het.q == pytest.approx(q_grid, abs=1e-6)
            assert het.q <= q_grid + 1e-9

    def test_q_at_solution_no_worse_than_at_first_order_beta(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = random_instance(rng)
            het = q_modified_second_order(t)
            b_ivw = q_first_order(t).pooled_beta
            v = t.by_se**2 + b_ivw * b_ivw * t.bx_se**2
            q_at_ivw = float(np.sum((t.by - b_ivw * t.bx) ** 2 / v))
            assert het.q <= q_at_ivw + 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        t = random_instance(rng)
        for c in (0.1, 3.0, 1e4):
            scaled = make_table(t.bx, t.bx_se, c * t.by, c * t.by_se, labels=t.labels)
            for fn in (q_first_order, q_modified_second_order):
                assert fn(scaled).q == pytest.approx(fn(t).q, abs=1e-10)
                assert fn(t.rescaled(c)).q == pytest.approx(fn(t).q, abs=1e-10)

    def test_relabel_and_reorder_invariance(self):
        rng = np.random.default_rng(5)
        t = random_instance(rng)
        shuffled = t.subset(rng.permutation(len(t)))
        assert shuffled.labels.tolist() != t.labels.tolist()
        for fn in (q_first_order, q_modified_second_order):
            assert fn(shuffled).q == pytest.approx(fn(t).q, abs=1e-12)

    def test_p_value_consistent_with_chi_square(self):
        t = random_instance(np.random.default_rng(7))
        het = q_modified_second_order(t)
        assert het.p == pytest.approx(chi_square_sf(het.q, het.df), abs=1e-15)


def _lane_tables():
    """Tables of 10, 7 and 8 rows, and two that fail."""
    rng = np.random.default_rng(41)
    tables = [random_instance(rng) for _ in range(3)] + [random_instance(rng, k=7)]
    tables.insert(2, random_instance(rng, k=8))
    tables.insert(1, make_table(0.5, 0.01, 0.4, 0.05))  # 1 row
    tables.append(make_table(bx=[1e-5, 0.5, 0.5], bx_se=0.01, by=[1e300, 0.4, 0.3],
                             by_se=0.1))  # Q overflows
    return tables


@pytest.mark.parametrize("lanes, alone", [(q_first_order_lanes, q_first_order),
                                          (q_modified_second_order_lanes,
                                           q_modified_second_order)])
def test_each_lane_of_a_stacked_call_equals_its_table_alone(lanes, alone):
    tables = _lane_tables()
    outcomes = lanes(tables)
    assert [o.df + 1 for o in outcomes if not isinstance(o, CtxMRError)] == [10, 10, 8, 10, 7]
    for table, outcome in zip(tables, outcomes):
        try:
            expected = alone(table)
        except CtxMRError as err:
            assert (type(outcome), str(outcome)) == (type(err), str(err))
        else:
            assert outcome == expected
    assert [type(o) for o in outcomes if isinstance(o, CtxMRError)] == [ConfigError,
                                                                       EstimationError]


def test_overflowing_q_is_an_estimation_error():
    # Finite summaries whose squared residuals exceed the float range.
    t = make_table(bx=[1e-5, 0.5, 0.5], bx_se=0.01, by=[1e300, 0.4, 0.3], by_se=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (q_first_order, q_modified_second_order):
            with pytest.raises(EstimationError, match="Q statistic is"):
                fn(t)


# Twenty contexts with strong heterogeneity and imprecise bx (|bx|/se(bx)
# near 5) on which Q(b) has a local minimum near the IVW estimate and its
# global minimum (b = 0.1716) beyond the largest ratio estimate (0.148).
K20_BX = [
    0.3125038911120691, 0.46619699965787154, 0.5199607013953917, 0.38863597470150113,
    0.33450267350030854, 0.5144808234840045, 0.5419578270632456, 0.44645114937941405,
    0.399522120472338, 0.5138523720324181, 0.42378010368662394, 0.4776242790978038,
    0.43191134761147687, 0.4601809010587198, 0.32555694279784514, 0.5241359681546107,
    0.4707239195936295, 0.45890016919036125, 0.39551364233191155, 0.5902140343774112,
]
K20_BX_SE = [
    0.0678114570282759, 0.06900544907162645, 0.10387051050485832, 0.06940947704631585,
    0.06172851021995145, 0.06744256164716175, 0.06808733137622508, 0.08520606637644845,
    0.09775868573190655, 0.09057802775808382, 0.06284768936394819, 0.08811241749280921,
    0.06890706128888503, 0.08821075051796365, 0.10208441152655282, 0.09346493594530436,
    0.06548562404136235, 0.11649549621871172, 0.09260851049909125, 0.07443268002473966,
]
K20_BY = [
    0.018776588699670936, -0.05255832938948477, -0.11789968692564107, -0.017605217375358584,
    -0.009484186911460434, 0.06307989566284233, 0.0543921933975487, -0.08238421274772109,
    0.010658753489487704, -0.026410733869570747, 0.002248643160795349, 0.057290679682770726,
    0.03383806606350565, 0.007780430631991191, -0.004726299364922983, 0.03485731803559584,
    0.032324341493290304, 0.06790365083069916, 0.030162234570270938, 0.07576567352926133,
]
K20_BY_SE = [
    0.015772409893118046, 0.009124775828241005, 0.006582659758892434, 0.018981268964408635,
    0.005148712954606842, 0.014078695135417468, 0.012740490530824104, 0.0055115706931785635,
    0.007755859453993473, 0.018188035372955602, 0.006472178171752355, 0.012220207708998766,
    0.0189275610419204, 0.006109013946158741, 0.010847285771661365, 0.015098012950126007,
    0.009108173533186284, 0.009996643437926802, 0.01099274811416006, 0.013843423603399182,
]


def test_global_minimum_beyond_the_ratio_estimates():
    t = make_table(K20_BX, K20_BX_SE, K20_BY, K20_BY_SE)
    het = q_modified_second_order(t)
    assert het.q == pytest.approx(477.48735478912965, abs=1e-6)
    assert het.pooled_beta > t.ratio.max()
    _, q_grid = modified_q_grid_min(K20_BX, K20_BX_SE, K20_BY, K20_BY_SE, lo=-1.0, hi=1.0)
    assert het.q <= q_grid + 1e-9
