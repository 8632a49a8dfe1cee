"""Tests for the simulation data-generating process."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from ctxmr.datamodel import Dataset, partition_by_context
from ctxmr.errors import ConfigError, DomainError
from ctxmr.heterogeneity import q_first_order, q_modified_second_order
from ctxmr.ivcore import ContextTable, context_iv
from ctxmr.simulate import (
    LARGER_GRID,
    SMALLER_GRID,
    ContextDraws,
    EffectFunction,
    SimScenario,
    alpha_grid,
    draw_contexts,
    effect_inplace,
    effect_value,
    generate_dataset,
    instrument_strength,
    parse_scenario_config,
)


class TestEffectFunction:
    def test_linear(self):
        assert effect_value(EffectFunction.linear(), 10.0) == pytest.approx(8.0)

    def test_quadratic(self):
        assert effect_value(EffectFunction.quadratic(), 5.0) == pytest.approx(1.0)

    def test_threshold_continuity_and_slope(self):
        f = EffectFunction.threshold()
        assert effect_value(f, 10.0) == 0.0
        assert effect_value(f, 9.999999) == 0.0
        assert effect_value(f, 14.0) == pytest.approx(1.0)
        x = np.array([5.0, 10.0, 12.0])
        assert effect_value(f, x) == pytest.approx([0.0, 0.0, 0.5])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            EffectFunction(kind="cubic")

    @pytest.mark.parametrize("name", ["slope", "coefficient", "knot"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            EffectFunction(kind="threshold", **{name: value})


SHAPES = [EffectFunction.linear(), EffectFunction.quadratic(), EffectFunction.threshold(),
          EffectFunction.threshold(slope=-0.5, knot=-2.0)]


class TestEffectInplace:
    """The one formula per shape, which the engine applies to its own buffer."""

    X = np.array([-1e4, -2.0, -1e-300, -0.0, 0.0, 5e-324, 3.7, 9.999999999999998,
                  10.0, 10.000000000000002, 12.0, 1e4, 1e150])

    @pytest.mark.parametrize("effect", SHAPES, ids=lambda e: f"{e.kind}{e.slope}")
    def test_equals_effect_value_bit_for_bit(self, effect):
        x = self.X.copy()
        out = effect_inplace(effect, x)
        assert out is x
        expected = effect_value(effect, self.X)
        assert out.tobytes() == expected.tobytes()
        for value, y in zip(self.X.tolist(), out.tolist()):
            assert np.float64(effect_value(effect, value)).tobytes() == np.float64(y).tobytes()

    @pytest.mark.parametrize("effect", SHAPES, ids=lambda e: f"{e.kind}{e.slope}")
    def test_matches_the_textbook_formula(self, effect):
        x = self.X
        if effect.kind == "linear":
            expected = effect.slope * x
        elif effect.kind == "quadratic":
            expected = effect.coefficient * (x * x)
        else:
            expected = effect.slope * np.where(x > effect.knot, x - effect.knot, 0.0)
        assert effect_inplace(effect, x.copy()).tobytes() == expected.tobytes()

    def test_threshold_at_and_below_the_knot_is_positive_zero(self):
        f = EffectFunction.threshold()
        x = np.array([10.0, np.nextafter(10.0, 0.0), 9.0, -1e300, 0.0, -0.0])
        out = effect_inplace(f, x)
        assert (out == 0.0).all()
        assert not np.signbit(out).any()

    def test_effect_value_copies_and_checks(self):
        x = np.array([11.0, 12.0])
        effect_value(EffectFunction.threshold(), x)
        assert x.tolist() == [11.0, 12.0]
        with pytest.raises(DomainError, match="finite exposure"):
            effect_value(EffectFunction.linear(), [1.0, float("nan")])


class TestGrids:
    def test_builtin_grids(self):
        assert LARGER_GRID[0] == 8.0 and LARGER_GRID[-1] == pytest.approx(9.8)
        assert SMALLER_GRID[0] == 9.0 and SMALLER_GRID[-1] == pytest.approx(9.9)
        assert len(LARGER_GRID) == len(SMALLER_GRID) == 10
        assert alpha_grid("larger", 10) == LARGER_GRID

    def test_custom_grid(self):
        assert alpha_grid([1, 2, 3.5]) == (1.0, 2.0, 3.5)

    def test_scenario_validation(self):
        with pytest.raises(ConfigError):
            SimScenario(alphas=(9.0,))
        with pytest.raises(ConfigError):
            SimScenario(maf=1.5)
        with pytest.raises(ConfigError):
            SimScenario(per_context_n=5)

    @pytest.mark.parametrize("field, value", [
        ("alphas", (float("nan"), 9.0, 9.5)),
        ("alphas", (8.0, float("inf"))),
        ("instrument_effect", float("nan")),
    ])
    def test_non_finite_scenario_parameter_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            SimScenario(**{field: value})

    def test_large_finite_parameters_are_accepted(self):
        scenario = SimScenario(effect=EffectFunction.quadratic(coefficient=1e308),
                               alphas=(1e300, -1e300), instrument_effect=1e308)
        assert scenario.contexts == 2


class TestGenerate:
    def test_same_seed_is_bit_identical(self):
        s = SimScenario(per_context_n=500)
        a = generate_dataset(s, master_seed=7, replication=3)
        b = generate_dataset(s, master_seed=7, replication=3)
        assert np.array_equal(a.instrument, b.instrument)
        assert np.array_equal(a.exposure, b.exposure)
        assert np.array_equal(a.outcome, b.outcome)

    def test_draws_into_buffers_equal_fresh_draws(self):
        fresh = draw_contexts(7, 3, 4, 500, 0.3)
        buffers = ContextDraws(*(np.full((4, 500), np.nan) for _ in range(4)))
        for replication in (5, 3):  # overwrite what an earlier replication left
            filled = draw_contexts(7, replication, 4, 500, 0.3, out=buffers)
        assert filled is buffers
        for name in ("g", "u", "e_x", "e_y"):
            assert np.array_equal(getattr(filled, name), getattr(fresh, name)), name
        with pytest.raises(DomainError, match=r"shape \(4, 400\)"):
            draw_contexts(7, 3, 4, 400, 0.3, out=buffers)

    def test_replications_differ(self):
        s = SimScenario(per_context_n=500)
        a = generate_dataset(s, master_seed=7, replication=0)
        b = generate_dataset(s, master_seed=7, replication=1)
        assert not np.array_equal(a.exposure, b.exposure)

    def test_allele_count_mean(self):
        s = SimScenario(per_context_n=500_000, alphas=(9.0, 9.5))
        ds = generate_dataset(s, master_seed=11)
        assert ds.instrument.mean() == pytest.approx(0.6, abs=0.003)
        assert set(np.unique(ds.instrument)) == {0.0, 1.0, 2.0}

    def test_within_context_exposure_moments(self):
        s = SimScenario(per_context_n=100_000, alphas=(9.0, 9.5))
        ds = generate_dataset(s, master_seed=13)
        first = ds.exposure[: 100_000]
        # E[x] = alpha + 0.5 E[g]; Var[x] = 1 + 1 + 0.25 Var[g] = 2.105.
        assert first.mean() == pytest.approx(9.3, abs=4 * np.sqrt(2.105 / 100_000))
        assert first.var(ddof=1) == pytest.approx(2.105, rel=0.02)

    def test_context_labels_and_sizes(self):
        s = SimScenario(per_context_n=50)
        ds = generate_dataset(s, master_seed=1)
        labels, counts = np.unique(np.asarray(ds.context, dtype=str), return_counts=True)
        assert sorted(labels) == sorted(str(k + 1) for k in range(10))
        assert (counts == 50).all()

    def test_exposure_means_monotone_in_alpha(self):
        s = SimScenario(alphas=SMALLER_GRID, per_context_n=10_000)
        for seed in range(20):
            ds = generate_dataset(s, master_seed=seed)
            means = [
                ds.exposure[ds.context == str(k + 1)].mean() for k in range(10)
            ]
            assert all(a < b for a, b in zip(means, means[1:])), seed


def _digest(ds) -> str:
    h = hashlib.sha256()
    for column in (ds.instrument, ds.exposure, ds.outcome):
        h.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
    h.update("|".join(map(str, ds.context)).encode())
    return h.hexdigest()


# SHA-256 of generate_dataset(scenario, master_seed=7, replication=3): the
# instrument, exposure and outcome as little-endian float64 bytes, then the
# context labels joined by "|". A change to the draw order, the stream
# keying or the arithmetic of x and y changes these.
GOLDEN_DATASETS = [
    (SimScenario(effect=EffectFunction.threshold(), per_context_n=200),
     "d8febf53db8be60a83fe21584a3c26aa6df6436dbe0b1fe0a1a3320da97f2743"),
    (SimScenario(effect=EffectFunction.quadratic(), alphas=alpha_grid("smaller", 4),
                 per_context_n=150, maf=0.2, instrument_effect=0.7),
     "102c13b95f5e7f6b5b60fe8747e484ead856ed602934f1c6bd8c50476c8e97ac"),
    (SimScenario(per_context_n=300),
     "32518c310ca9f9fc8c35763ebec70cdab19da2213eea5c3606a10715809a281c"),
]


@pytest.mark.parametrize("scenario, digest", GOLDEN_DATASETS)
def test_generate_dataset_golden_digest(scenario, digest):
    assert _digest(generate_dataset(scenario, master_seed=7, replication=3)) == digest


class TestInstrumentStrength:
    def test_larger_grid_pooled_r2_and_f(self):
        ds = generate_dataset(SimScenario(alphas=LARGER_GRID), master_seed=2)
        strength = instrument_strength(ds)
        assert strength.r2 == pytest.approx(0.043, abs=0.005)
        assert strength.f_stat == pytest.approx(4500, rel=0.10)
        assert not strength.capped

    def test_smaller_grid_pooled_r2(self):
        ds = generate_dataset(SimScenario(alphas=SMALLER_GRID), master_seed=2)
        assert instrument_strength(ds).r2 == pytest.approx(0.048, abs=0.005)

    def test_perfect_correlation_is_capped(self):
        g = np.tile([0.0, 1.0, 2.0], 50)
        ds = Dataset(
            instrument=g,
            exposure=g.copy(),
            outcome=np.zeros(g.size),
            context=np.asarray(["a"] * g.size, dtype=object),
            covariates=np.empty((g.size, 0)),
        )
        strength = instrument_strength(ds)
        assert strength.capped
        assert strength.r2 == pytest.approx(1.0)
        assert np.isinf(strength.f_stat)

    def test_independent_instrument_near_zero(self):
        rng = np.random.default_rng(5)
        ds = Dataset(
            instrument=rng.integers(0, 3, 5000).astype(float),
            exposure=rng.normal(size=5000),
            outcome=np.zeros(5000),
            context=np.asarray(["a"] * 5000, dtype=object),
            covariates=np.empty((5000, 0)),
        )
        strength = instrument_strength(ds)
        assert strength.r2 < 0.01
        assert strength.f_stat < 10.0


class TestNullInstrumentGuard:
    def test_no_spurious_heterogeneity_from_null_instrument(self):
        # With no instrument effect the ratios are garbage but flagged,
        # and the Q tests must not light up.
        scenario = SimScenario(instrument_effect=0.0, per_context_n=2000)
        rejections = {"first": 0, "modified": 0}
        warned = 0
        reps = 400
        for rep in range(reps):
            ds = generate_dataset(scenario, master_seed=900, replication=rep)
            part = partition_by_context(ds, min_n=2)
            results = [context_iv(label, sub) for label, sub in part.contexts]
            table = ContextTable.from_results(results)
            warned += bool((np.abs(table.bx) < 2.0 * table.bx_se).any())
            if q_first_order(table).p < 0.05:
                rejections["first"] += 1
            if q_modified_second_order(table).p < 0.05:
                rejections["modified"] += 1
        assert warned > 0.9 * reps
        assert 0.02 <= rejections["first"] / reps <= 0.08
        # The modified-weights test is conservative by construction, more so
        # with a worthless instrument: only spurious detections are a bug.
        assert rejections["modified"] / reps <= 0.08


class TestScenarioConfig:
    def test_round_trip_of_keys(self):
        text = """
        # simulation cell
        effect = quadratic
        alpha_grid = smaller
        per_context_n = 500
        maf = 0.25
        """
        s = parse_scenario_config(text)
        assert s.effect.kind == "quadratic"
        assert s.alphas == SMALLER_GRID
        assert s.per_context_n == 500
        assert s.maf == 0.25

    def test_prefix_of_named_grid_keeps_its_name(self):
        s = parse_scenario_config("effect = linear\nalpha_grid = larger\ncontexts = 5\n")
        assert s.alphas == LARGER_GRID[:5]
        assert s.grid_name == "larger"
        assert SimScenario(alphas=SMALLER_GRID[:3]).grid_name == "smaller"
        assert SimScenario(alphas=LARGER_GRID[1:6]).grid_name == "custom"

    def test_custom_alpha_list_and_effect_params(self):
        s = parse_scenario_config(
            "effect = threshold\nalpha_grid = 8.0, 9.0, 10.0\nthreshold_knot = 9.5\n"
        )
        assert s.alphas == (8.0, 9.0, 10.0)
        assert s.effect.knot == 9.5
        assert s.contexts == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario config keys"):
            parse_scenario_config("effect = linear\nbogus = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_scenario_config("effect linear\n")
