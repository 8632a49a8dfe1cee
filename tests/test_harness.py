"""Tests for the Monte Carlo experiment runner."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from ctxmr import harness
from ctxmr.datamodel import partition_by_context
from ctxmr.errors import ConfigError, ExperimentError
from ctxmr.harness import (
    CellResult,
    ExperimentPlan,
    ReplicationOutcome,
    Workspace,
    _summarize_cell,
    default_plan,
    emit_table,
    plan_manifest,
    replication_blocks,
    run_cells,
    run_experiment,
    run_replication,
    worker_count,
)
from ctxmr.ivcore import ContextTable, context_iv
from ctxmr.simulate import EffectFunction, SimScenario, generate_dataset


def small_plan(**overrides):
    kwargs = dict(
        scenarios=(SimScenario(per_context_n=300),),
        replications=6,
        master_seed=5,
        workers=1,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestPlan:
    def test_default_plan_matches_published_layout(self):
        plan = default_plan(replications=10)
        kinds = [(s.effect.kind, s.grid_name) for s in plan.scenarios]
        assert kinds == [
            ("linear", "larger"),
            ("quadratic", "larger"),
            ("threshold", "larger"),
            ("linear", "smaller"),
            ("quadratic", "smaller"),
            ("threshold", "smaller"),
        ]

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(scenarios=(), replications=10)
        with pytest.raises(ConfigError):
            small_plan(replications=0)
        with pytest.raises(ConfigError):
            small_plan(alpha_level=1.0)
        with pytest.raises(ConfigError):
            small_plan(workers=0)

    def test_two_context_cell_is_rejected(self):
        # The trend test needs 3 contexts: such a cell would fail every replication.
        with pytest.raises(ConfigError, match="custom has 2 contexts; the trend test needs >= 3"):
            small_plan(scenarios=(SimScenario(per_context_n=300),
                                  SimScenario(alphas=(8.0, 9.0), per_context_n=300)))

    def test_unknown_tau2_method_fails_before_any_replication(self):
        with pytest.raises(ConfigError, match="unknown tau2 method 'bogus'"):
            run_experiment(default_plan(replications=5, tau2_method="bogus"))


class TestRunExperiment:
    def test_single_replication_smoke(self):
        plan = small_plan(replications=1)
        (cell,) = run_experiment(plan)
        assert cell.replications_completed == 1
        assert cell.rej_q_first in (0.0, 1.0)
        assert cell.rej_q_mod2 in (0.0, 1.0)
        assert cell.rej_trend in (0.0, 1.0)
        assert cell.failures == 0

    def test_deterministic_across_worker_counts(self):
        serial = run_experiment(small_plan(workers=1))
        parallel = run_experiment(small_plan(workers=2))
        assert serial == parallel

    def test_replication_outcomes_are_seed_stable(self):
        s = SimScenario(per_context_n=300)
        a = run_replication(s, master_seed=5, replication=2)
        b = run_replication(s, master_seed=5, replication=2)
        assert a == b
        c = run_replication(s, master_seed=6, replication=2)
        assert a != c

    def test_mc_se_formula(self):
        plan = small_plan(replications=20)
        (cell,) = run_experiment(plan)
        p = cell.rej_q_first
        assert cell.mc_se_q_first == pytest.approx((p * (1 - p) / 20) ** 0.5)

    def test_failure_budget_enforced(self):
        scenario = SimScenario(per_context_n=300)
        outcomes = [ReplicationOutcome(replication=i) for i in range(98)]
        outcomes += [
            ReplicationOutcome(replication=98, error="did not converge"),
            ReplicationOutcome(replication=99, error="did not converge"),
        ]
        with pytest.raises(ExperimentError, match="replications failed"):
            _summarize_cell(scenario, outcomes, alpha=0.05)

    def test_failure_summary_counts_each_distinct_message_once(self):
        scenario = SimScenario(per_context_n=300)
        errors = ["b", "a", "b", "c", "d", "b", "a", "e"]
        outcomes = [ReplicationOutcome(replication=i, error=e) for i, e in enumerate(errors)]
        with pytest.raises(ExperimentError) as caught:
            _summarize_cell(scenario, outcomes, alpha=0.05)
        assert str(caught.value) == (
            "cell linear/larger: 8/8 replications failed "
            "(3x b; 2x a; 1x c; 2 more distinct errors)"
        )

    def test_failures_excluded_from_denominator(self):
        scenario = SimScenario(per_context_n=300)
        outcomes = [
            ReplicationOutcome(replication=i, p_q_first=0.01, p_q_mod2=0.5, p_trend=0.5)
            for i in range(199)
        ]
        outcomes.append(ReplicationOutcome(replication=199, error="boom"))
        cell = _summarize_cell(scenario, outcomes, alpha=0.05)
        assert cell.replications_completed == 199
        assert cell.failures == 1
        assert cell.rej_q_first == 1.0


class TestWorkerCount:
    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(count):
            monkeypatch.setattr("ctxmr.harness.os.cpu_count", lambda: count)
        return set_cpus

    def test_capped_by_cpus(self, cpus):
        cpus(2)
        assert worker_count(100_000, replications=1000) == 2

    def test_capped_by_replications(self, cpus):
        cpus(16)
        assert worker_count(8, replications=3) == 3

    def test_request_below_caps_is_kept(self, cpus):
        cpus(16)
        assert worker_count(3, replications=1000) == 3
        assert worker_count(1, replications=1000) == 1

    def test_unknown_cpu_count_means_one(self, cpus):
        cpus(None)
        assert worker_count(4, replications=1000) == 1


CUSTOM = SimScenario(
    effect=EffectFunction.threshold(knot=8.5),
    alphas=(7.5, 8.0, 8.5, 9.5),
    per_context_n=700,
    maf=0.2,
)
# Same draws as CUSTOM, another instrument effect: its bx is its own.
CUSTOM_SHIFTED = SimScenario(
    effect=EffectFunction.quadratic(),
    alphas=(9.0, 8.0, 10.0, 8.5),
    per_context_n=700,
    maf=0.2,
    instrument_effect=0.8,
)


def _far_cells(alpha: float) -> tuple[SimScenario, ...]:
    """All three shapes on exposures near alpha, where f is large next to its spread."""
    alphas = tuple(alpha * (1.0 + 0.01 * j) for j in range(5))
    return tuple(
        SimScenario(effect=effect, alphas=alphas, per_context_n=500, maf=0.4)
        for effect in (EffectFunction.linear(), EffectFunction.quadratic(),
                       EffectFunction.threshold(knot=alpha * 1.02))
    )


class TestSharedDraws:
    """The replication-major engine against the general per-context path."""

    @staticmethod
    def _assert_engine_matches_context_iv(scenarios, replication):
        workspace = Workspace(master_seed=11)
        workspace.reset(replication)
        for scenario in scenarios:
            fast = workspace.context_table(scenario)
            part = partition_by_context(generate_dataset(scenario, 11, replication), min_n=2)
            general = ContextTable.from_results(context_iv(label, sub)
                                                for label, sub in part.contexts)
            assert fast.labels.tolist() == general.labels.tolist()
            for name in ("bx", "bx_se", "by", "by_se", "xmean"):
                np.testing.assert_allclose(getattr(fast, name), getattr(general, name),
                                           rtol=1e-10, atol=0.0, err_msg=name)
            assert fast.n.tolist() == general.n.tolist() == [scenario.per_context_n] * len(fast)

    @pytest.mark.parametrize("replication", [0, 3])
    def test_engine_matches_context_iv_on_generated_dataset(self, replication):
        scenarios = default_plan().scenarios + (CUSTOM, CUSTOM_SHIFTED)
        self._assert_engine_matches_context_iv(scenarios, replication)

    @pytest.mark.parametrize("alpha", [100.0, 1e4])
    def test_engine_matches_context_iv_far_from_zero(self, alpha):
        self._assert_engine_matches_context_iv(_far_cells(alpha), replication=2)

    def test_cell_outcome_does_not_depend_on_the_other_cells(self):
        cells = default_plan().scenarios + (CUSTOM, CUSTOM_SHIFTED)
        alone = [run_replication(s, 4, 2) for s in cells]
        assert list(run_cells(cells, 4, range(2, 3))[0]) == alone

    def test_failure_is_recorded_for_its_cell_only(self):
        overflow = SimScenario(
            effect=EffectFunction.quadratic(coefficient=1e308), per_context_n=300
        )
        good = SimScenario(per_context_n=300)
        ((first, bad, last),) = run_cells((good, overflow, good), 5, range(1, 2))
        assert bad.error == "the simulated outcome overflows the float range"
        assert first == last == run_replication(good, 5, 1)
        assert first.error is None


class TestBlocks:
    """Replications run in contiguous blocks, each with one workspace."""

    SCENARIOS = (SimScenario(per_context_n=300), CUSTOM, CUSTOM_SHIFTED)

    def test_blocks_are_contiguous_and_cover_the_replications(self):
        assert replication_blocks(33, 1) == [range(33)]
        blocks = replication_blocks(33, 2)
        assert [len(b) for b in blocks] == [2] * 16 + [1]
        assert [r for b in blocks for r in b] == list(range(33))

    def test_outcomes_do_not_depend_on_the_blocks(self):
        one_block = run_cells(self.SCENARIOS, 8, range(2, 9))
        blocks_of_one = [run_cells(self.SCENARIOS, 8, range(r, r + 1))[0] for r in range(2, 9)]
        assert one_block == blocks_of_one
        assert [o.replication for outcomes in one_block for o in outcomes] == [
            r for r in range(2, 9) for _ in self.SCENARIOS]

    def test_cells_do_not_depend_on_the_blocks_or_the_workers(self, monkeypatch):
        plan = small_plan(scenarios=self.SCENARIOS, replications=33)
        one_block = run_experiment(plan)
        uneven_in_a_pool = run_experiment(replace(plan, workers=2))
        monkeypatch.setattr(harness, "replication_blocks",
                            lambda replications, workers: [range(r, r + 1)
                                                           for r in range(replications)])
        blocks_of_one = run_experiment(plan)
        assert one_block == blocks_of_one == uneven_in_a_pool
        assert [c.replications_completed for c in one_block] == [33, 33, 33]


class TestEmitTable:
    def test_empty_results_give_header_only_csv(self):
        table = emit_table([])
        assert table.csv.splitlines() == [
            "scenario,grid,rej_q_first,rej_q_mod2,rej_trend,"
            "mc_se_q_first,mc_se_q_mod2,mc_se_trend,replications_completed,failures"
        ]

    def test_one_cell_one_row(self):
        cell = CellResult(
            scenario="linear",
            grid="larger",
            rej_q_first=0.128,
            rej_q_mod2=0.004,
            rej_trend=0.033,
            mc_se_q_first=0.0106,
            mc_se_q_mod2=0.002,
            mc_se_trend=0.0057,
            replications_completed=1000,
            failures=0,
        )
        table = emit_table([cell])
        assert len(table.csv.splitlines()) == 2
        assert table.csv.splitlines()[1].startswith("linear,larger,0.128,")
        assert "12.8%" in table.text
        parsed = json.loads(table.json)
        assert parsed["cells"][0]["rej_q_first"] == 0.128

    def test_csv_is_bit_stable_across_runs(self):
        plan = small_plan(replications=3)
        a = emit_table(run_experiment(plan))
        b = emit_table(run_experiment(plan))
        assert a.csv == b.csv
        assert a.json == b.json

    def test_row_order_follows_plan(self):
        plan = default_plan(replications=1, master_seed=3)
        table = emit_table(run_experiment(plan))
        rows = [line.split(",")[:2] for line in table.csv.splitlines()[1:]]
        assert rows == [
            ["linear", "larger"],
            ["quadratic", "larger"],
            ["threshold", "larger"],
            ["linear", "smaller"],
            ["quadratic", "smaller"],
            ["threshold", "smaller"],
        ]


def test_mc_se_consistency_across_independent_seeds():
    # Two independent runs of the same cell estimate the same truth, so
    # their rates should differ by at most ~4 combined standard errors.
    scenarios = (
        SimScenario(per_context_n=400),
        SimScenario(effect=EffectFunction.quadratic(), per_context_n=400),
    )
    comparisons = 0
    agreed = 0
    for seed_a, seed_b in ((101, 202), (303, 404)):
        a = run_experiment(ExperimentPlan(scenarios=scenarios, replications=80,
                                          master_seed=seed_a, workers=2))
        b = run_experiment(ExperimentPlan(scenarios=scenarios, replications=80,
                                          master_seed=seed_b, workers=2))
        for cell_a, cell_b in zip(a, b):
            for field in ("q_first", "q_mod2", "trend"):
                pa = getattr(cell_a, f"rej_{field}")
                pb = getattr(cell_b, f"rej_{field}")
                se = (
                    getattr(cell_a, f"mc_se_{field}") ** 2
                    + getattr(cell_b, f"mc_se_{field}") ** 2
                ) ** 0.5
                comparisons += 1
                agreed += abs(pa - pb) <= 4.0 * se + 1e-12
    assert agreed / comparisons >= 0.95


def test_manifest_contents():
    plan = small_plan(replications=2)
    results = run_experiment(plan)
    manifest = plan_manifest(plan, results, wall_seconds=1.5)
    assert manifest["plan"]["master_seed"] == 5
    assert manifest["plan"]["scenarios"][0]["per_context_n"] == 300
    assert manifest["versions"]["ctxmr"]
    assert manifest["wall_seconds"] == 1.5
    json.dumps(manifest)  # must be serializable as written


def test_manifest_rebuilds_every_scenario():
    scenarios = default_plan().scenarios + (CUSTOM_SHIFTED,)
    plan = ExperimentPlan(scenarios=scenarios, replications=1)
    manifest = json.loads(json.dumps(plan_manifest(plan, [], wall_seconds=0.0)))
    grids = [entry["grid"] for entry in manifest["plan"]["scenarios"]]
    assert grids == ["larger"] * 3 + ["smaller"] * 3 + ["custom"]
    rebuilt = []
    for entry in manifest["plan"]["scenarios"]:
        grid = entry.pop("grid")
        scenario = SimScenario(
            **{**entry, "effect": EffectFunction(**entry["effect"]),
               "alphas": tuple(entry["alphas"])}
        )
        assert scenario.grid_name == grid
        rebuilt.append(scenario)
    assert tuple(rebuilt) == scenarios
