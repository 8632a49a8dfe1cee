"""Tests for the Monte Carlo experiment runner."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ctxmr import harness
from ctxmr.datamodel import partition_by_context
from ctxmr.errors import ConfigError, EstimationError, ExperimentError
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
from ctxmr.numerics import row_dot
from ctxmr.simulate import (
    EffectFunction,
    SimScenario,
    draw_context,
    draw_key,
    effect_inplace,
    generate_dataset,
)

from fixtures import context_table


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

    @pytest.mark.parametrize("alpha", [1.9e8, -1e300])
    def test_shift_that_rounds_away_the_exposure_variation_is_rejected(self, alpha):
        # x = z + alpha_k would keep under half of float64's precision of z's
        # variation, so the engine's bx, fitted on z alone, would not be x's.
        message = (f"cell linear/custom has alpha_k = {alpha:g}; beyond |alpha_k| = 1.9e+08 "
                   "the exposure x = z + alpha_k loses z's variation to rounding")
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_plan(scenarios=(SimScenario(alphas=(8.0, alpha, 9.0), per_context_n=300),))
        small_plan(scenarios=(SimScenario(alphas=(8.0, -1.8e8, 9.0), per_context_n=300),))

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

# Same draws and instrument effect as CUSTOM_SHIFTED; its outcome overflows.
OVERFLOWING_SHIFTED = replace(CUSTOM_SHIFTED, effect=EffectFunction.quadratic(coefficient=1e308))


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
        for scenario, fast in zip(scenarios, Workspace(scenarios, master_seed=11).tables(
                replication)):
            part = partition_by_context(generate_dataset(scenario, 11, replication), min_n=2)
            general = context_table(part.contexts)
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

    @pytest.mark.parametrize("alpha", [1e4, 1e6, 1.5e8])
    def test_context_means_match_the_generated_exposure(self, alpha):
        # The engine takes a context's mean exposure as z's row mean plus
        # alpha_k, with no pass over x. Only xmean is compared: at these
        # shifts the general path fits bx on the rounded x, so bx differs.
        cells = _far_cells(alpha)
        for scenario, fast in zip(cells, Workspace(cells, master_seed=11).tables(2)):
            exposure = generate_dataset(scenario, 11, 2).exposure
            means = exposure.reshape(scenario.contexts, scenario.per_context_n).mean(axis=1)
            rows = [int(label) - 1 for label in fast.labels]
            np.testing.assert_allclose(fast.xmean, means[rows], rtol=1e-14, atol=0.0)

    def test_cell_outcome_does_not_depend_on_the_other_cells(self):
        plans = (
            default_plan().scenarios + (CUSTOM, CUSTOM_SHIFTED),
            # Two draw keys, two instrument effects on one of them, in
            # alternating order, with a cell whose outcome overflows.
            (CUSTOM, SimScenario(per_context_n=300), CUSTOM_SHIFTED,
             SimScenario(effect=EffectFunction.quadratic(), per_context_n=300),
             OVERFLOWING_SHIFTED, CUSTOM),
        )
        for cells in plans:
            alone = [run_replication(s, 4, 2) for s in cells]
            assert list(run_cells(cells, 4, range(2, 3))[0]) == alone
        assert [o.error for o in alone] == [None] * 4 + [
            "the simulated outcome overflows the float range", None]

    def test_failure_is_recorded_for_its_cell_only(self):
        overflow = SimScenario(
            effect=EffectFunction.quadratic(coefficient=1e308), per_context_n=300
        )
        good = SimScenario(per_context_n=300)
        ((first, bad, last),) = run_cells((good, overflow, good), 5, range(1, 2))
        assert bad.error == "the simulated outcome overflows the float range"
        assert first == last == run_replication(good, 5, 1)
        assert first.error is None

    def test_constant_instrument_fails_naming_its_context(self):
        # With maf 0.03 and 10 people per context, about half the contexts
        # draw no allele: bx = 0/0, which the context table refuses, so no
        # test sees the replication.
        cell = SimScenario(per_context_n=10, maf=0.03)
        outcomes = [outcome for (outcome,) in run_cells((cell,), 5, range(4))]
        for outcome in outcomes:
            assert re.fullmatch(r"context '\d+': instrument-exposure association nan is "
                                "indistinguishable from zero", outcome.error), outcome.error
        (error,) = Workspace((cell,), master_seed=5).tables(0)
        assert isinstance(error, EstimationError)
        assert str(error) == outcomes[0].error


def _whole_array_table(scenario: SimScenario, master_seed: int, replication: int):
    """A cell's table from its sums over whole (K, n) arrays, one draw of all K contexts."""
    contexts, per_context_n, maf = draw_key(scenario)
    g, u, e_x, e_y = draws = np.empty((4, contexts, per_context_n))
    for k in range(contexts):
        draw_context(master_seed, replication, k, maf, *draws[:, k])
    gc = g - g.mean(axis=1, keepdims=True)
    wc = e_y - u
    wc -= wc.mean(axis=1, keepdims=True)
    z = scenario.instrument_effect * g
    z += u
    z += e_x
    zmean = z.mean(axis=1)
    zc = z - zmean[:, None]
    f = effect_inplace(scenario.effect, z + np.asarray(scenario.alphas)[:, None])
    f -= f.mean(axis=1, keepdims=True)
    return harness._cell_table(
        scenario,
        np.array([row_dot(gc, gc), row_dot(gc, wc), row_dot(wc, wc)]),
        np.array([zmean, row_dot(gc, zc), row_dot(zc, zc)]),
        np.array([row_dot(gc, f), row_dot(f, f), row_dot(f, wc)]),
    )


def _cells(contexts: int, per_context_n: int) -> tuple[SimScenario, ...]:
    alphas = tuple(8.0 + 2.0 * j / contexts for j in range(contexts))
    return tuple(SimScenario(effect=effect, alphas=alphas, per_context_n=per_context_n)
                 for effect in (EffectFunction.linear(), EffectFunction.quadratic(),
                                EffectFunction.threshold()))


class TestBlockedWorkspace:
    """A draw key's contexts are walked in blocks of about ``_BLOCK_BYTES``."""

    @pytest.mark.parametrize("cells, block_rows", [
        (default_plan().scenarios, 1),  # n = 10,000: one context per block
        (_cells(186, 200), 93),  # two full blocks of many contexts
        (_cells(22, 2000), 9),  # blocks of 9, 9 and 4 contexts
    ], ids=["six-cell", "many-per-block", "partial-last-block"])
    def test_tables_equal_the_whole_array_sums(self, cells, block_rows):
        workspace = Workspace(cells, master_seed=11)
        assert [block.shape[1] for _, block, _ in workspace.groups] == [block_rows]
        for replication in (0, 3):
            for scenario, table in zip(cells, workspace.tables(replication)):
                reference = _whole_array_table(scenario, 11, replication)
                for name in ("labels", "bx", "bx_se", "by", "by_se", "xmean", "n"):
                    assert (getattr(table, name) == getattr(reference, name)).all(), name

    def test_workspace_memory_does_not_grow_with_the_contexts(self):
        # The whole (7, K, n) array of this cell would take 22.4 MB.
        cell = _cells(200, 2000)[0]
        Workspace((cell,), master_seed=11).tables(0)  # a first draw imports modules
        tracemalloc.start()
        try:
            (table,) = Workspace((cell,), master_seed=11).tables(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 200
        assert peak < 2_000_000


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


def test_import_does_not_load_multiprocessing():
    # Only a process pool needs it; analyze and meta never start one.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ctxmr.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"
