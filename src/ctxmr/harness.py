"""Monte Carlo experiment runner and result tabulation.

The experiment runs replication-major: for each replication the harness
draws the data once and runs every cell of the plan on it (per-context
estimates, both heterogeneity tests, trend test). It then tabulates, per
cell, the fraction of replications in which each test rejected at the
chosen alpha level.

Shared draws: replication r draws context k from the stream keyed by
(master_seed, r, k) alone, so every cell with the same draw key
(contexts, per_context_n, maf) sees the same (g, u, e_x, e_y): common
random numbers across effect shapes and grids. One draw serves all those
cells (one for the whole default plan), and they differ only in the
shifts alpha_k and the effect f. The instrument-exposure slope bx does
not depend on alpha_k, so it is fitted once per draw key and exposure
coefficients; the instrument-outcome slope by is fitted once per cell.
Both are closed-form simple least squares computed row-wise on (K, n)
blocks, with no Dataset, no context partition and no QR; they agree
with the general ``context_iv`` fits to rounding. The row fits and the
context means go straight into one ``ContextTable`` per cell, the input
of all three tests.

Scheduling: with more than one worker a single process pool serves the
whole experiment. Each task is one replication and returns one outcome
per cell. Outcomes are reduced in replication order, so the tabulated
numbers are identical for any worker count. The worker count is capped
at the CPU count and at the number of replications.

Failures (for example non-convergence of an iterative fit) are recorded
for the failing cell of the replication only. Failed replications are
excluded from the denominators and counted; more than 1% failures in a
cell aborts the experiment.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import sys
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import __version__
from .errors import ConfigError, CtxMRError, ExperimentError
from .heterogeneity import q_first_order, q_modified_second_order
from .ivcore import ContextTable
from .metareg import TAU2_METHODS, trend_test
from .simulate import (
    ALPHA_GRIDS,
    EffectFunction,
    SimScenario,
    alpha_grid,
    context_blocks,
    draw_contexts,
    draw_key,
)

# The general estimation path stays reachable under these names, which
# perfbench/tracing.py wraps; the engine below does not call them.
from .datamodel import partition_by_context  # noqa: F401
from .ivcore import context_iv  # noqa: F401
from .simulate import generate_dataset  # noqa: F401

_MAX_FAILURE_RATE = 0.01

CSV_COLUMNS = (
    "scenario",
    "grid",
    "rej_q_first",
    "rej_q_mod2",
    "rej_trend",
    "mc_se_q_first",
    "mc_se_q_mod2",
    "mc_se_trend",
    "replications_completed",
    "failures",
)


@dataclass(frozen=True)
class ExperimentPlan:
    scenarios: tuple[SimScenario, ...]
    replications: int = 1000
    alpha_level: float = 0.05
    master_seed: int = 1
    workers: int = 1
    tau2_method: str = "reml"

    def __post_init__(self):
        if not self.scenarios:
            raise ConfigError("experiment plan has no scenarios")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.alpha_level < 1.0:
            raise ConfigError(f"alpha level must be in (0, 1), got {self.alpha_level}")
        if self.workers < 1:
            raise ConfigError(f"worker count must be >= 1, got {self.workers}")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")
        if self.tau2_method not in TAU2_METHODS:
            raise ConfigError(
                f"unknown tau2 method {self.tau2_method!r}; choose from {TAU2_METHODS}"
            )


@dataclass(frozen=True)
class CellResult:
    scenario: str
    grid: str
    rej_q_first: float
    rej_q_mod2: float
    rej_trend: float
    mc_se_q_first: float
    mc_se_q_mod2: float
    mc_se_trend: float
    replications_completed: int
    failures: int


@dataclass(frozen=True)
class ReplicationOutcome:
    replication: int
    p_q_first: float = float("nan")
    p_q_mod2: float = float("nan")
    p_trend: float = float("nan")
    error: str | None = None


def default_plan(
    replications: int = 1000,
    master_seed: int = 1,
    workers: int = 1,
    tau2_method: str = "reml",
) -> ExperimentPlan:
    """The six-cell design: three effect shapes by two alpha grids."""
    scenarios = [
        SimScenario(effect=effect, alphas=alpha_grid(grid_name, 10))
        for grid_name in ALPHA_GRIDS
        for effect in (
            EffectFunction.linear(),
            EffectFunction.quadratic(),
            EffectFunction.threshold(),
        )
    ]
    return ExperimentPlan(
        scenarios=tuple(scenarios),
        replications=replications,
        master_seed=master_seed,
        workers=workers,
        tau2_method=tau2_method,
    )


class _InstrumentRows:
    """Simple least squares of (K, n) responses on the instrument, row by row."""

    def __init__(self, g: np.ndarray):
        self.gc = g - g.mean(axis=1, keepdims=True)
        self.sgg = np.einsum("kn,kn->k", self.gc, self.gc)
        self.df = g.shape[1] - 2

    def fit(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slopes and classical standard errors, residual variance RSS / (n - 2)."""
        vc = v - v.mean(axis=1, keepdims=True)
        sgv = np.einsum("kn,kn->k", self.gc, vc)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = sgv / self.sgg
            rss = np.einsum("kn,kn->k", vc, vc) - beta * sgv
            se = np.sqrt(np.maximum(rss, 0.0) / (self.df * self.sgg))
        return beta, se


class SharedReplication:
    """One replication's draws and exposure fits, shared by the cells that use them."""

    def __init__(self, master_seed: int, replication: int):
        self.master_seed = master_seed
        self.replication = replication
        self._draws: dict = {}
        self._exposure_fits: dict = {}

    def context_table(self, scenario: SimScenario) -> ContextTable:
        """The context table of one cell, its rows ordered as ``partition_by_context`` orders them.

        That is by mean exposure, with the context label breaking ties.
        """
        key = draw_key(scenario)
        if key not in self._draws:
            draws = draw_contexts(self.master_seed, self.replication, *key)
            self._draws[key] = draws, _InstrumentRows(draws.g)
        draws, rows = self._draws[key]
        # alpha_k shifts a context's exposure by a constant, which leaves its
        # slope on g unchanged, so bx is fitted once without the shifts.
        exposure_key = (
            key, scenario.instrument_effect, scenario.confounder_effect_on_exposure
        )
        if exposure_key not in self._exposure_fits:
            self._exposure_fits[exposure_key] = rows.fit(
                scenario.instrument_effect * draws.g
                + scenario.confounder_effect_on_exposure * draws.u
                + draws.e_x
            )
        bx, bx_se = self._exposure_fits[exposure_key]
        x, y = context_blocks(scenario, draws)
        by, by_se = rows.fit(y)
        k = scenario.contexts
        return ContextTable.from_columns(
            [str(j + 1) for j in range(k)], bx, bx_se, by, by_se, x.mean(axis=1),
            np.full(k, scenario.per_context_n),
        )


def run_cells(
    scenarios, master_seed: int, replication: int, tau2_method: str = "reml"
) -> tuple[ReplicationOutcome, ...]:
    """One replication of every scenario on shared draws; one outcome per scenario.

    A failure is recorded in the outcome of the scenario that raised it.
    """
    shared = SharedReplication(master_seed, replication)
    outcomes = []
    for scenario in scenarios:
        try:
            table = shared.context_table(scenario)
            p1 = q_first_order(table).p
            p2 = q_modified_second_order(table).p
            p3 = trend_test(table, method=tau2_method).slope_p
        except (CtxMRError, np.linalg.LinAlgError) as err:
            outcomes.append(ReplicationOutcome(replication=replication, error=str(err)))
        else:
            outcomes.append(
                ReplicationOutcome(
                    replication=replication, p_q_first=p1, p_q_mod2=p2, p_trend=p3
                )
            )
    return tuple(outcomes)


def run_replication(
    scenario: SimScenario, master_seed: int, replication: int, tau2_method: str = "reml"
) -> ReplicationOutcome:
    """One generate-estimate-test pass; failures come back as a record."""
    (outcome,) = run_cells((scenario,), master_seed, replication, tau2_method)
    return outcome


def worker_count(requested: int, replications: int) -> int:
    """Worker processes to start: at most the CPU count and the replications."""
    return max(1, min(requested, os.cpu_count() or 1, replications))


def _summarize_cell(
    scenario: SimScenario, outcomes: list[ReplicationOutcome], alpha: float
) -> CellResult:
    failures = [o for o in outcomes if o.error is not None]
    completed = [o for o in outcomes if o.error is None]
    if len(failures) > _MAX_FAILURE_RATE * len(outcomes):
        examples = "; ".join(o.error for o in failures[:3])
        raise ExperimentError(
            f"cell {scenario.effect.kind}/{scenario.grid_name}: "
            f"{len(failures)}/{len(outcomes)} replications failed ({examples})"
        )
    r = len(completed)

    def rate_and_se(pvals):
        rate = float(np.mean([p < alpha for p in pvals])) if r else float("nan")
        return rate, float(np.sqrt(rate * (1.0 - rate) / r)) if r else float("nan")

    rej1, se1 = rate_and_se([o.p_q_first for o in completed])
    rej2, se2 = rate_and_se([o.p_q_mod2 for o in completed])
    rej3, se3 = rate_and_se([o.p_trend for o in completed])
    return CellResult(
        scenario=scenario.effect.kind,
        grid=scenario.grid_name,
        rej_q_first=rej1,
        rej_q_mod2=rej2,
        rej_trend=rej3,
        mc_se_q_first=se1,
        mc_se_q_mod2=se2,
        mc_se_trend=se3,
        replications_completed=r,
        failures=len(failures),
    )


def run_experiment(plan: ExperimentPlan) -> list[CellResult]:
    """Run every cell of the plan; deterministic given the master seed."""
    task = partial(run_cells, plan.scenarios, plan.master_seed, tau2_method=plan.tau2_method)
    workers = worker_count(plan.workers, plan.replications)
    if workers == 1:
        per_replication = [task(rep) for rep in range(plan.replications)]
    else:
        chunk = max(1, plan.replications // (workers * 8))
        with multiprocessing.Pool(processes=workers) as pool:
            per_replication = pool.map(task, range(plan.replications), chunksize=chunk)
    return [
        _summarize_cell(
            scenario, [outcomes[j] for outcomes in per_replication], plan.alpha_level
        )
        for j, scenario in enumerate(plan.scenarios)
    ]


@dataclass(frozen=True)
class TableFormats:
    text: str
    csv: str
    json: str


def emit_table(results: list[CellResult]) -> TableFormats:
    """Render cell results as aligned text, full-precision CSV, and JSON."""
    csv_lines = [",".join(CSV_COLUMNS)]
    for cell in results:
        row = asdict(cell)
        csv_lines.append(
            ",".join(
                repr(value) if isinstance(value, float) else str(value)
                for value in (row[col] for col in CSV_COLUMNS)
            )
        )
    csv_text = "\n".join(csv_lines) + "\n"

    header = (
        f"{'scenario':<10} {'grid':<8} {'q_first':>8} {'q_mod2':>8} "
        f"{'trend':>8} {'completed':>10} {'failures':>9}"
    )
    lines = [header, "-" * len(header)]
    for cell in results:
        lines.append(
            f"{cell.scenario:<10} {cell.grid:<8} "
            f"{cell.rej_q_first:>7.1%} {cell.rej_q_mod2:>7.1%} {cell.rej_trend:>7.1%} "
            f"{cell.replications_completed:>10d} {cell.failures:>9d}"
        )
    text = "\n".join(lines) + "\n"

    json_text = json.dumps({"cells": [asdict(c) for c in results]}, indent=2) + "\n"
    return TableFormats(text=text, csv=csv_text, json=json_text)


def plan_manifest(plan: ExperimentPlan, results: list[CellResult], wall_seconds: float) -> dict:
    """Reproducibility record written next to the result tables."""
    return {
        "plan": {
            "replications": plan.replications,
            "alpha_level": plan.alpha_level,
            "master_seed": plan.master_seed,
            "workers": plan.workers,
            "tau2_method": plan.tau2_method,
            "scenarios": [{**asdict(s), "grid": s.grid_name} for s in plan.scenarios],
        },
        "results": [asdict(c) for c in results],
        "versions": {
            "ctxmr": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "wall_seconds": wall_seconds,
    }
