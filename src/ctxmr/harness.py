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
shifts alpha_k, the instrument effect and the effect f. The outcome is
f(x) plus the noise e_y - u, whose row-centred form wc and row sums of
gc·wc and wc² are kept with the draws. The instrument-exposure slope bx
does not depend on alpha_k, so its row sums are taken once per draw key
and instrument effect, on z = instrument_effect·g + u + e_x. A cell
therefore builds no outcome: it adds alpha_k to z, takes the context
means, evaluates f in place (``simulate.effect_inplace``), centres it per
context, and gets the instrument-outcome slope by and its residual sum of
squares from three row dot products. Both slopes are closed-form simple
least squares with no Dataset, no context partition and no QR; they
agree with the general ``context_iv`` fits to rounding. The slopes and
the context means go straight into one ``ContextTable`` per cell. A cell
whose exposure, outcome or row sums overflow the float range fails with
an EstimationError that says so.

Blocks and the workspace: ``run_cells`` runs a contiguous block of
replications with one ``Workspace``, which owns every (K, n) array of
the block: per draw key the four draws (filled in place by
``simulate.draw_contexts``; wc is then written over e_y, which nothing
else reads), gc, z per instrument effect and one x that the cells share.
Each replication overwrites them, so only the first replication of a
block allocates (and page-faults) them.

Lockstep tests: once a replication's tables are built, each test runs
once over all its cells, a lane per cell (``q_first_order_lanes``,
``q_modified_second_order_lanes``, ``trend_test_lanes``): one scan over
(cells, points, contexts) and one vectorized ``newton_in_bracket`` call
per test. A lane's result does not depend on the other lanes; it equals
the one-lane ``q_first_order``, ``q_modified_second_order`` and
``trend_test`` of that table to the last bit.

Scheduling: with more than one worker a single process pool serves the
whole experiment. Each task is one block of replications
(``replication_blocks``) and returns one outcome per cell and
replication. Outcomes are reduced in replication order, so the tabulated
numbers are identical for any worker count and any blocking. The worker
count is capped at the CPU count and at the number of replications.

Failures (for example non-convergence of an iterative fit) are recorded
for the failing cell of the replication only: its first error, from its
table, then the first-order Q, the modified Q and the trend test, in
that order. Failed replications are excluded from the denominators and
counted; more than 1% failures in a cell aborts the experiment with an
error that names each distinct message once, with its count. A cell of
fewer than three contexts, which the trend test cannot take, is a
ConfigError of the plan.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import sys
from collections import Counter
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import __version__
from .datamodel import csv_text, shallow_dict
from .errors import ConfigError, CtxMRError, EstimationError, ExperimentError, lane_result
from .heterogeneity import q_first_order_lanes, q_modified_second_order_lanes
from .ivcore import ContextTable
from .metareg import TAU2_METHODS, trend_test_lanes
from .simulate import (
    ALPHA_GRIDS,
    ContextDraws,
    EffectFunction,
    SimScenario,
    alpha_grid,
    draw_contexts,
    draw_key,
    effect_inplace,
)

# The general estimation path and the one-lane tests stay reachable under
# these names, which perfbench/tracing.py wraps; the engine below calls
# none of them.
from .datamodel import partition_by_context  # noqa: F401
from .heterogeneity import q_first_order, q_modified_second_order  # noqa: F401
from .ivcore import context_iv  # noqa: F401
from .metareg import trend_test  # noqa: F401
from .simulate import generate_dataset  # noqa: F401

_MAX_FAILURE_RATE = 0.01


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
        for scenario in self.scenarios:
            if scenario.contexts < 3:
                raise ConfigError(
                    f"cell {scenario.effect.kind}/{scenario.grid_name} has "
                    f"{scenario.contexts} contexts; the trend test needs >= 3"
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


#: The columns of ``table.csv``: the fields of a cell result, in order.
CSV_COLUMNS = tuple(f.name for f in fields(CellResult))


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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b."""
    return np.einsum("kn,kn->k", a, b)


class _InstrumentRows:
    """Simple least squares of (K, n) responses on the instrument, row by row."""

    def __init__(self, g: np.ndarray, gc: np.ndarray):
        self.gc = np.subtract(g, g.mean(axis=1, keepdims=True), out=gc)
        self.sgg = _row_dot(self.gc, self.gc)
        self.df = g.shape[1] - 2

    def sums(self, vc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The row sums of gc·vc and vc² of the row-centred responses vc."""
        return _row_dot(self.gc, vc), _row_dot(vc, vc)

    def slopes(self, sgv: np.ndarray, svv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slopes and standard errors from the row sums of gc·vc and vc²; RSS / (n - 2)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = sgv / self.sgg
            rss = svv - beta * sgv
            se = np.sqrt(np.maximum(rss, 0.0) / (self.df * self.sgg))
        return beta, se


class _Buffers:
    """The (K, n) arrays of one draw key: the draws, gc, x, and z per instrument effect."""

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape
        self.draws = ContextDraws(*(np.empty(shape) for _ in range(4)))
        self.gc, self.x = np.empty(shape), np.empty(shape)
        self.z: dict[float, np.ndarray] = {}

    def exposure(self, instrument_effect: float) -> np.ndarray:
        if instrument_effect not in self.z:
            self.z[instrument_effect] = np.empty(self.shape)
        return self.z[instrument_effect]


class Workspace:
    """The arrays of one block of replications, and the cell-independent parts of their fits.

    It owns, per draw key, the (K, n) arrays of ``_Buffers``, which every
    replication of the block overwrites; ``reset`` starts a replication and
    forgets the row sums of the one before. Within a replication it keeps,
    per draw key, the draws, the centred instrument and the row-centred
    outcome noise wc = e_y - u - mean with its row sums of gc·wc and wc²;
    per draw key and instrument effect, z = instrument_effect·g + u + e_x
    with the row sums of its bx fit. Cells with one draw key share one x.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self.replication = 0
        self._buffers: dict = {}
        self._draws: dict = {}
        self._exposures: dict = {}

    def reset(self, replication: int) -> None:
        """Start replication ``replication``: its draws are made when a cell needs them."""
        self.replication = replication
        self._draws.clear()
        self._exposures.clear()

    def context_table(self, scenario: SimScenario) -> ContextTable:
        """The context table of one cell, its rows ordered by ``ContextTable.from_columns``.

        That is by mean exposure, with the context label breaking ties.
        The centred outcome is f + wc, with f = f(x) centred per context,
        so by and its RSS follow from the row sums of gc·f, f² and f·wc.
        Every (K, n) array is written into the workspace's buffers.
        """
        key = draw_key(scenario)
        if key not in self._buffers:
            self._buffers[key] = _Buffers((scenario.contexts, scenario.per_context_n))
        buffers = self._buffers[key]
        draws, x = buffers.draws, buffers.x
        wc = draws.e_y  # e_y is read only to make wc, which takes its place
        if key not in self._draws:
            draw_contexts(self.master_seed, self.replication, *key, out=draws)
            rows = _InstrumentRows(draws.g, buffers.gc)
            np.subtract(draws.e_y, draws.u, out=wc)
            wc -= wc.mean(axis=1, keepdims=True)
            self._draws[key] = rows, *rows.sums(wc)
        rows, sgw, sww = self._draws[key]
        with np.errstate(over="ignore", invalid="ignore"):
            # alpha_k shifts a context's exposure by a constant, which leaves
            # its slope on g unchanged, so bx is fitted once without the shifts.
            z = buffers.exposure(scenario.instrument_effect)
            exposure_key = key, scenario.instrument_effect
            if exposure_key not in self._exposures:
                np.multiply(scenario.instrument_effect, draws.g, out=z)
                z += draws.u
                z += draws.e_x
                # x holds the centred z until the cell overwrites it.
                self._exposures[exposure_key] = rows.sums(
                    np.subtract(z, z.mean(axis=1, keepdims=True), out=x))
            sgz, szz = self._exposures[exposure_key]
            np.add(z, np.asarray(scenario.alphas)[:, None], out=x)
            xmean = x.mean(axis=1)
            f = effect_inplace(scenario.effect, x)
            f -= f.mean(axis=1, keepdims=True)
            sgf, sff = rows.sums(f)
            sgy, syy = sgf + sgw, sff + 2.0 * _row_dot(f, wc) + sww
        for name, sums in (("exposure", (xmean, sgz, szz)), ("outcome", (sgy, syy))):
            if not np.isfinite(sums).all():
                raise EstimationError(f"the simulated {name} overflows the float range")
        bx, bx_se = rows.slopes(sgz, szz)
        by, by_se = rows.slopes(sgy, syy)
        k = scenario.contexts
        return ContextTable.from_columns(
            [str(j + 1) for j in range(k)], bx, bx_se, by, by_se, xmean,
            np.full(k, scenario.per_context_n),
        )


def run_cells(
    scenarios, master_seed: int, replications: range, tau2_method: str = "reml"
) -> list[tuple[ReplicationOutcome, ...]]:
    """A block of replications of every scenario; per replication, one outcome per scenario.

    One ``Workspace`` serves the whole block. In each replication every
    scenario's context table is built on the shared draws, and then the
    three tests run in lockstep over the scenarios, each test on the
    scenarios that passed the ones before (first-order Q, modified Q,
    trend). A failure is recorded in the outcome of the scenario that
    raised it: the first error of its table or tests, in that order.
    """
    workspace = Workspace(master_seed)
    tests = ((q_first_order_lanes, "p"), (q_modified_second_order_lanes, "p"),
             (partial(trend_test_lanes, method=tau2_method), "slope_p"))
    block = []
    for replication in replications:
        workspace.reset(replication)
        tables = [lane_result(workspace.context_table, s) for s in scenarios]
        errors = [t if isinstance(t, CtxMRError) else None for t in tables]
        pvalues: list[list[float]] = [[] for _ in scenarios]
        for test, p_name in tests:
            live = [j for j, error in enumerate(errors) if error is None]
            for j, result in zip(live, test([tables[j] for j in live])):
                if isinstance(result, CtxMRError):
                    errors[j] = result
                else:
                    pvalues[j].append(getattr(result, p_name))
        block.append(tuple(
            ReplicationOutcome(replication, *p) if error is None
            else ReplicationOutcome(replication=replication, error=str(error))
            for error, p in zip(errors, pvalues)
        ))
    return block


def run_replication(
    scenario: SimScenario, master_seed: int, replication: int, tau2_method: str = "reml"
) -> ReplicationOutcome:
    """One generate-estimate-test pass; failures come back as a record."""
    ((outcome,),) = run_cells((scenario,), master_seed, range(replication, replication + 1),
                              tau2_method)
    return outcome


def replication_blocks(replications: int, workers: int) -> list[range]:
    """The contiguous blocks of replications that ``run_experiment`` hands out.

    One block for a serial run; for a process pool, blocks of about an
    eighth of a worker's share, so that the workers finish close together.
    """
    size = replications if workers == 1 else max(1, replications // (workers * 8))
    return [range(start, min(start + size, replications))
            for start in range(0, replications, size)]


def worker_count(requested: int, replications: int) -> int:
    """Worker processes to start: at most the CPU count and the replications."""
    return max(1, min(requested, os.cpu_count() or 1, replications))


def _summarize_cell(
    scenario: SimScenario, outcomes: list[ReplicationOutcome], alpha: float
) -> CellResult:
    failures = [o for o in outcomes if o.error is not None]
    completed = [o for o in outcomes if o.error is None]
    if len(failures) > _MAX_FAILURE_RATE * len(outcomes):
        counts = Counter(o.error for o in failures)  # first-seen order
        examples = "; ".join(f"{n}x {message}" for message, n in list(counts.items())[:3])
        if len(counts) > 3:
            examples += f"; {len(counts) - 3} more distinct errors"
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
    blocks = replication_blocks(plan.replications, workers)
    if workers == 1:
        per_block = [task(block) for block in blocks]
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            per_block = pool.map(task, blocks, chunksize=1)
    per_replication = [outcomes for block in per_block for outcomes in block]
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
    csv = csv_text(CSV_COLUMNS, ([getattr(c, name) for name in CSV_COLUMNS] for c in results))

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

    json_text = json.dumps({"cells": [shallow_dict(c) for c in results]}, indent=2) + "\n"
    return TableFormats(text=text, csv=csv, json=json_text)


def plan_manifest(plan: ExperimentPlan, results: list[CellResult], wall_seconds: float) -> dict:
    """Reproducibility record written next to the result tables."""
    return {
        "plan": {
            "replications": plan.replications,
            "alpha_level": plan.alpha_level,
            "master_seed": plan.master_seed,
            "workers": plan.workers,
            "tau2_method": plan.tau2_method,
            "scenarios": [
                {**shallow_dict(s), "effect": shallow_dict(s.effect), "grid": s.grid_name}
                for s in plan.scenarios
            ],
        },
        "results": [shallow_dict(c) for c in results],
        "versions": {
            "ctxmr": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "wall_seconds": wall_seconds,
    }
