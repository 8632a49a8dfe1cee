"""Monte Carlo experiment runner and result tabulation.

The experiment runs replication-major: for each replication the harness
draws the data once and runs every cell of the plan on it (per-context
estimates, both heterogeneity tests, trend test). It then tabulates, per
cell, the fraction of replications in which each test rejected at the
chosen alpha level.

Shared draws: replication r draws context k from the stream keyed by
(master_seed, r, k) alone, so every cell with the same draw key
(contexts, per_context_n, maf) sees the same (g, u, e_x, e_y): common
random numbers across effect shapes and grids. The cells differ only in
the shifts alpha_k, the instrument effect and the effect f. The outcome
is f(x) plus the noise e_y - u, whose row-centred form wc and row sums
of gc·wc and wc² are taken once per draw key. The instrument-exposure
slope bx does not depend on alpha_k, so its row sums are taken once per
draw key and instrument effect, on z = instrument_effect·g + u + e_x,
with z's context means: a cell's mean exposures are those plus alpha_k.
A cell therefore builds no outcome: it adds alpha_k to z, evaluates f in
place (``simulate.effect_inplace``), centres it per context, and gets
the instrument-outcome slope by and its residual sum of squares from
three row dot products (of gc·f, f² and f·wc). Every row sum of products
here is ``numerics.row_dot``, one BLAS dot per context; every centring
is numpy's pairwise mean, which a BLAS sum would not match near
``_MAX_ABS_ALPHA``. Both slopes are closed-form simple least squares
with no Dataset, no context partition and no QR; they agree with the
general ``context_iv`` fits to rounding. A cell whose exposure, outcome
or row sums overflow the float range fails with an EstimationError that
says so, as does a context whose instrument is constant (bx = 0/0),
which ``ContextTable`` refuses.

Blocks and the workspace: ``run_cells`` runs a contiguous block of
replications with one ``Workspace``. It groups the plan's cells once, by
draw key and then by instrument effect, and owns one (7, c, n) array per
draw key, c = max(1, min(K, ``_BLOCK_BYTES`` // (7·8·n))) contexts of
the four draws (``simulate.draw_context`` writes e_y into the wc row),
gc, z and x: about 1 MiB, or one context's rows when those are larger.
``Workspace.tables`` walks each key's contexts one block at a time: it
draws the block's contexts, then takes the wc sums, z, its row means and
its bx sums once per instrument effect, and f's sums once per cell, all
on the block, into (K,) arrays of per-context sums. Only then does it
build each cell's table from its sums (``_cell_table``), in plan order.
A block row's mean and ``row_dot`` equal those of the same row of a
(K, n) array, so the tables do not depend on c. Each replication
overwrites the array, so only the first replication that ``run_cells``
runs allocates (and page-faults) it, and its size does not grow with K.

Lockstep tests: once a replication's tables are built, each test runs
once over all its cells, a lane per cell (``q_first_order_lanes``,
``q_modified_second_order_lanes``, ``trend_test_lanes``): one scan over
(cells, points, contexts) and one vectorized ``refine_scan`` call per
test. A lane's result does not depend on the other lanes; it equals
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
fewer than three contexts, which the trend test cannot take, or with a
shift beyond ``_MAX_ABS_ALPHA``, is a ConfigError of the plan.
"""

from __future__ import annotations

import json
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
from .numerics import row_dot
from .simulate import (
    ALPHA_GRIDS,
    EffectFunction,
    SimScenario,
    alpha_grid,
    draw_context,
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

#: The largest |alpha_k| of a plan. The engine fits bx on z alone, taking
#: x = z + alpha_k to keep z's variation. x is stored with a rounding error
#: of up to |alpha_k|·2^-53, and z varies with sd >= sqrt(2) (u and e_x are
#: standard normal): the bound keeps that error within 2^-26 of z's sd.
_MAX_ABS_ALPHA = 2.0**27 * 2.0**0.5


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
            cell = f"cell {scenario.effect.kind}/{scenario.grid_name}"
            if scenario.contexts < 3:
                raise ConfigError(f"{cell} has {scenario.contexts} contexts; "
                                  "the trend test needs >= 3")
            alpha = max(scenario.alphas, key=abs)
            if abs(alpha) > _MAX_ABS_ALPHA:
                raise ConfigError(f"{cell} has alpha_k = {alpha:g}; beyond |alpha_k| = "
                                  f"{_MAX_ABS_ALPHA:.3g} the exposure x = z + alpha_k "
                                  "loses z's variation to rounding")


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


#: The size of a draw key's workspace block: 7 rows of each of its c contexts.
_BLOCK_BYTES = 2**20


def _slopes(sgv: np.ndarray, svv: np.ndarray, sgg: np.ndarray,
            df: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slopes on the instrument and their standard errors, per context.

    From the row sums of gc·vc, vc² and gc² of the row-centred instrument
    gc and response vc; RSS / (n - 2) estimates the residual variance.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = sgv / sgg
        rss = svv - beta * sgv
        se = np.sqrt(np.maximum(rss, 0.0) / (df * sgg))
    return beta, se


def _cell_table(scenario: SimScenario, noise: np.ndarray, exposure: np.ndarray,
                effect: np.ndarray) -> ContextTable:
    """One cell's context table from its per-context sums, rows ordered by ``from_columns``.

    ``noise`` holds the row sums of gc², gc·wc and wc², ``exposure`` z's
    row means and the row sums of gc·zc and zc², and ``effect`` the row
    sums of gc·f, f² and f·wc, with f = f(z + alpha_k) centred per context.
    The centred outcome is f + wc.
    """
    sgg, sgw, sww = noise
    zmean, sgz, szz = exposure
    sgf, sff, sfw = effect
    with np.errstate(over="ignore", invalid="ignore"):
        xmean = zmean + np.asarray(scenario.alphas)
        sgy, syy = sgf + sgw, sff + 2.0 * sfw + sww
    for name, sums in (("exposure", (xmean, sgz, szz)), ("outcome", (sgy, syy))):
        if not np.isfinite(sums).all():
            raise EstimationError(f"the simulated {name} overflows the float range")
    df = scenario.per_context_n - 2
    bx, bx_se = _slopes(sgz, szz, sgg, df)
    by, by_se = _slopes(sgy, syy, sgg, df)
    k = scenario.contexts
    return ContextTable.from_columns(
        [str(j + 1) for j in range(k)], bx, bx_se, by, by_se, xmean,
        np.full(k, scenario.per_context_n),
    )


class Workspace:
    """A (7, c, n) array per draw key for a block of replications, and the cells grouped."""

    def __init__(self, scenarios, master_seed: int):
        self.master_seed = master_seed
        self.size = len(scenarios)
        groups: dict = {}
        for j, scenario in enumerate(scenarios):
            effects = groups.setdefault(draw_key(scenario), {})
            effects.setdefault(scenario.instrument_effect, []).append((j, scenario))
        self.groups = []
        for (contexts, n, maf), effects in groups.items():
            c = max(1, min(contexts, _BLOCK_BYTES // (7 * 8 * n)))
            self.groups.append(((contexts, n, maf), np.empty((7, c, n)), effects))

    def tables(self, replication: int) -> list:
        """Each cell's context table, or the CtxMRError that building it raised, in plan order."""
        tables: list = [None] * self.size
        for (contexts, _, maf), block, effects in self.groups:
            noise = np.empty((3, contexts))
            exposures = {key: np.empty((3, contexts)) for key in effects}
            f_sums = {j: np.empty((3, contexts)) for cells in effects.values() for j, _ in cells}
            for lo in range(0, contexts, block.shape[1]):
                hi = min(lo + block.shape[1], contexts)
                g, u, e_x, wc, gc, z, x = block[:, :hi - lo]
                for i, k in enumerate(range(lo, hi)):
                    draw_context(self.master_seed, replication, k, maf, g[i], u[i], e_x[i], wc[i])
                np.subtract(g, g.mean(axis=1, keepdims=True), out=gc)
                np.subtract(wc, u, out=wc)  # e_y is read only to make wc
                wc -= wc.mean(axis=1, keepdims=True)
                noise[:, lo:hi] = row_dot(gc, gc), row_dot(gc, wc), row_dot(wc, wc)
                for instrument_effect, cells in effects.items():
                    with np.errstate(over="ignore", invalid="ignore"):
                        # alpha_k shifts a context's exposure by a constant, which leaves
                        # its slope on g unchanged, so bx is fitted once without the shifts.
                        np.multiply(instrument_effect, g, out=z)
                        z += u
                        z += e_x
                        zmean = z.mean(axis=1)
                        zc = np.subtract(z, zmean[:, None], out=x)  # until a cell overwrites x
                        exposures[instrument_effect][:, lo:hi] = (zmean, row_dot(gc, zc),
                                                                 row_dot(zc, zc))
                        for j, scenario in cells:
                            alphas = np.asarray(scenario.alphas[lo:hi])
                            f = effect_inplace(scenario.effect,
                                               np.add(z, alphas[:, None], out=x))
                            f -= f.mean(axis=1, keepdims=True)
                            f_sums[j][:, lo:hi] = row_dot(gc, f), row_dot(f, f), row_dot(f, wc)
            for instrument_effect, cells in effects.items():
                for j, scenario in cells:
                    tables[j] = lane_result(_cell_table, scenario, noise,
                                            exposures[instrument_effect], f_sums[j])
        return tables


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
    workspace = Workspace(scenarios, master_seed)
    tests = ((q_first_order_lanes, "p"), (q_modified_second_order_lanes, "p"),
             (partial(trend_test_lanes, method=tau2_method), "slope_p"))
    block = []
    for replication in replications:
        tables = workspace.tables(replication)
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
        import multiprocessing  # only a pool needs it; ``import ctxmr`` stays lighter

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
