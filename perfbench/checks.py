"""Output checks of the benchmark workloads.

Each check returns a list of problems; an empty list means the output
passed. Numbers are compared with references made by `oracle` at the
tolerances of acceptance criteria 5a, 5b and 5c, propagated to p-values.
The only ctxmr calls here are the ones that produce what is checked:
`generate_dataset` and `run_replication` for sampled simulation
replications, and `report_from_json`/`report_to_json` for the round trip.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from ctxmr.harness import run_replication
from ctxmr.report import CONTEXT_CSV_COLUMNS, report_from_json, report_to_json
from ctxmr.simulate import generate_dataset

import oracle

#: Per-context associations from two independent fits agree to this share
#: of their standard error (both solvers converge far beyond it).
ASSOC_RTOL = 1e-7
#: First-order Q has a closed form; only rounding separates the two values.
Q1_RTOL = 1e-9
#: Problem labels of the modified second-order Q test alone.
MODIFIED_Q_LABELS = ("Q modified:", "p modified:")


def _close(problems, label, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{label}: {got!r} vs reference {want!r} (tol {tol:.1e})")


def only_modified_q(problems: list[str]) -> bool:
    """True if there are problems and all are in the modified Q or its p-value."""
    return bool(problems) and all(p.startswith(MODIFIED_Q_LABELS) for p in problems)


def check_statistics(report: dict, ref: dict) -> list[str]:
    """Both Q tests and the REML trend test of a report against the oracle."""
    problems = []
    tol1, tol2, tol3 = oracle.p_tolerances(ref)
    h1, h2, trend = (report["heterogeneity_first_order"], report["heterogeneity_modified"],
                     report["trend"])
    for het in (h1, h2):
        if het["df"] != ref["k"] - 1:
            problems.append(f"{het['scheme']}: df {het['df']} for {ref['k']} contexts")
    _close(problems, "Q first-order", h1["q"], ref["q1"], Q1_RTOL * max(1.0, ref["q1"]))
    _close(problems, "p first-order", h1["p"], ref["p1"], tol1)
    _close(problems, "Q modified", h2["q"], ref["q2"], oracle.TOL_Q2)
    _close(problems, "p modified", h2["p"], ref["p2"], tol2)
    if trend is None:
        return problems + ["trend missing"]
    if trend["tau2_method"] != "reml":
        problems.append(f"trend tau2 method {trend['tau2_method']!r}")
    _close(problems, "tau2", trend["tau2"], ref["trend"]["tau2"], oracle.TOL_TAU2)
    _close(problems, "trend slope", trend["slope"], ref["trend"]["slope"], oracle.TOL_SLOPE)
    _close(problems, "trend p", trend["slope_p"], ref["trend"]["p"], tol3)
    return problems


def check_report_dict(report: dict, ref: dict, mode: str) -> list[str]:
    """Counts, per-context rows and statistics of a parsed report.json."""
    problems = []
    config = report["config"]
    if config.get("mode") != mode:
        problems.append(f"report mode {config.get('mode')!r}, expected {mode!r}")
    if mode == "individual":
        for key in ("n_records", "n_dropped"):
            if config.get(key) != ref[key]:
                problems.append(f"{key} {config.get(key)} vs generated {ref[key]}")
    rows = report["contexts"]
    if sorted(r["context"] for r in rows) != sorted(ref["contexts"]):
        return problems + ["context labels differ from the generated ones"]
    means = [r["exposure_mean"] for r in rows]
    if means != sorted(means):
        problems.append("contexts not ordered by mean exposure")
    for row in rows:
        want = ref["contexts"][row["context"]]
        label = row["context"]
        if row["n"] != want["n"]:
            problems.append(f"{label}: n {row['n']} vs {want['n']}")
        _close(problems, f"{label} exposure mean", row["exposure_mean"],
               want["exposure_mean"], 1e-10 * abs(want["exposure_mean"]))
        for key in ("bx", "by"):
            se = want[key + "_se"]
            _close(problems, f"{label} {key}", row[key], want[key], ASSOC_RTOL * se)
            _close(problems, f"{label} {key}_se", row[key + "_se"], se, ASSOC_RTOL * se)
    return problems + check_statistics(report, ref)


def check_round_trip(text: str) -> list[str]:
    if report_to_json(report_from_json(text)) != text:
        return ["report.json does not round-trip exactly"]
    return []


def check_table_csv(report: dict, table: str) -> list[str]:
    """report.csv carries the report.json per-context values at full precision."""
    parsed = list(csv.DictReader(io.StringIO(table)))
    if len(parsed) != len(report["contexts"]):
        return [f"report.csv has {len(parsed)} rows for {len(report['contexts'])} contexts"]
    for got, want in zip(parsed, report["contexts"]):
        for col in CONTEXT_CSV_COLUMNS:
            value = want[col]
            expected = "NA" if value is None else repr(value) if isinstance(value, float) \
                else str(value)
            if got.get(col) != expected:
                return [f"report.csv {col} of {want['context']}: {got.get(col)!r} "
                        f"vs report.json {expected!r}"]
    return []


def check_cli_report(code, files, ref: dict, mode: str) -> list[str]:
    """Exit code, the three report files and their contents."""
    if code != 0:
        return [f"exit code {code}"]
    text, rendered, table = files
    missing = [name for name, content in zip(("report.json", "report.txt", "report.csv"),
                                             files) if content is None]
    if missing:
        return [f"missing {', '.join(missing)}"]
    report = json.loads(text)
    problems = check_round_trip(text) + check_table_csv(report, table)
    for het in ("heterogeneity_first_order", "heterogeneity_modified"):
        if f"Q = {report[het]['q']:.3g}," not in rendered:
            problems.append(f"report.txt does not show {het} Q")
    return problems + check_report_dict(report, ref, mode)


def check_report_object(result, text: str, ref: dict) -> list[str]:
    """An in-memory AnalysisReport and its JSON text."""
    problems = check_round_trip(text)
    if report_from_json(text) != result:
        problems.append("report_from_json(report_to_json(report)) != report")
    return problems + check_report_dict(json.loads(text), ref, "individual")


def simulation_reference(ds) -> dict:
    """Oracle statistics of one simulated dataset, by closed-form per-context OLS."""
    rows = []
    for label in np.unique(ds.context):
        at = ds.context == label
        g, x, y = ds.instrument[at], ds.exposure[at], ds.outcome[at]
        rows.append((*oracle.simple_ols(g, x), *oracle.simple_ols(g, y), float(x.mean())))
    bx, bx_se, by, by_se, means = (np.array(col) for col in zip(*rows))
    return oracle.summary_reference(bx, bx_se, by, by_se, means, scale=1.0)


def check_replication(outcome, ref: dict) -> list[str]:
    """p-values of run_replication against the oracle for the same dataset."""
    if outcome.error is not None:
        return [f"replication {outcome.replication} failed: {outcome.error}"]
    problems = []
    tol1, tol2, tol3 = oracle.p_tolerances(ref)
    _close(problems, "p first-order", outcome.p_q_first, ref["p1"], tol1)
    _close(problems, "p modified", outcome.p_q_mod2, ref["p2"], tol2)
    _close(problems, "trend p", outcome.p_trend, ref["trend"]["p"], tol3)
    return [f"replication {outcome.replication}: {p}" for p in problems]


def check_sim_op(plan, cells, cell_index: int) -> list[str]:
    """One run_experiment result.

    Every replication completes. The linear cell has identical Q rejection
    counts on both grids: a per-context exposure shift leaves the slopes,
    hence the ratio estimates and their variances, unchanged. Every
    replication of one sampled cell is recomputed and matched to the oracle,
    and the cell's rejection rates must follow from those p-values.
    """
    problems = []
    by_key = {(c.scenario, c.grid): c for c in cells}
    if len(cells) != len(plan.scenarios):
        problems.append(f"{len(cells)} cells for {len(plan.scenarios)} scenarios")
    for c in cells:
        if c.failures or c.replications_completed != plan.replications:
            problems.append(f"{c.scenario}/{c.grid}: {c.replications_completed} completed, "
                            f"{c.failures} failed of {plan.replications}")
    larger, smaller = by_key.get(("linear", "larger")), by_key.get(("linear", "smaller"))
    if larger is None or smaller is None:
        problems.append("linear cells missing")
    elif (larger.rej_q_first, larger.rej_q_mod2) != (smaller.rej_q_first, smaller.rej_q_mod2):
        problems.append("linear cell Q rejection rates differ between the two grids")

    scenario = plan.scenarios[cell_index]
    cell = cells[cell_index] if cell_index < len(cells) else None
    outcomes = []
    for rep in range(plan.replications):
        outcome = run_replication(scenario, plan.master_seed, rep, plan.tau2_method)
        ref = simulation_reference(generate_dataset(scenario, plan.master_seed, rep))
        problems += check_replication(outcome, ref)
        outcomes.append(outcome)
    if cell is not None and all(o.error is None for o in outcomes):
        alpha = plan.alpha_level
        for field, attr in (("rej_q_first", "p_q_first"), ("rej_q_mod2", "p_q_mod2"),
                            ("rej_trend", "p_trend")):
            want = float(np.mean([getattr(o, attr) < alpha for o in outcomes]))
            if getattr(cell, field) != want:
                problems.append(f"{cell.scenario}/{cell.grid} {field} "
                                f"{getattr(cell, field)} vs {want} from its replications")
    return problems
