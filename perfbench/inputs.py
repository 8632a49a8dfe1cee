"""Seeded input generators for the benchmark workloads, with their references.

Every input is a function of the workload seed, except six summary sets
that are the same for every seed (see FIXED_POOL_SEED). The generators
write files that the workload process reads; the reference values that
the checks compare against are computed here, from the generator's own
clean arrays, by `oracle` and never by ctxmr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fixtures import CENTRE_SIZES, small_sizes, synthetic_cohort  # noqa: E402

#: Exposure log-OR of the cohort's outcome per exposure unit, so the
#: trend and Q tests see a real (small) effect.
EXPOSURE_LOG_OR = 0.01

#: The CSV cohort is the full cohort with every centre divided by this
#: (at least 150 rows each), so one `analyze` call takes well under a
#: second and a run holds enough calls for a steady median.
CSV_SIZE_DIVISOR = 8
#: Share of CSV rows that carry one NA or blank mapped cell.
MISSING_ROW_SHARE = 0.01
#: Unparseable tokens written into the age column, one row each.
BAD_AGE_TOKENS = ("57..2", "unknown", "5x7", "?", "n/a")

COLUMNS = ("score", "vitd", "chd", "centre", "age", "sex")
SCALE = 10.0

# Summary-set pool of the meta workload: for every number of contexts, four
# (heterogeneity, bx precision) kinds. Sets of the kind with strong
# heterogeneity and imprecise bx do not depend on --seed: they are drawn
# from FIXED_POOL_SEED, so the ones the program gets wrong are the same in
# every run (see KNOWN_Q2_FAULTS).
POOL_K = (10, 20, 30, 40, 50, 60)
POOL_KINDS = (("none", "high"), ("none", "low"), ("high", "high"), ("high", "low"))
FIXED_KIND = ("high", "low")
#: The first seed from 0 whose six fixed-kind sets include one the
#: program gets wrong (seeds 0-22 give none).
FIXED_POOL_SEED = 23
#: Sets on which q_modified_second_order returns a local, not the global,
#: minimum of the modified Q(b) (a fault in the program, recorded in
#: CHANGES.md). Their Q2 and p2 fail the check in every run; the benchmark
#: counts those operations as failed and leaves them out of the timings.
KNOWN_Q2_FAULTS = frozenset({"k20-high-low"})


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, stream]))


def cohort(seed: int, stream: int, sizes) -> dict:
    """The 20-centre cohort of tests/fixtures.py as columns, centres C01..C20.

    Covariates age and sex; the outcome depends on the exposure with
    EXPOSURE_LOG_OR per unit.
    """
    fixture_seed = int(np.random.SeedSequence([seed % 2**63, stream]).generate_state(1)[0])
    ds = synthetic_cohort(fixture_seed, sizes=sizes, log_or_per_exposure_unit=EXPOSURE_LOG_OR)
    return {"score": ds.instrument, "vitd": ds.exposure, "chd": ds.outcome,
            "centre": ds.context, "age": ds.covariates[:, 0], "sex": ds.covariates[:, 1]}


def cohort_reference(data: dict) -> dict:
    """Per-centre n, mean exposure, bx and by, then both Q tests and the trend.

    bx: least squares of exposure on score, age and sex; by: Newton-Raphson
    logistic fit of the outcome on the same design. Estimates are taken per
    SCALE exposure units, as the report gives them.
    """
    rows = {}
    for label in np.unique(data["centre"]):
        at = data["centre"] == label
        score, vitd, chd = data["score"][at], data["vitd"][at], data["chd"][at]
        age, sex = data["age"][at], data["sex"][at]
        X = np.column_stack([np.ones(score.size), score, age, sex])
        bx, bx_se = oracle.ols_coef(X, vitd)
        Xc = np.column_stack([np.ones(score.size), score, age - age.mean(), sex - sex.mean()])
        by, by_se = oracle.logistic_coef(Xc, chd)
        rows[str(label)] = {
            "n": int(score.size), "exposure_mean": float(vitd.mean()),
            "bx": bx, "bx_se": bx_se, "by": by, "by_se": by_se,
        }
    labels = sorted(rows)
    col = {key: np.array([rows[c][key] for c in labels]) for key in rows[labels[0]]}
    ref = oracle.summary_reference(col["bx"], col["bx_se"], col["by"], col["by_se"],
                                   col["exposure_mean"], SCALE)
    ref["contexts"] = rows
    return ref


def write_cohort_csv(path: Path, seed: int) -> dict:
    """The CSV of the analyze_csv workload; returns its reference.

    About 1% of rows get one NA or blank mapped cell and five rows an
    unparseable age; the program must drop exactly those rows.
    """
    data = cohort(seed, 1, small_sizes(CSV_SIZE_DIVISOR))
    rng = _rng(seed, 1)
    total = data["score"].size
    n_missing = round(MISSING_ROW_SHARE * total)
    spoiled = rng.choice(total, size=n_missing + len(BAD_AGE_TOKENS), replace=False)
    cells = [
        [repr(float(data["score"][i])), repr(float(data["vitd"][i])), str(int(data["chd"][i])),
         str(data["centre"][i]), repr(float(data["age"][i])),
         str(int(data["sex"][i]))]
        for i in range(total)
    ]
    missing_cols = rng.integers(0, len(COLUMNS), size=n_missing)
    for j, row in enumerate(spoiled[:n_missing]):
        cells[row][missing_cols[j]] = "NA" if j % 2 else ""
    for token, row in zip(BAD_AGE_TOKENS, spoiled[n_missing:]):
        cells[row][COLUMNS.index("age")] = token
    lines = [",".join(COLUMNS)] + [",".join(row) for row in cells]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    keep = np.ones(total, dtype=bool)
    keep[spoiled] = False
    ref = cohort_reference({name: col[keep] for name, col in data.items()})
    ref["n_records"] = int(keep.sum())
    ref["n_dropped"] = int(spoiled.size)
    ref["file_bytes"] = path.stat().st_size
    return ref


def write_cohort_arrays(path: Path, seed: int) -> dict:
    """The full-size in-memory cohort of analyze_logistic; returns its reference."""
    data = cohort(seed, 2, CENTRE_SIZES)
    np.savez(path, **data)
    ref = cohort_reference(data)
    ref["n_records"] = int(data["score"].size)
    ref["n_dropped"] = 0
    return ref


def summary_set(rng: np.random.Generator, k: int, het: str, prec: str) -> dict:
    """One set of k context summaries of the given heterogeneity and bx precision.

    `none` sets are under-dispersed (residual noise a quarter of the stated
    se), so REML puts tau2 on its zero boundary; `high` sets add a
    between-context sd of 0.1 in the ratio, about ten times the sampling
    variance. Low bx precision means |bx|/se(bx) near 5.
    """
    xmean = np.sort(rng.uniform(50.0, 58.0, size=k))
    n = rng.integers(1000, 30000, size=k)
    bx = rng.uniform(0.3, 0.6, size=k)
    bx_se = rng.uniform(0.01, 0.02, size=k) if prec == "high" \
        else rng.uniform(0.06, 0.12, size=k)
    by_se = rng.uniform(0.005, 0.02, size=k)
    theta = 0.05 + 0.01 * (xmean - 54.0)
    if het == "none":
        by = theta * bx + 0.25 * by_se * rng.standard_normal(k)
    else:
        by = (theta + 0.1 * rng.standard_normal(k)) * bx + by_se * rng.standard_normal(k)
    return {"name": f"k{k}-{het}-{prec}", "context": [f"S{j + 1:02d}" for j in range(k)],
            "bx": bx, "bx_se": bx_se, "by": by, "by_se": by_se, "xmean": xmean, "n": n}


def summary_pool(seed: int) -> list[dict]:
    """Summary sets for the meta workload, one per pool combination."""
    seeded, fixed = _rng(seed, 3), _rng(FIXED_POOL_SEED, 5)
    return [summary_set(fixed if (het, prec) == FIXED_KIND else seeded, k, het, prec)
            for k in POOL_K for het, prec in POOL_KINDS]


def write_summary_pool(directory: Path, seed: int) -> list[dict]:
    """One summary CSV per pool set; returns the file names and references."""
    entries = []
    for item in summary_pool(seed):
        path = directory / f"{item['name']}.csv"
        lines = ["context,bx,bx_se,by,by_se,xmean,n"]
        for j, label in enumerate(item["context"]):
            lines.append(",".join([label] + [repr(float(item[c][j])) for c in
                                             ("bx", "bx_se", "by", "by_se", "xmean")]
                                  + [str(int(item["n"][j]))]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ref = oracle.summary_reference(item["bx"], item["bx_se"], item["by"],
                                       item["by_se"], item["xmean"], SCALE)
        ref["contexts"] = {
            label: {"n": int(item["n"][j]), "exposure_mean": float(item["xmean"][j]),
                    "bx": float(item["bx"][j]), "bx_se": float(item["bx_se"][j]),
                    "by": float(item["by"][j]), "by_se": float(item["by_se"][j])}
            for j, label in enumerate(item["context"])
        }
        ref["known_q2_fault"] = item["name"] in KNOWN_Q2_FAULTS
        entries.append({"file": path.name, "ref": ref})
    return entries


def prepare(workload: str, seed: int, directory: Path) -> None:
    """Write the inputs of one workload run and `reference.json` into directory."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "analyze_csv":
        ref = write_cohort_csv(directory / "cohort.csv", seed)
    elif workload == "analyze_logistic":
        ref = write_cohort_arrays(directory / "cohort.npz", seed)
    elif workload == "meta_summary":
        ref = {"pool": write_summary_pool(directory, seed)}
    else:
        ref = {}
    (directory / "reference.json").write_text(json.dumps(ref), encoding="utf-8")
