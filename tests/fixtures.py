"""Synthetic cohort generator shared by the report, CLI and acceptance tests.

Produces an individual-level dataset shaped like a multi-centre cohort
study: 20 recruitment centres of realistic (unequal) sizes, a standardized
genetic score, an exposure whose centre means straddle a narrow band, a
binary outcome at roughly 7% prevalence, and age/sex covariates that
nudge the outcome. The score explains about 4% of exposure variance. With
``log_or_per_exposure_unit=0`` (the default) the outcome is independent
of the score: a true null suitable for calibration checks.
"""

from __future__ import annotations

import numpy as np

from ctxmr.datamodel import Dataset
from ctxmr.ivcore import ContextTable, context_iv

# Centre sizes and mean exposure levels typical of a large UK cohort.
CENTRE_SIZES = (
    13501, 12258, 7563, 23819, 9502, 15779, 29509, 16688, 12843, 19993,
    10499, 22831, 13932, 21479, 17276, 19748, 21526, 29527, 1562, 12705,
)
CENTRE_MEANS = (
    50.2, 50.9, 52.5, 54.0, 54.0, 54.9, 55.0, 55.2, 55.4, 55.5,
    55.8, 56.1, 56.1, 56.3, 56.4, 56.8, 56.9, 56.9, 57.1, 57.4,
)

EXPOSURE_SD = 20.0
SCORE_EFFECT = 4.1  # per-sd-of-score exposure shift; ~4% variance explained
PREVALENCE = 0.07


def synthetic_cohort(
    seed: int,
    sizes=CENTRE_SIZES,
    means=CENTRE_MEANS,
    log_or_per_exposure_unit: float = 0.0,
    with_covariates: bool = True,
) -> Dataset:
    rng = np.random.default_rng(seed)
    blocks = []
    for mu, n in zip(means, sizes):
        score = rng.standard_normal(n)
        exposure = mu + SCORE_EFFECT * score + rng.normal(scale=EXPOSURE_SD, size=n)
        age = rng.normal(57.0, 8.0, size=n)
        sex = (rng.random(n) < 0.46).astype(float)
        logit = (
            np.log(PREVALENCE / (1 - PREVALENCE))
            + 0.02 * (age - 57.0)
            + 0.25 * (sex - 0.46)
            + log_or_per_exposure_unit * (exposure - mu)
        )
        outcome = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        blocks.append((score, exposure, outcome, age, sex))
    k = len(blocks)
    labels = np.repeat(np.array([f"C{j + 1:02d}" for j in range(k)]), np.asarray(sizes[:k]))
    score = np.concatenate([b[0] for b in blocks])
    exposure = np.concatenate([b[1] for b in blocks])
    outcome = np.concatenate([b[2] for b in blocks])
    if with_covariates:
        covariates = np.column_stack(
            [
                np.concatenate([b[3] for b in blocks]),
                np.concatenate([b[4] for b in blocks]),
            ]
        )
        names = ("age", "sex")
    else:
        covariates = np.empty((score.size, 0))
        names = ()
    return Dataset(
        instrument=score,
        exposure=exposure,
        outcome=outcome,
        context=labels,
        covariates=covariates,
        covariate_names=names,
        outcome_family="logistic",
    )


def small_sizes(scale: int = 20):
    """Scaled-down centre sizes for fast unit tests (min 150 per centre)."""
    return tuple(max(150, s // scale) for s in CENTRE_SIZES)


def write_cohort_csv(path, ds: Dataset) -> None:
    header = "score,vitd,chd,centre"
    cov = ""
    if ds.covariate_names:
        cov = "," + ",".join(ds.covariate_names)
    lines = [header + cov]
    for i in range(len(ds)):
        row = (
            f"{float(ds.instrument[i])!r},{float(ds.exposure[i])!r},"
            f"{int(ds.outcome[i])},{ds.context[i]}"
        )
        if ds.covariate_names:
            row += "," + ",".join(repr(float(v)) for v in ds.covariates[i])
        lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def context_table(contexts, family: str = "linear") -> ContextTable:
    """The table of ``context_iv`` on (label, Dataset) pairs, as ``analyze_dataset`` builds it."""
    labels, subsets = zip(*contexts)
    fits = [context_iv(label, sub, family) for label, sub in zip(labels, subsets)]
    return ContextTable.from_columns(labels, *zip(*(
        (bx.beta, bx.se, by.beta, by.se, xmean, n) for bx, by, n, xmean in fits)))
