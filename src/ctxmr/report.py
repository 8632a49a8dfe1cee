"""Full analysis pipeline and the report object it produces.

``analyze_dataset`` runs the whole context-stratified analysis on
individual-level data: partition by context, per-context ratio
estimates, both heterogeneity tests, and the trend meta-regression.
``analyze_summary_results`` does the same from a ``ContextTable`` of
pre-computed per-context summary statistics, which ``load_summary_csv``
reads from CSV. Both build one table, and the tests and the report rows
read its columns. Both return an :class:`AnalysisReport`, which
serializes losslessly to JSON and renders to human-readable text (3
significant figures) and machine CSV (full precision).

Scaling: the report's per-context columns keep the raw instrument
associations (bx, by) while the MR estimate columns are expressed per
``scale`` exposure units. Heterogeneity statistics are invariant to this
choice; the trend slope is in scaled units.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

from .datamodel import DEFAULT_MIN_CONTEXT_SIZE, Dataset, partition_by_context, read_header
from .errors import ConfigError, IngestError
from .heterogeneity import (
    HeterogeneityResult,
    q_first_order,
    q_modified_second_order,
)
from .ivcore import DEFAULT_WEAK_T, INSTRUMENT_FLOOR, ContextTable, context_iv
from .metareg import TAU2_METHODS, MetaRegResult, trend_test
from .regress import require_finite

#: Two-sided 95% normal quantile used for confidence intervals.
DEFAULT_CI_Z = 1.959964

SUMMARY_CSV_COLUMNS = ("context", "bx", "bx_se", "by", "by_se", "xmean", "n")

CONTEXT_CSV_COLUMNS = (
    "context",
    "n",
    "exposure_mean",
    "bx",
    "bx_se",
    "by",
    "by_se",
    "estimate",
    "se",
    "lo95",
    "hi95",
    "odds_ratio",
)


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of the analysis pipeline, echoed into the report."""

    family: str = "linear"
    scale: float = 1.0
    min_context_n: int = DEFAULT_MIN_CONTEXT_SIZE
    tau2_method: str = "reml"
    ci_z: float = DEFAULT_CI_Z

    def __post_init__(self):
        if self.family not in ("linear", "logistic"):
            raise ConfigError(f"unknown outcome family {self.family!r}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.tau2_method not in TAU2_METHODS:
            raise ConfigError(
                f"unknown tau2 method {self.tau2_method!r}; choose from {TAU2_METHODS}"
            )
        if not 0 < self.ci_z < math.inf:
            raise ConfigError(f"confidence z must be finite and positive, got {self.ci_z}")


@dataclass(frozen=True)
class ContextRow:
    context: str
    n: int
    exposure_mean: float
    bx: float
    bx_se: float
    by: float
    by_se: float
    estimate: float
    se: float
    lo95: float
    hi95: float
    odds_ratio: float | None = None


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline produced; ``trend`` is None when K < 3."""

    contexts: tuple[ContextRow, ...]
    heterogeneity_first_order: HeterogeneityResult
    heterogeneity_modified: HeterogeneityResult
    trend: MetaRegResult | None
    config: dict
    warnings: tuple[str, ...] = ()


def _build_rows(
    table: ContextTable, options: AnalysisOptions, warnings: list[str]
) -> tuple[ContextRow, ...]:
    """One row per context: the raw associations and the scaled ratio estimates.

    An odds ratio beyond the float range (a log odds ratio above about
    709, as a weak instrument can give) is left missing, and a note
    naming its context is appended to ``warnings``.
    """
    estimate, se = table.ratio, table.ratio_se
    lo, hi = estimate - options.ci_z * se, estimate + options.ci_z * se
    odds = [None] * len(table)
    if options.family == "logistic":
        for k, (label, value) in enumerate(zip(table.labels.tolist(), estimate.tolist())):
            try:
                odds[k] = math.exp(value)
            except OverflowError:
                warnings.append(
                    f"context {label!r}: odds ratio exp({value:.6g}) is beyond the "
                    "float range; reported as missing"
                )
    columns = (table.labels, table.n, table.xmean, table.bx, table.bx_se, table.by,
               table.by_se, estimate, se, lo, hi)
    return tuple(
        ContextRow(*row) for row in zip(*(column.tolist() for column in columns), odds)
    )


def _assemble(
    table: ContextTable,
    options: AnalysisOptions,
    config: dict,
    warnings: list[str],
    context_warnings=(),
) -> AnalysisReport:
    table = table.rescaled(options.scale)
    het_first = q_first_order(table)
    het_modified = q_modified_second_order(table)
    if len(table) >= 3:
        trend = trend_test(table, method=options.tau2_method)
    else:
        trend = None
        warnings.append("trend test skipped: needs at least 3 contexts")
    rows = _build_rows(table, options, warnings)
    return AnalysisReport(
        contexts=rows,
        heterogeneity_first_order=het_first,
        heterogeneity_modified=het_modified,
        trend=trend,
        config=config,
        warnings=(*warnings, *context_warnings),
    )


def analyze_dataset(ds: Dataset, options: AnalysisOptions = AnalysisOptions()) -> AnalysisReport:
    """Context-stratified MR on individual-level data.

    A non-finite number in the dataset is reported with its column and
    its dataset row before the data are split by context.
    """
    if options.family == "logistic" and ds.outcome_family != "logistic":
        raise ConfigError(
            "options request a logistic outcome but the dataset was loaded "
            f"as {ds.outcome_family!r}"
        )
    for name, column in zip(("instrument", "exposure", "outcome", *ds.covariate_names),
                            (ds.instrument, ds.exposure, ds.outcome, *ds.covariates.T)):
        require_finite(name, column)
    part = partition_by_context(ds, min_n=options.min_context_n)
    raw = [context_iv(label, sub, options.family) for label, sub in part.contexts]
    warnings = [
        f"context {e.context!r} excluded: {e.reason} (n={e.n})" for e in part.excluded
    ]
    if ds.n_dropped:
        warnings.append(f"{ds.n_dropped} input rows dropped during ingestion")
    config = {
        "mode": "individual",
        "family": options.family,
        "scale": options.scale,
        "min_context_n": options.min_context_n,
        "tau2_method": options.tau2_method,
        "weak_t_threshold": DEFAULT_WEAK_T,
        "ci_z": options.ci_z,
        "covariates": list(ds.covariate_names),
        "n_records": len(ds),
        "n_dropped": ds.n_dropped,
    }
    return _assemble(ContextTable.from_results(raw), options, config, warnings,
                     [note for r in raw for note in r.warnings])


def analyze_summary_results(
    table: ContextTable, options: AnalysisOptions = AnalysisOptions()
) -> AnalysisReport:
    """Heterogeneity and trend from a table of per-context summary statistics alone."""
    config = {
        "mode": "summary",
        "family": options.family,
        "scale": options.scale,
        "tau2_method": options.tau2_method,
        "ci_z": options.ci_z,
        "n_contexts": len(table),
    }
    return _assemble(table, options, config, [])


def load_summary_csv(path) -> ContextTable:
    """Per-context summary statistics from CSV, as a context table.

    The header must carry the columns context, bx, bx_se, by, by_se,
    xmean, n, each once and in any order. Malformed rows, numbers that
    are not finite or out of range, and a context label given twice, are
    reported with the physical line on which the row starts.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        _, at = read_header(reader, path, SUMMARY_CSV_COLUMNS)
        rows = []
        first_line: dict[str, int] = {}
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                context = row[at["context"]].strip()
                value = {name: float(row[at[name]]) for name in SUMMARY_CSV_COLUMNS[1:]}
                for name, number in value.items():
                    if not math.isfinite(number):
                        raise ValueError(f"{name} must be finite, got {row[at[name]]!r}")
                n = value["n"]
                if not (n == int(n) and 2 <= n < 2**63):
                    raise ValueError(
                        f"n must be an integer from 2 to 2**63 - 1, got {row[at['n']]!r}"
                    )
                bx, bx_se, by_se = value["bx"], value["bx_se"], value["by_se"]
                for bad, problem in (
                    (by_se <= 0, "outcome-association se must be > 0"),
                    (bx_se < 0, "exposure-association se must be >= 0"),
                    (abs(bx) < INSTRUMENT_FLOOR, "instrument-exposure association is zero"),
                ):
                    if bad:
                        raise ValueError(f"context {context!r}: {problem}")
            except (ValueError, IndexError) as err:
                raise IngestError(str(err), line=lineno) from None
            if context in first_line:
                raise IngestError(
                    f"context label {context!r} already given on line {first_line[context]}",
                    line=lineno,
                )
            first_line[context] = lineno
            rows.append((context, *value.values()))
    if len(rows) < 2:
        raise IngestError(f"{path}: need at least 2 summary rows, got {len(rows)}")
    return ContextTable.from_columns(*zip(*rows))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "contexts": [asdict(row) for row in report.contexts],
        "heterogeneity_first_order": asdict(report.heterogeneity_first_order),
        "heterogeneity_modified": asdict(report.heterogeneity_modified),
        "trend": None if report.trend is None else asdict(report.trend),
        "config": report.config,
        "warnings": list(report.warnings),
    }


def report_from_dict(payload: dict) -> AnalysisReport:
    def het(d):
        d = dict(d)
        d["excluded"] = tuple(d.get("excluded", ()))
        return HeterogeneityResult(**d)

    trend = payload["trend"]
    return AnalysisReport(
        contexts=tuple(ContextRow(**row) for row in payload["contexts"]),
        heterogeneity_first_order=het(payload["heterogeneity_first_order"]),
        heterogeneity_modified=het(payload["heterogeneity_modified"]),
        trend=None if trend is None else MetaRegResult(**trend),
        config=payload["config"],
        warnings=tuple(payload["warnings"]),
    )


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def report_from_json(text: str) -> AnalysisReport:
    return report_from_dict(json.loads(text))


def _fmt(value) -> str:
    if value is None:
        return "NA"
    return f"{value:.3g}"


def render_text(report: AnalysisReport) -> str:
    """Human-readable report; numbers shown at 3 significant figures."""
    out = io.StringIO()
    fam = report.config.get("family", "linear")
    scale = report.config.get("scale", 1.0)
    out.write("Context-stratified MR analysis\n")
    out.write(f"  outcome family: {fam}; estimates per {_fmt(scale)} exposure units\n\n")
    header = (
        f"{'context':<16} {'n':>8} {'x_mean':>8} {'bx':>9} {'bx_se':>9} "
        f"{'by':>9} {'by_se':>9} {'estimate':>9} {'se':>9} {'ci95':>19}"
    )
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for row in report.contexts:
        ci = f"[{_fmt(row.lo95)}, {_fmt(row.hi95)}]"
        out.write(
            f"{row.context:<16} {row.n:>8d} {_fmt(row.exposure_mean):>8} "
            f"{_fmt(row.bx):>9} {_fmt(row.bx_se):>9} {_fmt(row.by):>9} "
            f"{_fmt(row.by_se):>9} {_fmt(row.estimate):>9} {_fmt(row.se):>9} {ci:>19}\n"
        )
    out.write("\n")
    for het, label in (
        (report.heterogeneity_first_order, "first-order"),
        (report.heterogeneity_modified, "modified second-order"),
    ):
        out.write(
            f"heterogeneity Q ({label}): Q = {_fmt(het.q)}, df = {het.df}, "
            f"p = {_fmt(het.p)}\n"
        )
    t = report.trend
    if t is None:
        out.write("trend: not computed (needs at least 3 contexts)\n")
    else:
        out.write(
            f"trend: slope = {_fmt(t.slope)} (se {_fmt(t.slope_se)}), "
            f"tau2 = {_fmt(t.tau2)} ({t.tau2_method}), p = {_fmt(t.slope_p)}\n"
        )
    if report.warnings:
        out.write("\nwarnings:\n")
        for note in report.warnings:
            out.write(f"  - {note}\n")
    return out.getvalue()


def context_table_csv(report: AnalysisReport) -> str:
    """Per-context table as CSV at full precision."""
    lines = [",".join(CONTEXT_CSV_COLUMNS)]
    for row in report.contexts:
        d = asdict(row)
        cells = []
        for col in CONTEXT_CSV_COLUMNS:
            v = d[col]
            if v is None:
                cells.append("NA")
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def plot_data(report: AnalysisReport) -> tuple[str, str]:
    """Scatter-plot data: (unscaled associations, scaled MR estimates).

    Both CSVs carry context, xmean, estimate, lo95, hi95; rows are
    ordered by mean exposure. The unscaled file shows the raw
    instrument-outcome association with its own confidence interval;
    the scaled file shows the MR estimate columns from the report.
    """
    z = float(report.config.get("ci_z", DEFAULT_CI_Z))
    header = "context,xmean,estimate,lo95,hi95"
    unscaled = [header]
    scaled = [header]
    for row in report.contexts:
        unscaled.append(
            ",".join(
                (
                    row.context,
                    repr(row.exposure_mean),
                    repr(row.by),
                    repr(row.by - z * row.by_se),
                    repr(row.by + z * row.by_se),
                )
            )
        )
        scaled.append(
            ",".join(
                (
                    row.context,
                    repr(row.exposure_mean),
                    repr(row.estimate),
                    repr(row.lo95),
                    repr(row.hi95),
                )
            )
        )
    return "\n".join(unscaled) + "\n", "\n".join(scaled) + "\n"
