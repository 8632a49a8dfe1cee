"""Full analysis pipeline and the report object it produces.

``analyze_dataset`` runs the whole context-stratified analysis on
individual-level data: partition by context, per-context ratio
estimates, both heterogeneity tests, and the trend meta-regression.
``analyze_summary_results`` does the same from a ``ContextTable`` of
pre-computed per-context summary statistics, which ``load_summary_csv``
reads from CSV. Both build one table, and the tests read its columns.
Both return an :class:`AnalysisReport`, whose ``contexts`` holds the
table's columns as Python values, one per ``CONTEXT_CSV_COLUMNS`` name.
It is written to three files: ``report.json``, ``report.txt`` (3
significant figures) and ``report.csv``, which is also the plot file.

Serialization: ``context_text`` formats each per-context number once, as
its shortest round-trip text, and ``report.json`` and ``report.csv`` are
both written from that text, so a value reads back equal from either
file. ``report.json`` has the layout of ``json.dumps(..., indent=2)``.
``render_text`` writes each context row of ``report.txt`` with one ``%``
template (``%9.3g`` gives the text of the f-string ``{x:>9.3g}``).

A context with a zero bx has no ratio: ``load_summary_csv`` refuses its
row by line, ``ContextTable`` a fitted one, so every context enters every test.

Scaling: the report's per-context columns keep the raw instrument
associations (bx, by) while the MR estimate columns are expressed per
``scale`` exposure units. Heterogeneity statistics are invariant to this
choice; the trend slope is in scaled units.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .datamodel import (
    DEFAULT_MIN_CONTEXT_SIZE,
    Dataset,
    csv_text,
    open_csv,
    partition_by_context,
    read_header,
    shallow_dict,
)
from .errors import ConfigError, IngestError
from .heterogeneity import (
    HeterogeneityResult,
    q_first_order,
    q_modified_second_order,
)
from .ivcore import INSTRUMENT_FLOOR, ContextTable, context_iv
from .metareg import TAU2_METHODS, MetaRegResult, trend_test
from .regress import require_finite

#: Two-sided 95% normal quantile of the confidence intervals (lo95, hi95).
CI_Z = 1.959964

#: |bx| / se(bx) below which a context gets a weak-instrument note.
DEFAULT_WEAK_T = 2.0

SUMMARY_CSV_COLUMNS = ("context", "bx", "bx_se", "by", "by_se", "xmean", "n")


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of the analysis pipeline, echoed into the report."""

    family: str = "linear"
    scale: float = 1.0
    min_context_n: int = DEFAULT_MIN_CONTEXT_SIZE
    tau2_method: str = "reml"

    def __post_init__(self):
        if self.family not in ("linear", "logistic"):
            raise ConfigError(f"unknown outcome family {self.family!r}")
        if not math.isfinite(self.scale):
            raise ConfigError(f"scale must be a finite number, got {self.scale}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if not self.min_context_n >= 2:
            raise ConfigError(f"min_context_n must be at least 2, got {self.min_context_n}")
        if self.tau2_method not in TAU2_METHODS:
            raise ConfigError(
                f"unknown tau2 method {self.tau2_method!r}; choose from {TAU2_METHODS}"
            )


#: The per-context columns of a report, in the order ``report.csv`` writes them.
CONTEXT_CSV_COLUMNS = ("context", "n", "exposure_mean", "bx", "bx_se", "by", "by_se",
                       "estimate", "se", "lo95", "hi95", "odds_ratio")


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline produced; ``trend`` is None when K < 3.

    ``contexts`` maps each name of ``CONTEXT_CSV_COLUMNS`` to a tuple of
    one value per context, in table order: ordered by mean exposure.
    """

    contexts: dict[str, tuple]
    heterogeneity_first_order: HeterogeneityResult
    heterogeneity_modified: HeterogeneityResult
    trend: MetaRegResult | None
    config: dict
    warnings: tuple[str, ...] = ()


def _context_columns(
    table: ContextTable, options: AnalysisOptions, warnings: list[str]
) -> dict[str, tuple]:
    """The report's columns: the raw associations and the scaled ratio estimates.

    An odds ratio beyond the float range (a log odds ratio above about
    709, as a weak instrument can give) is left missing, and a note
    naming its context is appended to ``warnings``.
    """
    estimate, se = table.ratio, table.ratio_se
    lo, hi = estimate - CI_Z * se, estimate + CI_Z * se
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
    return dict(zip(CONTEXT_CSV_COLUMNS,
                    (*(tuple(column.tolist()) for column in columns), tuple(odds))))


def _weak_instrument_notes(table: ContextTable) -> list[str]:
    """One note per context, in table order, whose |bx| / se(bx) is under DEFAULT_WEAK_T.

    A context with se(bx) = 0 gets none.
    """
    notes = []
    for label, bx, se in zip(table.labels.tolist(), table.bx.tolist(), table.bx_se.tolist()):
        if se > 0 and abs(bx) / se < DEFAULT_WEAK_T:
            notes.append(f"context {label!r}: weak instrument "
                         f"(|bx|/se = {abs(bx) / se:.2f} < {DEFAULT_WEAK_T:g})")
    return notes


def _assemble(
    table: ContextTable, options: AnalysisOptions, config: dict, warnings: list[str]
) -> AnalysisReport:
    """The tests and columns of a table; the weak-instrument notes come after ``warnings``."""
    table = table.rescaled(options.scale)
    het_first = q_first_order(table)
    het_modified = q_modified_second_order(table)
    if len(table) >= 3:
        trend = trend_test(table, method=options.tau2_method)
    else:
        trend = None
        warnings.append("trend test skipped: needs at least 3 contexts")
    return AnalysisReport(
        contexts=_context_columns(table, options, warnings),
        heterogeneity_first_order=het_first,
        heterogeneity_modified=het_modified,
        trend=trend,
        config=config,
        warnings=(*warnings, *_weak_instrument_notes(table)),
    )


def analyze_dataset(ds: Dataset, options: AnalysisOptions = AnalysisOptions()) -> AnalysisReport:
    """Context-stratified MR on individual-level data.

    A non-finite number in the dataset is reported with its column and
    its dataset row before the data are split by context. A context whose
    exposure is an exact linear function of its instrument and
    covariates (se(bx) = 0) gets one note in ``warnings``.
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
    fits = [(label, *context_iv(label, sub, options.family)) for label, sub in part.contexts]
    table = ContextTable.from_columns(*zip(*(
        (label, bx.beta, bx.se, by.beta, by.se, xmean, n) for label, bx, by, n, xmean in fits)))
    warnings = [
        f"context {e.context!r} excluded: {e.reason} (n={e.n})" for e in part.excluded
    ]
    if ds.n_dropped:
        warnings.append(f"{ds.n_dropped} input rows dropped during ingestion")
    warnings += [
        f"context {label!r}: the exposure is an exact linear function of the "
        "instrument and covariates; se(bx) reported as 0"
        for label, bx, *_ in fits if bx.degenerate
    ]
    config = {
        "mode": "individual",
        "family": options.family,
        "scale": options.scale,
        "min_context_n": options.min_context_n,
        "tau2_method": options.tau2_method,
        "weak_t_threshold": DEFAULT_WEAK_T,
        "ci_z": CI_Z,
        "covariates": list(ds.covariate_names),
        "n_records": len(ds),
        "n_dropped": ds.n_dropped,
    }
    return _assemble(table, options, config, warnings)


def analyze_summary_results(
    table: ContextTable, options: AnalysisOptions = AnalysisOptions()
) -> AnalysisReport:
    """Heterogeneity and trend from a table of per-context summary statistics alone."""
    config = {
        "mode": "summary",
        "family": options.family,
        "scale": options.scale,
        "tau2_method": options.tau2_method,
        "weak_t_threshold": DEFAULT_WEAK_T,
        "ci_z": CI_Z,
        "n_contexts": len(table),
    }
    return _assemble(table, options, config, [])


def load_summary_csv(path) -> ContextTable:
    """Per-context summary statistics from a UTF-8 CSV, as a context table.

    A byte-order mark, as Excel writes one, is skipped, and quoting is
    strict (see ``datamodel.open_csv``). The header must
    carry the columns context, bx, bx_se, by, by_se, xmean, n, each once
    and in any order. Malformed rows, numbers that are not finite or out
    of range, and a context label given twice, are reported with the
    physical line on which the row starts.
    """
    with open_csv(path) as reader:
        _, at = read_header(reader, path, SUMMARY_CSV_COLUMNS)
        label_at, *number_at = (at[name] for name in SUMMARY_CSV_COLUMNS)
        rows = []
        first_line: dict[str, int] = {}
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not "".join(row).strip():
                continue
            try:
                context = row[label_at].strip()
                # Cell by cell in column order: the first missing or unparseable cell fails.
                values = list(map(float, map(row.__getitem__, number_at)))
                if not all(map(math.isfinite, values)):
                    name, i = next((name, i) for name, i, number
                                   in zip(SUMMARY_CSV_COLUMNS[1:], number_at, values)
                                   if not math.isfinite(number))
                    raise ValueError(f"{name} must be finite, got {row[i]!r}")
                bx, bx_se, _, by_se, _, n = values
                if not (n == int(n) and 2 <= n < 2**63):
                    raise ValueError(
                        f"n must be an integer from 2 to 2**63 - 1, got {row[number_at[5]]!r}"
                    )
                if not (by_se > 0 and bx_se >= 0 and abs(bx) >= INSTRUMENT_FLOOR):
                    problem = ("outcome-association se must be > 0" if by_se <= 0 else
                               "exposure-association se must be >= 0" if bx_se < 0 else
                               "instrument-exposure association is zero")
                    raise ValueError(f"context {context!r}: {problem}")
            except (ValueError, IndexError) as err:
                raise IngestError(str(err), line=lineno) from None
            if context in first_line:
                raise IngestError(
                    f"context label {context!r} already given on line {first_line[context]}",
                    line=lineno,
                )
            first_line[context] = lineno
            rows.append((context, *values))
    if len(rows) < 2:
        raise IngestError(f"{path}: need at least 2 summary rows, got {len(rows)}")
    return ContextTable.from_columns(*zip(*rows))


# ---------------------------------------------------------------------------
# Serialization: each per-context number is formatted once, by
# ``context_text``, and report.json and report.csv share that text. The
# JSON layout is that of ``json.dumps(..., indent=2)``, whose string
# encoder (``encode_basestring_ascii``) writes the labels. report.txt
# formats each row with one ``%`` template.
# ---------------------------------------------------------------------------


def context_text(report: AnalysisReport) -> tuple:
    """The per-context columns, in ``CONTEXT_CSV_COLUMNS`` order, as the report files write them.

    The labels are kept as they are. Every other value becomes its
    ``repr``, the shortest text that reads back as the same number, and
    a missing one stays None. ``report_to_json`` and ``context_table_csv``
    both write from this text, so the CLI formats each number once.
    """
    labels, *columns = (report.contexts[name] for name in CONTEXT_CSV_COLUMNS)
    return (labels, *([None if value is None else repr(value) for value in column]
                      if None in column else list(map(repr, column)) for column in columns))


#: The JSON spelling of each ``context_text`` cell whose text is not JSON.
_JSON_SPECIAL = {None: "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: One context object of ``report.json``, laid out as ``json.dumps(..., indent=2)`` does.
_JSON_CONTEXT = ("    {" + ",".join(f"\n      {json.dumps(name)}: %s"
                                    for name in CONTEXT_CSV_COLUMNS) + "\n    }")


def report_to_json(report: AnalysisReport, text: tuple | None = None) -> str:
    """The report as ``json.dumps(..., indent=2)`` writes it, plus a newline.

    The context objects are laid out from ``text``, the report's
    ``context_text``, which is computed when not given; the other
    entries go through ``json.dumps`` itself.
    """
    labels, *columns = context_text(report) if text is None else text
    cells = (map(_JSON_SPECIAL.get, column, column) for column in columns)
    objects = ",\n".join(_JSON_CONTEXT % row
                          for row in zip(map(encode_basestring_ascii, labels), *cells))
    rest = json.dumps({
        "heterogeneity_first_order": shallow_dict(report.heterogeneity_first_order),
        "heterogeneity_modified": shallow_dict(report.heterogeneity_modified),
        "trend": None if report.trend is None else shallow_dict(report.trend),
        "config": report.config,
        "warnings": list(report.warnings),
    }, indent=2)
    return f'{{\n  "contexts": [\n{objects}\n  ],\n{rest[2:]}\n'


def report_from_json(text: str) -> AnalysisReport:
    """The inverse of ``report_to_json``, for round-trip checks; it validates nothing."""
    payload = json.loads(text)
    rows, trend = payload["contexts"], payload["trend"]
    return AnalysisReport(
        contexts={name: tuple(row[name] for row in rows) for name in CONTEXT_CSV_COLUMNS},
        heterogeneity_first_order=HeterogeneityResult(**payload["heterogeneity_first_order"]),
        heterogeneity_modified=HeterogeneityResult(**payload["heterogeneity_modified"]),
        trend=None if trend is None else MetaRegResult(**trend),
        config=payload["config"],
        warnings=tuple(payload["warnings"]),
    )


def _fmt(value) -> str:
    if value is None:
        return "NA"
    return f"{value:.3g}"


#: One context row of ``report.txt``, numbers at 3 significant figures, and its interval.
_TEXT_ROW = "%-16s %8d %8.3g %9.3g %9.3g %9.3g %9.3g %9.3g %9.3g %19s\n"
_TEXT_INTERVAL = "[%.3g, %.3g]"


def render_text(report: AnalysisReport) -> str:
    """Human-readable report; numbers shown at 3 significant figures."""
    out = io.StringIO()
    out.write("Context-stratified MR analysis\n")
    out.write(f"  outcome family: {report.config['family']}; estimates per "
              f"{_fmt(report.config['scale'])} exposure units\n\n")
    header = (
        f"{'context':<16} {'n':>8} {'x_mean':>8} {'bx':>9} {'bx_se':>9} "
        f"{'by':>9} {'by_se':>9} {'estimate':>9} {'se':>9} {'ci95':>19}"
    )
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    # No row cell is None: odds_ratio, the one column that can be, is not shown.
    *shown, lo95, hi95 = (report.contexts[name] for name in CONTEXT_CSV_COLUMNS[:11])
    intervals = map(_TEXT_INTERVAL.__mod__, zip(lo95, hi95))
    out.writelines(map(_TEXT_ROW.__mod__, zip(*shown, intervals)))
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


def context_table_csv(report: AnalysisReport, text: tuple | None = None) -> str:
    """The per-context table as CSV, written from ``text`` (the report's ``context_text``)."""
    return csv_text(CONTEXT_CSV_COLUMNS, zip(*(context_text(report) if text is None else text)))
