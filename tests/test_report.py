"""Tests for the analysis pipeline and report serialization."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from ctxmr.cli import _write_report
from ctxmr.errors import ConfigError, IngestError
from ctxmr.ivcore import ContextTable
from ctxmr.report import (
    CONTEXT_CSV_COLUMNS,
    AnalysisOptions,
    analyze_dataset,
    analyze_summary_results,
    context_table_csv,
    load_summary_csv,
    render_text,
    report_from_json,
    report_to_json,
)

from fixtures import small_sizes, synthetic_cohort

CI_Z = 1.959964


def make_table(bx, bx_se, by, by_se, means, n=1000, labels=None):
    """A context table of equal-length columns (scalars broadcast), labelled 0, 1, ..."""
    cols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=float))
                                 for c in (bx, bx_se, by, by_se, means)))
    if labels is None:
        labels = [str(i) for i in range(cols[0].size)]
    return ContextTable.from_columns(labels, *cols, np.full(cols[0].size, n))


@pytest.fixture(scope="module")
def cohort_report():
    ds = synthetic_cohort(seed=17, sizes=small_sizes())
    return analyze_dataset(ds, AnalysisOptions(family="logistic", scale=10.0))


class TestAnalyzeDataset:
    def test_contexts_ordered_by_mean_exposure(self, cohort_report):
        means = list(cohort_report.contexts["exposure_mean"])
        assert means == sorted(means)
        assert len(cohort_report.contexts["context"]) == 20

    def test_ci_matches_z_formula(self, cohort_report):
        c = cohort_report.contexts
        for estimate, se, lo95, hi95 in zip(c["estimate"], c["se"], c["lo95"], c["hi95"]):
            assert lo95 == pytest.approx(estimate - CI_Z * se, abs=1e-12)
            assert hi95 == pytest.approx(estimate + CI_Z * se, abs=1e-12)
            assert lo95 < estimate < hi95

    def test_odds_ratio_column_present_for_logistic(self, cohort_report):
        c = cohort_report.contexts
        for odds_ratio, estimate in zip(c["odds_ratio"], c["estimate"]):
            assert odds_ratio == pytest.approx(np.exp(estimate), rel=1e-12)

    def test_null_cohort_shows_no_signal(self, cohort_report):
        # True null: no heterogeneity, no trend at generous thresholds.
        assert cohort_report.heterogeneity_modified.p > 0.001
        assert cohort_report.trend.slope_p > 0.001

    def test_config_echo(self, cohort_report):
        cfg = cohort_report.config
        assert cfg["family"] == "logistic"
        assert cfg["scale"] == 10.0
        assert cfg["covariates"] == ["age", "sex"]

    def test_single_context_is_config_error(self):
        ds = synthetic_cohort(seed=1, sizes=(400,), means=(55.0,))
        with pytest.raises(ConfigError, match="fewer than 2 contexts"):
            analyze_dataset(ds, AnalysisOptions(family="logistic"))

    def test_family_mismatch_rejected(self):
        # Asking for a logistic analysis of data ingested as linear must fail
        # loudly: the 0/1 validation was never applied at load time.
        ds = synthetic_cohort(seed=1, sizes=small_sizes())
        ds_linear = dataclasses.replace(ds, outcome_family="linear")
        with pytest.raises(ConfigError, match="logistic"):
            analyze_dataset(ds_linear, AnalysisOptions(family="logistic"))

    def test_unknown_tau2_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown tau2 method 'bogus'"):
            AnalysisOptions(tau2_method="bogus")

    def test_non_finite_value_names_its_dataset_row(self):
        # Row 450 is row 50 of the third context; the message names the dataset row.
        ds = synthetic_cohort(seed=2, sizes=(200, 200, 200), means=(50.0, 52.0, 54.0))
        covariates = ds.covariates.copy()
        covariates[450, 0] = np.nan
        bad = dataclasses.replace(ds, covariates=covariates)
        with pytest.raises(ConfigError, match="column 'age' at row 450$"):
            analyze_dataset(bad, AnalysisOptions(family="logistic"))


class TestAnalyzeSummary:
    def test_hand_example_q_both_schemes(self):
        t = make_table(bx=1.0, bx_se=0.0, by=[1.0, 2.0], by_se=1.0, means=[50.0, 52.0])
        # K=2 supports Q; the trend test needs K >= 3 and is skipped.
        report = analyze_summary_results(t)
        assert report.heterogeneity_first_order.q == pytest.approx(0.5, abs=1e-12)
        assert report.heterogeneity_modified.q == pytest.approx(0.5, abs=1e-12)
        assert report.heterogeneity_first_order.p == pytest.approx(0.47950012, abs=1e-7)
        assert report.trend is None
        assert any("trend test skipped" in w for w in report.warnings)

    def test_two_context_report_round_trips(self):
        t = make_table(bx=1.0, bx_se=0.0, by=[1.0, 2.0], by_se=1.0, means=[50.0, 52.0],
                       labels=["a", "b"])
        report = analyze_summary_results(t)
        assert report_from_json(report_to_json(report)) == report
        assert "trend: not computed" in render_text(report)

    def test_duplicate_context_rows_give_zero_q(self):
        t = make_table(bx=0.5, bx_se=0.01, by=0.2, by_se=0.05, means=50.0 + np.arange(4))
        report = analyze_summary_results(t)
        assert report.heterogeneity_first_order.q == pytest.approx(0.0, abs=1e-18)
        assert report.heterogeneity_first_order.p == 1.0

    def test_known_effect_scaled_by_ten(self):
        t = make_table(bx=1.0, bx_se=0.01, by=0.02, by_se=0.01, means=50.0 + np.arange(3))
        report = analyze_summary_results(t, AnalysisOptions(scale=10.0))
        for estimate, by in zip(report.contexts["estimate"], report.contexts["by"]):
            assert estimate == pytest.approx(0.2, abs=1e-12)
            assert by == pytest.approx(0.02, abs=1e-15)  # raw column unscaled


class TestSummaryCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "a,1.0,0.0,1.0,1.0,50.0,1000\n"
            "b,1.0,0.0,2.0,1.0,52.0,1200\n",
            encoding="utf-8",
        )
        table = load_summary_csv(path)
        assert table.labels.tolist() == ["a", "b"]
        assert table.ratio[1] == pytest.approx(2.0)
        assert table.n.tolist() == [1000, 1200]

    def test_rows_sorted_by_mean_exposure_then_label(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "b,1.0,0.0,1.0,1.0,52.0,1000\n"
            "c,1.0,0.0,2.0,1.0,50.0,1200\n"
            "a,1.0,0.0,3.0,1.0,52.0,1100\n",
            encoding="utf-8",
        )
        table = load_summary_csv(path)
        assert table.labels.tolist() == ["c", "a", "b"]
        assert table.by.tolist() == [2.0, 3.0, 1.0]

    def test_negative_se_names_line(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "a,1.0,0.0,1.0,1.0,50.0,1000\n"
            "b,1.0,0.0,2.0,-1.0,52.0,1200\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="line 3"):
            load_summary_csv(path)

    @pytest.mark.parametrize(
        "row, problem",
        [("b,1.0,-0.1,2.0,1.0,52.0,1200", "exposure-association se must be >= 0"),
         ("b,0.0,0.1,2.0,1.0,52.0,1200", "instrument-exposure association is zero")],
    )
    def test_out_of_range_association_names_its_line(self, tmp_path, row, problem):
        path = tmp_path / "summary.csv"
        path.write_text(
            f"context,bx,bx_se,by,by_se,xmean,n\na,1.0,0.0,1.0,1.0,50.0,1000\n{row}\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match=f"^line 3: context 'b': {problem}$"):
            load_summary_csv(path)

    def test_error_names_the_physical_line_after_a_quoted_newline(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            '"a\nb",1.0,0.0,1.0,1.0,50.0,1000\n'  # lines 2-3
            "c,1.0,0.0,2.0,-1.0,52.0,1200\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="^line 4: ") as err:
            load_summary_csv(path)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "column, row",
        [("bx_se", "b,1.0,inf,2.0,1.0,52.0,1200"), ("by", "b,1.0,0.0,nan,1.0,52.0,1200"),
         ("n", "b,1.0,0.0,2.0,1.0,52.0,inf")],
    )
    def test_non_finite_number_names_its_line(self, tmp_path, column, row):
        path = tmp_path / "summary.csv"
        path.write_text(
            f"context,bx,bx_se,by,by_se,xmean,n\na,1.0,0.0,1.0,1.0,50.0,1000\n{row}\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match=f"^line 3: {column} must be finite"):
            load_summary_csv(path)

    @pytest.mark.parametrize("cell", ["2.5", "1", "1e20"])
    def test_n_outside_the_integers_from_two_names_its_line(self, tmp_path, cell):
        path = tmp_path / "summary.csv"
        path.write_text(
            f"context,bx,bx_se,by,by_se,xmean,n\na,1.0,0.0,1.0,1.0,50.0,1000\n"
            f"b,1.0,0.0,2.0,1.0,52.0,{cell}\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match=f"^line 3: n must be an integer from 2 .*'{cell}'"):
            load_summary_csv(path)

    def test_repeated_context_label_names_both_lines(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "a,1.0,0.0,1.0,1.0,50.0,1000\n"
            "b,1.0,0.0,2.0,1.0,52.0,1200\n"
            " a ,1.0,0.0,3.0,1.0,54.0,1100\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="line 4: context label 'a' already given on line 2"):
            load_summary_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("context,bx,by,by_se,xmean,n\na,1,1,1,50,100\n", encoding="utf-8")
        with pytest.raises(IngestError, match="bx_se"):
            load_summary_csv(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text(
            "context,bx,bx_se,by,by_se,xmean,n,by\n"
            "a,1.0,0.0,1.0,1.0,50.0,1000,9.0\n"
            "b,1.0,0.0,2.0,1.0,52.0,1200,9.0\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="'by'.*more than once"):
            load_summary_csv(path)


class TestSerialization:
    def test_json_round_trip_is_exact(self, cohort_report):
        clone = report_from_json(report_to_json(cohort_report))
        assert clone == cohort_report

    def test_text_and_json_agree_at_displayed_precision(self, cohort_report):
        text = render_text(cohort_report)
        assert f"{cohort_report.heterogeneity_first_order.q:.3g}" in text
        assert f"{cohort_report.trend.slope_p:.3g}" in text
        c = cohort_report.contexts
        assert f"{c['estimate'][0]:.3g}" in text
        assert f"{c['exposure_mean'][0]:.3g}" in text

    def test_context_csv_full_precision(self, cohort_report):
        lines = context_table_csv(cohort_report).splitlines()
        assert len(lines) == 21
        cells = lines[1].split(",")
        assert float(cells[7]) == cohort_report.contexts["estimate"][0]  # exact repr round-trip


def _summary_report(family="linear", bx=(0.5, 0.4, 0.8)):
    """A three-context summary report at scale 10; a tiny bx overflows the odds ratio."""
    t = make_table(bx=bx, bx_se=0.01, by=[0.10, 0.08, 0.12], by_se=0.02,
                   means=[52.0, 50.0, 54.0], labels=["b", "a", "c"])
    return t, analyze_summary_results(t, AnalysisOptions(family=family, scale=10.0))


class TestContextColumns:
    """``AnalysisReport.contexts`` holds the report's columns, one per CONTEXT_CSV_COLUMNS name."""

    def test_report_csv_and_json_use_the_same_column_names(self, cohort_report):
        assert tuple(cohort_report.contexts) == CONTEXT_CSV_COLUMNS
        header = next(csv.reader(io.StringIO(context_table_csv(cohort_report))))
        assert tuple(header) == CONTEXT_CSV_COLUMNS
        for row in json.loads(report_to_json(cohort_report))["contexts"]:
            assert tuple(row) == CONTEXT_CSV_COLUMNS

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_each_column_is_the_rescaled_table_as_python_values(self, family):
        table, report = _summary_report(family)
        t = table.rescaled(10.0)
        estimate, se = t.ratio, t.ratio_se
        expected = {
            "context": t.labels, "n": t.n, "exposure_mean": t.xmean, "bx": t.bx,
            "bx_se": t.bx_se, "by": t.by, "by_se": t.by_se, "estimate": estimate, "se": se,
            "lo95": estimate - CI_Z * se, "hi95": estimate + CI_Z * se,
        }
        for name, column in expected.items():
            assert report.contexts[name] == tuple(column.tolist()), name
        assert report.contexts["context"] == ("a", "b", "c")
        assert {type(v) for v in report.contexts["n"]} == {int}
        odds = tuple(map(math.exp, estimate.tolist())) if family == "logistic" else (None,) * 3
        assert report.contexts["odds_ratio"] == odds

    @pytest.mark.parametrize("family, bx, missing", [
        ("linear", (0.5, 0.4, 0.8), 3), ("logistic", (0.5, 0.4, 0.8), 0),
        ("logistic", (0.5, 1e-3, 0.8), 1),
    ], ids=["linear", "logistic", "overflowing-odds-ratio"])
    def test_json_round_trip_is_exact(self, family, bx, missing):
        _, report = _summary_report(family, bx)
        assert report.contexts["odds_ratio"].count(None) == missing
        assert report_from_json(report_to_json(report)) == report


class TestPlotData:
    """``report.csv`` is the plot file: the MR estimates and the associations against xmean."""

    def test_shapes_and_ordering(self, cohort_report):
        rows = list(csv.DictReader(io.StringIO(context_table_csv(cohort_report))))
        assert len(rows) == 20
        xmeans = [float(row["exposure_mean"]) for row in rows]
        assert xmeans == sorted(xmeans)
        for row in rows:
            assert float(row["lo95"]) < float(row["estimate"]) < float(row["hi95"])

    def test_scaled_file_is_unscaled_times_scale_over_bx(self):
        # The README's unscaled interval, by +- CI_Z by_se, times scale / bx
        # is the MR estimate's interval.
        _, report = _summary_report()
        for row in csv.DictReader(io.StringIO(context_table_csv(report))):
            by, by_se, factor = float(row["by"]), float(row["by_se"]), 10.0 / float(row["bx"])
            for name, unscaled in (("estimate", by), ("lo95", by - CI_Z * by_se),
                                   ("hi95", by + CI_Z * by_se)):
                assert float(row[name]) == pytest.approx(unscaled * factor, rel=1e-12)


class TestReportFiles:
    """``cli._write_report`` formats the context columns once, for report.json and report.csv."""

    def test_files_equal_the_one_argument_calls(self, cohort_report, tmp_path, capsys):
        reports = {"cohort": cohort_report, "linear": _summary_report()[1],
                   "overflowing-odds-ratio": _summary_report("logistic", (0.5, 1e-3, 0.8))[1]}
        for case, report in reports.items():
            _write_report(report, str(tmp_path / case), "csv")
            assert capsys.readouterr().out == context_table_csv(report)
            for name, text in (("report.json", report_to_json(report)),
                               ("report.txt", render_text(report)),
                               ("report.csv", context_table_csv(report))):
                assert (tmp_path / case / name).read_bytes() == text.encode(), (case, name)
