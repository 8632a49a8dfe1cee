"""Tests for the analysis pipeline and report serialization."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ctxmr.errors import ConfigError, IngestError
from ctxmr.ivcore import ContextTable
from ctxmr.report import (
    AnalysisOptions,
    analyze_dataset,
    analyze_summary_results,
    context_table_csv,
    load_summary_csv,
    plot_data,
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
        means = [row.exposure_mean for row in cohort_report.contexts]
        assert means == sorted(means)
        assert len(cohort_report.contexts) == 20

    def test_ci_matches_z_formula(self, cohort_report):
        for row in cohort_report.contexts:
            assert row.lo95 == pytest.approx(row.estimate - CI_Z * row.se, abs=1e-12)
            assert row.hi95 == pytest.approx(row.estimate + CI_Z * row.se, abs=1e-12)
            assert row.lo95 < row.estimate < row.hi95

    def test_odds_ratio_column_present_for_logistic(self, cohort_report):
        for row in cohort_report.contexts:
            assert row.odds_ratio == pytest.approx(np.exp(row.estimate), rel=1e-12)

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
        for row in report.contexts:
            assert row.estimate == pytest.approx(0.2, abs=1e-12)
            assert row.by == pytest.approx(0.02, abs=1e-15)  # raw column unscaled


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
        first = cohort_report.contexts[0]
        assert f"{first.estimate:.3g}" in text
        assert f"{first.exposure_mean:.3g}" in text

    def test_context_csv_full_precision(self, cohort_report):
        lines = context_table_csv(cohort_report).splitlines()
        assert len(lines) == 21
        first = cohort_report.contexts[0]
        cells = lines[1].split(",")
        assert float(cells[7]) == first.estimate  # exact repr round-trip


class TestPlotData:
    def test_shapes_and_ordering(self, cohort_report):
        unscaled, scaled = plot_data(cohort_report)
        u_lines = unscaled.splitlines()
        s_lines = scaled.splitlines()
        assert len(u_lines) == len(s_lines) == 21
        xmeans = [float(line.split(",")[1]) for line in u_lines[1:]]
        assert xmeans == sorted(xmeans)
        for line in s_lines[1:]:
            _, _, est, lo, hi = line.split(",")
            assert float(lo) < float(est) < float(hi)

    def test_scaled_file_is_unscaled_times_scale_over_bx(self):
        t = make_table(bx=[0.5, 0.4, 0.8], bx_se=0.0, by=[0.10, 0.08, 0.12], by_se=0.02,
                       means=[50.0, 52.0, 54.0], labels=["a", "b", "c"])
        report = analyze_summary_results(t, AnalysisOptions(scale=10.0))
        unscaled, scaled = plot_data(report)
        bx = dict(zip(t.labels.tolist(), t.bx.tolist()))
        for u_line, s_line in zip(unscaled.splitlines()[1:], scaled.splitlines()[1:]):
            u = u_line.split(",")
            s = s_line.split(",")
            factor = 10.0 / bx[u[0]]
            for j in (2, 3, 4):
                assert float(s[j]) == pytest.approx(float(u[j]) * factor, rel=1e-12)
