"""Tests for the command-line interface: flags, outputs, exit codes."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ctxmr import cli
from ctxmr.cli import EXIT_CONFIG, EXIT_ESTIMATION, EXIT_INGEST, EXIT_OK, main
from ctxmr.report import report_from_json, report_to_json

from fixtures import small_sizes, synthetic_cohort, write_cohort_csv
from golden.regenerate import README_SUMMARY_CSV
from regression_sets import ELEVEN_CONTEXT_SUMMARY_CSV


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cohort.csv"
    ds = synthetic_cohort(seed=23, sizes=small_sizes(40))
    write_cohort_csv(path, ds)
    return path


def analyze_args(cohort_csv, out_dir, extra=()):
    return [
        "analyze",
        "--data", str(cohort_csv),
        "--instrument-col", "score",
        "--exposure-col", "vitd",
        "--outcome-col", "chd",
        "--context-col", "centre",
        "--covariates", "age,sex",
        "--family", "logistic",
        "--scale", "10",
        "--out-dir", str(out_dir),
        *extra,
    ]


class TestAnalyze:
    def test_end_to_end(self, cohort_csv, tmp_path, capsys):
        code = main(analyze_args(cohort_csv, tmp_path, ["--format", "json"]))
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["contexts"]) == 20
        for name in ("report.json", "report.txt", "report.csv"):
            assert (tmp_path / name).exists()
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == payload

    def test_missing_file_is_ingest_error(self, tmp_path, capsys):
        code = main(analyze_args(tmp_path / "nope.csv", tmp_path))
        assert code == EXIT_INGEST
        assert "ingestion error" in capsys.readouterr().err

    def test_missing_column_is_ingest_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        code = main(analyze_args(bad, tmp_path))
        assert code == EXIT_INGEST

    def test_single_context_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        ds = synthetic_cohort(seed=3, sizes=(400,), means=(55.0,))
        write_cohort_csv(path, ds)
        code = main(analyze_args(path, tmp_path))
        assert code == EXIT_CONFIG
        assert "fewer than 2 contexts" in capsys.readouterr().err

    def test_bad_scale_is_config_error(self, cohort_csv, tmp_path, capsys):
        code = main(analyze_args(cohort_csv, tmp_path, ["--scale", "-1"]))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("rows_c, reason", [
        (3, "need at least as many rows as columns, got 3 < 4"),
        (4, "need n > p for a residual variance estimate, got n=4, p=4"),
    ], ids=["fewer-rows-than-columns", "no-residual-variance"])
    def test_undersized_context_is_named(self, rows_c, reason, tmp_path, capsys):
        ds = synthetic_cohort(seed=4, sizes=(200, 200, rows_c), means=(50.0, 52.0, 54.0))
        write_cohort_csv(tmp_path / "small.csv", ds)
        code = main(analyze_args(tmp_path / "small.csv", tmp_path, ["--min-context-n", "3"]))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: context 'C03': {reason}\n"

    @pytest.mark.parametrize("value", ["-5", "0", "1"])
    def test_min_context_n_below_two_is_config_error(self, value, cohort_csv, tmp_path, capsys):
        code = main(analyze_args(cohort_csv, tmp_path, ["--min-context-n", value]))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: min_context_n must be at least 2, got {value}\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("extra, column, roles", [
        (["--covariates", "score"], "score", "instrument and covariate"),
        (["--covariates", "age,age"], "age", "covariate and covariate"),
        (["--covariates", "vitd"], "vitd", "exposure and covariate"),
        (["--outcome-col", "vitd"], "vitd", "exposure and outcome"),
    ], ids=["instrument-covariate", "covariate-twice", "exposure-covariate",
            "exposure-outcome"])
    def test_column_named_in_two_roles_is_config_error(self, extra, column, roles, cohort_csv,
                                                       tmp_path, capsys):
        code = main(analyze_args(cohort_csv, tmp_path, extra))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: column {column!r} is named more than once: as {roles}\n")
        assert not (tmp_path / "report.json").exists()

    def test_separation_is_estimation_error(self, tmp_path, capsys):
        path = tmp_path / "sep.csv"
        rows = ["score,vitd,chd,centre"]
        # Outcome equals the (binary) score exactly in both contexts.
        for centre in ("a", "b"):
            for i in range(200):
                g = i % 2
                rows.append(f"{g},{50 + g + 0.01 * i},{g},{centre}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            [
                "analyze",
                "--data", str(path),
                "--instrument-col", "score",
                "--exposure-col", "vitd",
                "--outcome-col", "chd",
                "--context-col", "centre",
                "--family", "logistic",
                "--min-context-n", "2",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == EXIT_ESTIMATION
        assert "separated" in capsys.readouterr().err

    @pytest.mark.parametrize("family, covariate, reason", [
        ("logistic", "noise", "logistic coefficients diverged (|coef| > 15 per column sd, "
         "or at the column means); data are separated or nearly so"),
        ("linear", "dose", "design matrix is rank deficient at column 2 (covariate 'dose')"),
    ], ids=["separated-outcome", "dependent-covariate"])
    def test_an_estimation_error_of_a_context_is_named(self, family, covariate, reason,
                                                       tmp_path, capsys):
        # Centre b alone fails: its outcome equals the instrument, and its
        # dose is twice the instrument.
        rng = np.random.default_rng(8)
        rows = ["score,vitd,chd,centre,noise,dose"]
        for centre in ("a", "b", "c"):
            for i in range(200):
                g = int(rng.binomial(2, 0.3))
                y = min(g, 1) if centre == "b" else int(rng.random() < 0.3)
                dose = 2 * g if centre == "b" else rng.normal()
                rows.append(f"{g},{50 + g + rng.normal()},{y},{centre},{rng.normal()},{dose}")
        path = tmp_path / "fails.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(analyze_args(path, tmp_path, ["--family", family,
                                                  "--covariates", covariate]))
        assert code == EXIT_ESTIMATION
        assert capsys.readouterr().err == f"estimation error: context 'b': {reason}\n"

    def test_overflowing_odds_ratio_is_reported_missing(self, tmp_path, capsys):
        # The exposure moves by 1e-4 per allele, so by / bx, per 10 units,
        # is in the thousands and its exponential beyond the float range.
        rng = np.random.default_rng(5)
        rows = ["score,vitd,chd,centre"]
        for centre, mean in (("a", 40.0), ("b", 50.0), ("c", 60.0)):
            g = rng.binomial(2, 0.3, size=200)
            x = mean + 1e-4 * g + rng.normal(scale=1e-6, size=200)
            y = (rng.random(200) < 0.3).astype(int)
            rows += [f"{gi},{xi!r},{yi},{centre}"
                     for gi, xi, yi in zip(g.tolist(), x.tolist(), y.tolist())]
        path = tmp_path / "weak.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = ["analyze", "--data", str(path), "--instrument-col", "score",
                "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre",
                "--family", "logistic", "--scale", "10", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        text = (tmp_path / "report.json").read_text()
        payload = json.loads(text)
        missing = [row["context"] for row in payload["contexts"] if row["odds_ratio"] is None]
        assert missing == ["b", "c"]
        assert all(row["estimate"] > 709.8 for row in payload["contexts"] if row["context"] in missing)
        for label in missing:
            assert any(f"context {label!r}: odds ratio" in note for note in payload["warnings"])
        csv_rows = (tmp_path / "report.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[1] == "NA" for line in csv_rows[1:]] == [False, True, True]
        assert "reported as missing" in (tmp_path / "report.txt").read_text()
        assert report_to_json(report_from_json(text)) == text

    @staticmethod
    def _degenerate_exposure_csv(path, exposure_b):
        """Three centres of 200 rows; centre b's exposure is ``exposure_b(g)``."""
        rng = np.random.default_rng(9)
        rows = ["score,vitd,chd,centre"]
        for centre, mean in (("a", 40.0), ("b", 50.0), ("c", 60.0)):
            g = rng.binomial(2, 0.3, size=200).astype(float)
            x = exposure_b(g) if centre == "b" else mean + 0.5 * g + rng.normal(size=200)
            y = (rng.random(200) < 0.3).astype(int)
            rows += [f"{gi},{xi!r},{yi},{centre}"
                     for gi, xi, yi in zip(g.tolist(), x.tolist(), y.tolist())]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return ["analyze", "--data", str(path), "--instrument-col", "score",
                "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre",
                "--family", "logistic", "--out-dir", str(path.parent)]

    @pytest.mark.parametrize("exposure_b", [lambda g: np.full(g.size, 9.0),
                                            lambda g: 50.0 + 0.5 * g],
                             ids=["constant", "exact-linear"])
    def test_degenerate_exposure_fit_emits_no_python_warning(self, exposure_b, tmp_path,
                                                             capsys):
        argv = self._degenerate_exposure_csv(tmp_path / "cohort.csv", exposure_b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (EXIT_OK, EXIT_ESTIMATION)
        assert [str(w.message) for w in caught] == []
        assert len(capsys.readouterr().err.splitlines()) == (code == EXIT_ESTIMATION)

    def test_constant_exposure_is_one_line_estimation_error(self, tmp_path):
        argv = self._degenerate_exposure_csv(tmp_path / "cohort.csv",
                                             lambda g: np.full(g.size, 9.0))
        proc = subprocess.run([sys.executable, "-m", "ctxmr.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_ESTIMATION
        [line] = proc.stderr.splitlines()
        assert line.startswith("estimation error: context 'b': instrument-exposure association")
        assert line.endswith("is indistinguishable from zero")
        assert not (tmp_path / "report.json").exists()

    def test_exact_linear_exposure_is_one_report_warning(self, tmp_path):
        argv = self._degenerate_exposure_csv(tmp_path / "cohort.csv", lambda g: 50.0 + 0.5 * g)
        proc = subprocess.run([sys.executable, "-m", "ctxmr.cli", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        payload = json.loads((tmp_path / "report.json").read_text())
        row = next(row for row in payload["contexts"] if row["context"] == "b")
        assert row["bx"] == pytest.approx(0.5, abs=1e-12) and row["bx_se"] == 0.0
        assert [note for note in payload["warnings"] if "exact linear function" in note] == [
            "context 'b': the exposure is an exact linear function of the instrument "
            "and covariates; se(bx) reported as 0"
        ]

    @pytest.mark.parametrize("centre, column, index, role", [
        ("a", "score", 1, "the instrument"), ("b", "age", 2, "covariate 'age'"),
    ], ids=["instrument", "covariate"])
    def test_constant_design_column_is_named_by_its_role(self, tmp_path, capsys, centre, column,
                                                         index, role):
        rng = np.random.default_rng(4)
        rows = ["score,vitd,chd,centre,age"]
        for label, mean in (("a", 40.0), ("b", 50.0), ("c", 60.0)):
            cells = {"score": rng.binomial(2, 0.3, size=200).astype(float),
                     "age": rng.uniform(40.0, 70.0, size=200)}
            if label == centre:
                cells[column] = np.zeros(200) if column == "score" else np.full(200, 55.0)
            x = mean + 0.5 * cells["score"] + rng.normal(size=200)
            y = mean / 10 + 0.2 * x + rng.normal(size=200)
            rows += [f"{g!r},{xi!r},{yi!r},{label},{a!r}" for g, xi, yi, a in
                     zip(cells["score"].tolist(), x.tolist(), y.tolist(), cells["age"].tolist())]
        path = tmp_path / "cohort.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = ["analyze", "--data", str(path), "--instrument-col", "score",
                "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre",
                "--covariates", "age", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_ESTIMATION
        assert capsys.readouterr().err.splitlines() == [
            f"estimation error: context {centre!r}: design matrix is rank deficient at "
            f"column {index} ({role})"
        ]


    def test_stray_quote_label_costs_memory_in_proportion_to_the_file(self, tmp_path, capsys):
        # The quote opens a field that would run to the end of the file and
        # take the 1,000 rows of centre 3 into one label. Strict quoting
        # refuses the record and names the line on which it starts.
        path = tmp_path / "stray.csv"
        ds = synthetic_cohort(seed=7, sizes=(1000, 1000, 1000), means=(50.0, 52.0, 54.0),
                              with_covariates=False)
        write_cohort_csv(path, ds)
        lines = path.read_text(encoding="utf-8").split("\n")
        row, label = lines[2000].rsplit(",", 1)
        lines[2000] = f'{row},"{label}'
        path.write_text("\n".join(lines), encoding="utf-8")
        argv = ["analyze", "--data", str(path), "--instrument-col", "score",
                "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre",
                "--out-dir", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_INGEST
        assert capsys.readouterr().err.splitlines() == [
            "ingestion error: line 2001: malformed CSV record: unexpected end of data"
        ]
        assert peak < 32 * path.stat().st_size
        assert not (tmp_path / "out").exists()

    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, capsys):
        # Line 102 opens a quote that runs past csv's field size limit long
        # before the end of the file.
        path = tmp_path / "long.csv"
        ds = synthetic_cohort(seed=7, sizes=(3000, 3000, 3000), means=(50.0, 52.0, 54.0),
                              with_covariates=False)
        write_cohort_csv(path, ds)
        lines = path.read_text(encoding="utf-8").split("\n")
        row, label = lines[101].rsplit(",", 1)
        lines[101] = f'{row},"{label}'
        path.write_text("\n".join(lines), encoding="utf-8")
        argv = ["analyze", "--data", str(path), "--instrument-col", "score",
                "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_INGEST
        assert capsys.readouterr().err.splitlines() == [
            "ingestion error: line 102: malformed CSV record: "
            "field larger than field limit (131072)"
        ]


class TestMeta:
    def test_hand_example(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "a,1.0,0.0,1.0,1.0,50.0,1000\n"
            "b,1.0,0.0,2.0,1.0,52.0,1000\n",
            encoding="utf-8",
        )
        code = main(
            ["meta", "--summary", str(summary), "--out-dir", str(tmp_path),
             "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["heterogeneity_first_order"]["q"] == pytest.approx(0.5)
        assert payload["heterogeneity_modified"]["q"] == pytest.approx(0.5)
        assert payload["trend"] is None

    def test_malformed_row_named_by_line(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "a,1.0,0.0,1.0,1.0,50.0,1000\n"
            "b,1.0,0.0,2.0,-1.0,52.0,1000\n",
            encoding="utf-8",
        )
        code = main(["meta", "--summary", str(summary), "--out-dir", str(tmp_path)])
        assert code == EXIT_INGEST
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, line, problem", [
        ('"a,' + "x" * 140_000 + "\nb,1.0,0.0,2.0,1.0,52.0,1000\n", 2,
         "field larger than field limit (131072)"),
        ('a,1.0,0.0,1.0,1.0,50.0,1000\n"b,1.0,0.0,2.0,1.0,52.0,1000\n'
         "c,1.0,0.0,3.0,1.0,54.0,1000\n", 3, "unexpected end of data"),
    ], ids=["field-limit", "unterminated-quote"])
    def test_malformed_quote_names_its_line(self, tmp_path, capsys, rows, line, problem):
        summary = tmp_path / "summary.csv"
        summary.write_text("context,bx,bx_se,by,by_se,xmean,n\n" + rows, encoding="utf-8")
        code = main(["meta", "--summary", str(summary), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INGEST
        assert capsys.readouterr().err.splitlines() == [
            f"ingestion error: line {line}: malformed CSV record: {problem}"
        ]
        assert not (tmp_path / "out").exists()

    def test_eleven_context_set_reaches_the_reml_maximum(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text(ELEVEN_CONTEXT_SUMMARY_CSV, encoding="utf-8")
        code = main(["meta", "--summary", str(summary), "--out-dir", str(tmp_path),
                     "--format", "json"])
        assert code == EXIT_OK
        trend = json.loads(capsys.readouterr().out)["trend"]
        assert trend["tau2"] == pytest.approx(0.0033979816, abs=1e-6)
        assert trend["slope"] == pytest.approx(0.0588366543, abs=1e-6)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_mean_is_ingest_error(self, tmp_path, capsys, cell):
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "a,1.0,0.0,1.0,1.0,50.0,1000\n"
            f"b,1.0,0.0,2.0,1.0,{cell},1000\n",
            encoding="utf-8",
        )
        code = main(["meta", "--summary", str(summary), "--out-dir", str(tmp_path)])
        assert code == EXIT_INGEST
        assert capsys.readouterr().err == (
            f"ingestion error: line 3: xmean must be finite, got '{cell}'\n"
        )
        assert not (tmp_path / "report.json").exists()

    def test_overflowing_q_is_one_line_estimation_error(self, tmp_path):
        # Finite but extreme: (by - b bx)^2 exceeds the float range.
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "a,1e-5,0.01,1e300,0.1,8.0,1000\n"
            "b,0.5,0.01,0.4,0.1,9.0,1000\n"
            "c,0.5,0.01,0.3,0.1,10.0,1000\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ctxmr.cli", "meta", "--summary", str(summary),
             "--out-dir", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_ESTIMATION
        assert proc.stderr.splitlines() == [
            "estimation error: first_order Q statistic is inf: "
            "the estimates are too extreme to test"
        ]
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["analyze", "meta"])
def test_ci_z_is_not_an_option(command, cohort_csv, tmp_path, capsys):
    # The intervals are the 95% ones their column names (lo95, hi95) say.
    if command == "meta":
        argv = ["meta", "--summary", str(tmp_path / "summary.csv"), "--out-dir", str(tmp_path)]
    else:
        argv = analyze_args(cohort_csv, tmp_path)
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--ci-z", "2.58"])
    assert caught.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --ci-z 2.58" in capsys.readouterr().err


def test_analyze_and_meta_give_equal_weak_instrument_notes(tmp_path, capsys):
    # meta on the per-context numbers that analyze reports notes the same
    # weak instruments (contexts a and c) in the same order.
    rng = np.random.default_rng(8)
    rows = ["score,vitd,chd,centre"]
    for centre, mean, effect in (("a", 40.0, 0.01), ("b", 50.0, 1.0), ("c", 60.0, 0.02),
                                 ("d", 45.0, 1.0)):
        g = rng.normal(size=300)
        x = mean + effect * g + rng.normal(size=300)
        y = 0.3 * x + rng.normal(size=300)
        rows += [f"{gi!r},{xi!r},{yi!r},{centre}"
                 for gi, xi, yi in zip(g.tolist(), x.tolist(), y.tolist())]
    data = tmp_path / "cohort.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["analyze", "--data", str(data), "--instrument-col", "score",
                 "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre",
                 "--out-dir", str(tmp_path / "analyze")]) == EXIT_OK
    with open(tmp_path / "analyze" / "report.csv", newline="", encoding="utf-8") as handle:
        reported = list(csv.DictReader(handle))
    summary = tmp_path / "summary.csv"
    summary.write_text("context,bx,bx_se,by,by_se,xmean,n\n" + "".join(
        f"{r['context']},{r['bx']},{r['bx_se']},{r['by']},{r['by_se']},"
        f"{r['exposure_mean']},{r['n']}\n" for r in reported
    ), encoding="utf-8")
    assert main(["meta", "--summary", str(summary), "--out-dir", str(tmp_path / "meta")]) == EXIT_OK
    capsys.readouterr()

    def weak_notes(out):
        payload = json.loads((tmp_path / out / "report.json").read_text())
        assert payload["config"]["weak_t_threshold"] == 2.0
        return [note for note in payload["warnings"] if "weak instrument" in note]

    notes = weak_notes("analyze")
    assert [note.split(":")[0] for note in notes] == ["context 'a'", "context 'c'"]
    assert weak_notes("meta") == notes


@pytest.mark.parametrize("scale", ["1e150", "1e160", "1e200", "1e-200"])
@pytest.mark.parametrize("command", ["meta", "analyze"])
def test_extreme_scale_exits_cleanly(command, scale, cohort_csv, tmp_path, capsys):
    # Outcome standard errors scaled toward the ends of the float range:
    # an estimate or a clean estimation error, never a traceback or a warning.
    if command == "meta":
        summary = tmp_path / "summary.csv"
        summary.write_text(ELEVEN_CONTEXT_SUMMARY_CSV, encoding="utf-8")
        argv = ["meta", "--summary", str(summary), "--scale", scale, "--out-dir", str(tmp_path)]
    else:
        argv = analyze_args(cohort_csv, tmp_path, ["--scale", scale])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_ESTIMATION)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    assert [str(w.message) for w in caught] == []


def _summary_with(column, values):
    """The README's three-row summary table with one column replaced by ``values``."""
    rows = [row.split(",") for row in README_SUMMARY_CSV.splitlines()]
    j = rows[0].index(column)
    for row, value in zip(rows[1:], values):
        row[j] = value
    return "\n".join(",".join(row) for row in rows) + "\n"


def _ci_cohort_csv(path, age_factor):
    """The logistic cohort of CI's console-script step, its age column times ``age_factor``."""
    r = np.random.default_rng(7)
    c = np.repeat([1.0, 2.0, 3.0], 400)
    g = r.binomial(2, 0.3, 1200)
    age = r.uniform(40, 70, 1200)
    sex = r.integers(0, 2, 1200)
    x = 45 + 5 * c + 2 * g + 0.1 * age + r.normal(0, 3, 1200)
    y = r.random(1200) < 1 / (1 + np.exp(3 - 0.02 * x - 0.01 * age))
    np.savetxt(path, np.column_stack([g, x, y, c, age * age_factor, sex]), fmt="%.17g",
               delimiter=",", header="score,vitd,chd,centre,age,sex", comments="")


@pytest.mark.parametrize("summary, command, code", [
    (("xmean", ["1e308", "1.5e308", "1.7e308"]), ["--tau2", "dl"], EXIT_ESTIMATION),
    (("xmean", ["1e308", "1.5e308", "1.7e308"]), ["--tau2", "fixed"], EXIT_ESTIMATION),
    (("xmean", ["1e308", "-1e308", "52"]), [], EXIT_ESTIMATION),
    (("bx_se", ["1e300", "0.02", "0.03"]), [], EXIT_OK),
    (("by", ["1e300", "0.09", "0.15"]), ["--scale", "1e10"], EXIT_ESTIMATION),
    (None, ["--covariates", "age", "--family", "logistic"], EXIT_CONFIG),
], ids=["near-limit-means-dl", "near-limit-means-fixed", "opposite-limit-means",
        "huge-bx-se", "huge-by-scaled", "huge-covariate"])
def test_extreme_input_ends_in_one_stderr_line(summary, command, code, tmp_path, capsys):
    # Finite values near the ends of the float range: the documented exit
    # code with one line of stderr (none on success), no numpy warning.
    path = tmp_path / "input.csv"
    if summary is None:
        _ci_cohort_csv(path, 1e305)
        argv = ["analyze", "--data", str(path), "--instrument-col", "score",
                "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre"]
    else:
        path.write_text(_summary_with(*summary), encoding="utf-8")
        argv = ["meta", "--summary", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, *command, "--out-dir", str(tmp_path / "out")]) == code
    assert [str(w.message) for w in caught] == []
    assert len(capsys.readouterr().err.splitlines()) == (code != EXIT_OK)


class TestByteOrderMark:
    """A UTF-8 input with a byte-order mark, as Excel writes one, reads as the plain file."""

    @pytest.mark.parametrize("command", ["analyze", "meta"])
    def test_reports_equal_those_of_the_plain_file(self, command, cohort_csv, tmp_path,
                                                   capsys):
        if command == "meta":
            plain = tmp_path / "centres.csv"
            plain.write_text(README_SUMMARY_CSV, encoding="utf-8")
        else:
            plain = cohort_csv
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for path in (plain, marked):
            out = tmp_path / path.stem
            argv = (["meta", "--summary", str(path), "--scale", "10", "--out-dir", str(out)]
                    if command == "meta" else analyze_args(path, out))
            assert main(argv) == EXIT_OK
            reports.append([(out / name).read_bytes()
                            for name in ("report.json", "report.txt", "report.csv")])
        assert reports[0] == reports[1]

    def test_scenario_config(self, tmp_path, capsys):
        # Refused before any replication runs, by the same message as the plain file.
        errors = []
        for name, prefix in (("plain.cfg", b""), ("marked.cfg", b"\xef\xbb\xbf")):
            (tmp_path / name).write_bytes(prefix + b"contexts = 10001\n")
            argv = ["simulate", "--config", str(tmp_path / name), "--reps", "1",
                    "--out-dir", str(tmp_path / "out")]
            assert main(argv) == EXIT_CONFIG
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "'contexts': 10001 is above" in errors[0]


class TestSimulate:
    def test_custom_cell_outputs_and_determinism(self, tmp_path, capsys):
        config = tmp_path / "cell.cfg"
        config.write_text(
            "effect = linear\nalpha_grid = larger\nper_context_n = 300\n",
            encoding="utf-8",
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main(
                [
                    "simulate", "--config", str(config), "--reps", "4",
                    "--seed", "9", "--out-dir", str(out),
                ]
            )
            assert code == EXIT_OK
        capsys.readouterr()
        for name in ("table.txt", "table.csv", "table.json", "manifest.json"):
            assert (out_a / name).exists()
        assert (out_a / "table.csv").read_text() == (out_b / "table.csv").read_text()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["plan"]["master_seed"] == 9
        assert manifest["plan"]["scenarios"][0]["per_context_n"] == 300
        assert manifest["versions"]["numpy"]

    def test_bad_config_key_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cell.cfg"
        config.write_text("effect = linear\nwhoops = 3\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--reps", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line, key",
        [("maf = abc", "maf"), ("contexts = 2.5", "contexts"),
         ("alpha_grid = 8.0, nine", "alpha_grid")],
    )
    def test_malformed_config_value_is_config_error(self, tmp_path, capsys, line, key):
        config = tmp_path / "cell.cfg"
        config.write_text(f"effect = linear\n{line}\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--reps", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert repr(key) in err
        assert repr(line.split("=")[1].split(",")[-1].strip()) in err

    @pytest.mark.parametrize("contexts", ["-1", "0"])
    def test_contexts_below_three_is_config_error(self, tmp_path, capsys, contexts):
        config = tmp_path / "cell.cfg"
        config.write_text(f"effect = linear\ncontexts = {contexts}\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--reps", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: scenario config key 'contexts': {contexts} is below 3, "
            "the fewest the trend test needs"]

    def test_contexts_above_the_bound_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cell.cfg"
        config.write_text("effect = linear\ncontexts = 10001\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--reps", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: scenario config key 'contexts': 10001 is above 10000, "
            "the most a cell may have"]

    def test_repeated_config_key_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cell.cfg"
        config.write_text("effect = linear\nmaf = 0.3\nmaf = 0.4\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--reps", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: scenario config key 'maf' is given twice, on lines 2 and 3"]
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("lines, code, line", [
        ("effect = quadratic\nquadratic_coefficient = 1e308\nper_context_n = 100",
         EXIT_ESTIMATION, "estimation error: cell quadratic/larger: 2/2 replications failed "
         "(2x the simulated outcome overflows the float range)"),
        ("linear_slope = 1e300\nper_context_n = 100",
         EXIT_ESTIMATION, "estimation error: cell linear/larger: 2/2 replications failed "
         "(2x the simulated outcome overflows the float range)"),
        ("alpha_grid = 1e300,-1e300,1e300\nper_context_n = 100",
         EXIT_CONFIG, "configuration error: cell linear/custom has alpha_k = 1e+300; beyond "
         "|alpha_k| = 1.9e+08 the exposure x = z + alpha_k loses z's variation to rounding"),
        ("instrument_effect = 1e308\nper_context_n = 100",
         EXIT_ESTIMATION, "estimation error: cell linear/larger: 2/2 replications failed "
         "(2x the simulated exposure overflows the float range)"),
        ("maf = 0.001\nper_context_n = 10",
         EXIT_ESTIMATION, "estimation error: cell linear/larger: 2/2 replications failed "
         "(2x context '1': instrument-exposure association nan is indistinguishable from zero)"),
    ], ids=["quadratic", "slope", "alphas", "instrument", "constant-instrument"])
    def test_failing_cell_is_one_line_estimation_error(self, tmp_path, capsys, lines, code,
                                                       line):
        # Finite parameters whose exposure or outcome leaves the float range
        # fail with one line that names the overflow, and no numpy warning; a
        # constant instrument names its context. Shifts too large for the
        # exposure to keep its variation are a configuration error of the plan.
        config = tmp_path / "cell.cfg"
        config.write_text(lines + "\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--reps", "2",
                     "--out-dir", str(tmp_path)]) == code
        assert capsys.readouterr().err.splitlines() == [line]

    def test_two_context_cell_is_config_error_before_any_replication(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(plan):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        config = tmp_path / "cell.cfg"
        config.write_text("alpha_grid = 8.0,9.0\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--reps", "3",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: cell linear/custom has 2 contexts; "
            "the trend test needs >= 3"
        ]

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--seed", "-1", "--reps", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "master seed must be >= 0" in err


class TestOutputPath:
    """An --out-dir that cannot be created or written is a usage error (exit 2)."""

    def test_simulate_checks_out_dir_before_running(self, tmp_path, capsys, monkeypatch):
        def no_run(plan):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        code = main(["simulate", "--reps", "20", "--out-dir", str(blocker)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot write output to {blocker}"
        )

    @pytest.mark.parametrize("command", ["analyze", "meta"])
    def test_out_dir_is_a_file(self, cohort_csv, tmp_path, capsys, command):
        summary = tmp_path / "summary.csv"
        summary.write_text(
            "context,bx,bx_se,by,by_se,xmean,n\n"
            "a,1.0,0.0,1.0,1.0,50.0,1000\n"
            "b,1.0,0.0,2.0,1.0,52.0,1000\n",
            encoding="utf-8",
        )
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        argv = {
            "analyze": analyze_args(cohort_csv, blocker),
            "meta": ["meta", "--summary", str(summary), "--out-dir", str(blocker)],
        }[command]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"configuration error: cannot write output to {blocker}")


class TestUnreadableInput:
    """Input files that cannot be read as UTF-8 text exit 3, not with a traceback."""

    def test_non_utf8_data(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"score,vitd,chd,centre\n1,50,0,caf\xe9\n")
        assert main(analyze_args(path, tmp_path)) == EXIT_INGEST
        assert "ingestion error" in capsys.readouterr().err

    def test_non_utf8_summary(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            b"context,bx,bx_se,by,by_se,xmean,n\n"
            b"caf\xe9,1.0,0.0,1.0,1.0,50.0,1000\n"
            b"b,1.0,0.0,2.0,1.0,52.0,1000\n"
        )
        code = main(["meta", "--summary", str(path), "--out-dir", str(tmp_path)])
        assert code == EXIT_INGEST
        assert "ingestion error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "meta", "simulate"])
    def test_directory_as_input_file(self, tmp_path, capsys, command):
        out = str(tmp_path / "out")
        argv = {
            "analyze": analyze_args(tmp_path, out),
            "meta": ["meta", "--summary", str(tmp_path), "--out-dir", out],
            "simulate": ["simulate", "--config", str(tmp_path), "--reps", "1",
                         "--out-dir", out],
        }[command]
        assert main(argv) == EXIT_INGEST
        assert "ingestion error" in capsys.readouterr().err


def test_labels_that_need_quoting_round_trip(tmp_path, capsys):
    labels = ("a,b", 'q"x', "two\nlines", "car\rriage", "plain")
    ds = synthetic_cohort(seed=5, sizes=(300,) * 5, means=(50.0, 52.0, 54.0, 56.0, 58.0),
                          with_covariates=False)
    data = tmp_path / "cohort.csv"
    with open(data, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("score", "vitd", "chd", "centre"))
        writer.writerows(zip(ds.instrument.tolist(), ds.exposure.tolist(),
                             ds.outcome.astype(int).tolist(), np.repeat(labels, 300)))
    args = ["analyze", "--data", str(data), "--instrument-col", "score",
            "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre",
            "--out-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    with open(tmp_path / "report.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert {len(row) for row in rows} == {12}
    assert sorted(row[0] for row in rows[1:]) == sorted(labels)


class TestParserCache:
    """``main`` builds its parser once per process; no call leaves state for the next."""

    def test_main_builds_the_parser_once(self, tmp_path, capsys):
        cli._parser.cache_clear()
        summary = tmp_path / "centres.csv"
        summary.write_text(README_SUMMARY_CSV, encoding="utf-8")
        for _ in range(3):
            assert main(["meta", "--summary", str(summary), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert cli._parser.cache_info().misses == 1
        assert cli.build_parser() is not cli._parser()
        capsys.readouterr()

    def test_a_call_leaves_nothing_for_the_next(self, tmp_path, capsys):
        summary = tmp_path / "centres.csv"
        summary.write_text(README_SUMMARY_CSV, encoding="utf-8")
        first = ["meta", "--summary", str(summary), "--tau2", "dl", "--format", "json",
                 "--scale", "10", "--out-dir", str(tmp_path / "first")]
        plain = ["meta", "--summary", str(summary)]
        assert main(first) == EXIT_OK
        capsys.readouterr()
        assert main([*plain, "--out-dir", str(tmp_path / "second")]) == EXIT_OK
        second = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "ctxmr.cli", *plain, "--out-dir", str(tmp_path / "fresh")],
            capture_output=True,
            text=True,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (EXIT_OK, second.out, "")
        assert second.err == ""
        for name in ("report.json", "report.txt", "report.csv"):
            assert ((tmp_path / "second" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes()), name

    def test_a_usage_error_exits_2_each_time(self, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as caught:
                main(["meta", "--scale", "10"])
            assert caught.value.code == EXIT_CONFIG
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "the following arguments are required: --summary" in errors[0]

    def test_a_handler_patched_after_a_call_is_the_one_that_runs(self, tmp_path, capsys,
                                                                  monkeypatch):
        summary = tmp_path / "centres.csv"
        summary.write_text(README_SUMMARY_CSV, encoding="utf-8")
        argv = ["meta", "--summary", str(summary), "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_meta", lambda args: seen.append(args.summary) or 7)
        assert main(argv) == 7
        assert seen == [str(summary)]
        capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ctxmr.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ctxmr" in proc.stdout
