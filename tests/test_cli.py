"""Tests for the command-line interface: flags, outputs, exit codes."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ctxmr import cli
from ctxmr.cli import EXIT_CONFIG, EXIT_ESTIMATION, EXIT_INGEST, EXIT_OK, main
from ctxmr.report import report_from_json, report_to_json

from fixtures import small_sizes, synthetic_cohort, write_cohort_csv
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


    @pytest.mark.parametrize("lines, problem", [
        ("effect = quadratic\nquadratic_coefficient = 1e308\nper_context_n = 100",
         "quadratic/larger: 2/2 replications failed "
         "(2x the simulated outcome overflows the float range)"),
        ("linear_slope = 1e300\nper_context_n = 100",
         "linear/larger: 2/2 replications failed "
         "(2x the simulated outcome overflows the float range)"),
        ("alpha_grid = 1e300,-1e300,1e300\nper_context_n = 100",
         "linear/custom: 2/2 replications failed "
         "(2x the simulated outcome overflows the float range)"),
        ("instrument_effect = 1e308\nper_context_n = 100",
         "linear/larger: 2/2 replications failed "
         "(2x the simulated exposure overflows the float range)"),
        ("maf = 0.001\nper_context_n = 10",
         "linear/larger: 2/2 replications failed (2x heterogeneity needs >= 2 usable "
         "contexts, got 0 (10 excluded for zero instrument association))"),
    ], ids=["quadratic", "slope", "alphas", "instrument", "constant-instrument"])
    def test_failing_cell_is_one_line_estimation_error(self, tmp_path, capsys, lines, problem):
        # Finite parameters whose exposure or outcome leaves the float range
        # fail with one line that names the overflow, and no numpy warning; a
        # constant instrument keeps its own message.
        config = tmp_path / "cell.cfg"
        config.write_text(lines + "\n", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--reps", "2",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_ESTIMATION
        assert capsys.readouterr().err.splitlines() == [f"estimation error: cell {problem}"]

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

    @pytest.mark.parametrize("command", ["analyze", "meta", "simulate", "plotdata"])
    def test_directory_as_input_file(self, tmp_path, capsys, command):
        out = str(tmp_path / "out")
        argv = {
            "analyze": analyze_args(tmp_path, out),
            "meta": ["meta", "--summary", str(tmp_path), "--out-dir", out],
            "simulate": ["simulate", "--config", str(tmp_path), "--reps", "1",
                         "--out-dir", out],
            "plotdata": ["plotdata", "--report", str(tmp_path), "--out-dir", out],
        }[command]
        assert main(argv) == EXIT_INGEST
        assert "ingestion error" in capsys.readouterr().err


class TestPlotdata:
    def test_emits_both_files(self, cohort_csv, tmp_path, capsys):
        assert main(analyze_args(cohort_csv, tmp_path)) == EXIT_OK
        capsys.readouterr()
        code = main(
            ["plotdata", "--report", str(tmp_path / "report.json"),
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        unscaled = (tmp_path / "plot_unscaled.csv").read_text().splitlines()
        scaled = (tmp_path / "plot_scaled.csv").read_text().splitlines()
        assert len(unscaled) == len(scaled) == 21
        assert unscaled[0] == "context,xmean,estimate,lo95,hi95"

    @staticmethod
    def _plotdata_fails(tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code = main(["plotdata", "--report", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INGEST
        assert err.startswith("ingestion error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        return err

    @staticmethod
    def _saved_report(cohort_csv, tmp_path, capsys):
        assert main(analyze_args(cohort_csv, tmp_path / "run")) == EXIT_OK
        capsys.readouterr()
        return json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))

    def test_report_that_is_not_json(self, tmp_path, capsys):
        err = self._plotdata_fails(tmp_path, capsys, "context,bx\nC01,0.5\n")
        assert "not valid JSON" in err

    def test_report_without_a_trend(self, cohort_csv, tmp_path, capsys):
        payload = self._saved_report(cohort_csv, tmp_path, capsys)
        del payload["trend"]
        assert "no 'trend' entry" in self._plotdata_fails(tmp_path, capsys, json.dumps(payload))

    def test_context_row_with_unknown_and_missing_fields(self, cohort_csv, tmp_path, capsys):
        payload = self._saved_report(cohort_csv, tmp_path, capsys)
        payload["contexts"][3]["colour"] = "red"
        err = self._plotdata_fails(tmp_path, capsys, json.dumps(payload))
        assert "context 3 has unknown field(s) colour" in err
        del payload["contexts"][3]["colour"]
        del payload["contexts"][3]["se"]
        err = self._plotdata_fails(tmp_path, capsys, json.dumps(payload))
        assert "context 3 has missing field(s) se" in err

    @pytest.mark.parametrize("entry, field, value, message", [
        ("contexts", "by", "0.1", "context 2 field 'by' is not a number"),
        ("config", "ci_z", "abc", "config field 'ci_z' is not a number"),
        ("contexts", "context", 7, "context 2 field 'context' is not a string"),
        ("heterogeneity_modified", "excluded", 5,
         "heterogeneity_modified field 'excluded' is not a list of strings"),
    ], ids=["by", "ci_z", "context", "excluded"])
    def test_value_of_the_wrong_type(self, cohort_csv, tmp_path, capsys, entry, field, value,
                                     message):
        payload = self._saved_report(cohort_csv, tmp_path, capsys)
        target = payload[entry][2] if entry == "contexts" else payload[entry]
        target[field] = value
        assert message in self._plotdata_fails(tmp_path, capsys, json.dumps(payload))

    def test_labels_that_need_quoting_round_trip(self, tmp_path, capsys):
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
        report = str(tmp_path / "report.json")
        assert main(["plotdata", "--report", report, "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        for name, width in (("report.csv", 12), ("plot_unscaled.csv", 5),
                            ("plot_scaled.csv", 5)):
            with open(tmp_path / name, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert {len(row) for row in rows} == {width}, name
            assert sorted(row[0] for row in rows[1:]) == sorted(labels), name


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ctxmr.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ctxmr" in proc.stdout
