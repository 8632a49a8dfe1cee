"""Shows that every output check of the benchmark rejects a perturbed output.

Run from the root of a source checkout (about 20 s):

    python3 perfbench/selftest.py

Each test takes a real ctxmr output that passes its check, perturbs one
quantity just beyond the check's tolerance, and asserts the check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ctxmr import cli, harness  # noqa: E402
from ctxmr.report import report_from_json  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402

WORK = HERE.parent / ".perfbench_work" / "selftest"


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out = Path(argv[argv.index("--out-dir") + 1])
    return code, tuple((out / name).read_text(encoding="utf-8")
                       for name in ("report.json", "report.txt", "report.csv"))


def setUpModule():
    WORK.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class ReportChecks:
    """Perturbations shared by the summary and the individual-level report."""

    mode: str
    code: int
    files: tuple
    ref: dict

    def report(self):
        return json.loads(self.files[0])

    def assertRejected(self, problems):
        self.assertTrue(problems, "perturbed output passed its check")

    def test_unperturbed_passes(self):
        self.assertEqual(checks.check_cli_report(self.code, self.files, self.ref, self.mode), [])

    def test_exit_code(self):
        self.assertRejected(checks.check_cli_report(4, self.files, self.ref, self.mode))

    def test_missing_file(self):
        files = (self.files[0], self.files[1], None)
        self.assertRejected(checks.check_cli_report(0, files, self.ref, self.mode))

    def test_round_trip(self):
        self.assertRejected(checks.check_round_trip(json.dumps(self.report(), indent=1)))

    def test_table_csv(self):
        report = self.report()
        report["contexts"][0]["by"] = report["contexts"][0]["by"] * (1 + 1e-15)
        self.assertRejected(checks.check_table_csv(report, self.files[2]))

    def test_text_report(self):
        files = (self.files[0], self.files[1].replace("Q = ", "Q: "), self.files[2])
        self.assertRejected(checks.check_cli_report(0, files, self.ref, self.mode))

    def perturbed(self, path, delta):
        report = self.report()
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        return checks.check_report_dict(report, self.ref, self.mode)

    def test_q_first_order(self):
        q = self.report()["heterogeneity_first_order"]["q"]
        self.assertRejected(self.perturbed(("heterogeneity_first_order", "q"), 1e-8 * q))

    def test_p_first_order(self):
        self.assertRejected(self.perturbed(("heterogeneity_first_order", "p"), 1e-7))

    def test_q_modified(self):
        self.assertRejected(self.perturbed(("heterogeneity_modified", "q"), 2e-6))

    def test_p_modified(self):
        _, tol2, _ = oracle.p_tolerances(self.ref)
        self.assertRejected(self.perturbed(("heterogeneity_modified", "p"), 2 * tol2))

    def test_df(self):
        self.assertRejected(self.perturbed(("heterogeneity_modified", "df"), 1))

    def test_tau2(self):
        self.assertRejected(self.perturbed(("trend", "tau2"), 2e-4))

    def test_slope(self):
        self.assertRejected(self.perturbed(("trend", "slope"), 2e-6))

    def test_trend_p(self):
        _, _, tol3 = oracle.p_tolerances(self.ref)
        self.assertRejected(self.perturbed(("trend", "slope_p"), 2 * tol3))

    def test_context_association(self):
        for key in ("bx", "bx_se", "by", "by_se"):
            se = self.report()["contexts"][3][key.split("_")[0] + "_se"]
            self.assertRejected(self.perturbed(("contexts", 3, key), 1e-6 * se))

    def test_context_n(self):
        self.assertRejected(self.perturbed(("contexts", 1, "n"), 1))

    def test_context_order(self):
        report = self.report()
        report["contexts"].reverse()
        self.assertRejected(checks.check_report_dict(report, self.ref, self.mode))


class SummaryReportChecks(ReportChecks, unittest.TestCase):
    mode = "summary"

    @classmethod
    def setUpClass(cls):
        directory = WORK / "summary"
        directory.mkdir(parents=True, exist_ok=True)
        entry = inputs.write_summary_pool(directory, seed=5)[4]
        cls.ref = entry["ref"]
        cls.code, cls.files = run_cli(["meta", "--summary", str(directory / entry["file"]),
                                       "--scale", "10", "--out-dir", str(directory / "out")])


class IndividualReportChecks(ReportChecks, unittest.TestCase):
    mode = "individual"

    @classmethod
    def setUpClass(cls):
        directory = WORK / "individual"
        directory.mkdir(parents=True, exist_ok=True)
        cls.ref = inputs.write_cohort_csv(directory / "cohort.csv", seed=5)
        cls.code, cls.files = run_cli([
            "analyze", "--data", str(directory / "cohort.csv"), "--instrument-col", "score",
            "--exposure-col", "vitd", "--outcome-col", "chd", "--context-col", "centre",
            "--covariates", "age,sex", "--family", "logistic", "--scale", "10",
            "--out-dir", str(directory / "out")])

    def test_dropped_and_record_counts(self):
        for key in ("n_dropped", "n_records"):
            report = self.report()
            report["config"][key] += 1
            self.assertRejected(checks.check_report_dict(report, self.ref, self.mode))

    def test_report_object(self):
        text = self.files[0]
        result = report_from_json(text)
        self.assertEqual(checks.check_report_object(result, text, self.ref), [])
        moved = dataclasses.replace(result, trend=dataclasses.replace(
            result.trend, slope=result.trend.slope * (1 + 1e-15)))
        self.assertRejected(checks.check_report_object(moved, text, self.ref))


class KnownQ2Fault(unittest.TestCase):
    """The fixed summary set the program gets wrong fails on its modified Q alone."""

    @classmethod
    def setUpClass(cls):
        directory = WORK / "fault"
        directory.mkdir(parents=True, exist_ok=True)
        entries = inputs.write_summary_pool(directory, seed=5)
        cls.entry = next(e for e in entries if e["ref"]["known_q2_fault"])
        cls.code, cls.files = run_cli(["meta", "--summary", str(directory / cls.entry["file"]),
                                       "--scale", "10", "--out-dir", str(directory / "out")])

    def test_fails_on_modified_q_only(self):
        problems = checks.check_cli_report(self.code, self.files, self.entry["ref"], "summary")
        self.assertTrue(checks.only_modified_q(problems), problems)

    def test_other_problem_is_not_the_known_fault(self):
        report = json.loads(self.files[0])
        report["trend"]["slope"] += 2e-6
        problems = checks.check_report_dict(report, self.entry["ref"], "summary")
        self.assertFalse(checks.only_modified_q(problems), problems)

    def test_fixed_sets_do_not_depend_on_seed(self):
        def fixed(seed):
            return [item["by"].tolist() for item in inputs.summary_pool(seed)
                    if item["name"].endswith("-".join(inputs.FIXED_KIND))]
        self.assertEqual(fixed(5), fixed(6))
        self.assertNotEqual(inputs.summary_pool(5)[0]["by"].tolist(),
                            inputs.summary_pool(6)[0]["by"].tolist())


class SimulationChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plan = harness.default_plan(replications=2, master_seed=91, workers=1)
        cls.cells = harness.run_experiment(cls.plan)

    def assertRejected(self, problems):
        self.assertTrue(problems, "perturbed output passed its check")

    def test_unperturbed_passes(self):
        self.assertEqual(checks.check_sim_op(self.plan, self.cells, cell_index=4), [])

    def test_failed_replication(self):
        cells = list(self.cells)
        cells[2] = dataclasses.replace(cells[2], failures=1, replications_completed=1)
        self.assertRejected(checks.check_sim_op(self.plan, cells, cell_index=0))

    def test_linear_cells_differ(self):
        cells = list(self.cells)
        linear_smaller = next(i for i, c in enumerate(cells)
                              if (c.scenario, c.grid) == ("linear", "smaller"))
        cells[linear_smaller] = dataclasses.replace(
            cells[linear_smaller], rej_q_mod2=cells[linear_smaller].rej_q_mod2 + 0.5)
        self.assertRejected(checks.check_sim_op(self.plan, cells, cell_index=1))

    def test_rate_not_from_replications(self):
        cells = list(self.cells)
        cells[4] = dataclasses.replace(cells[4], rej_trend=1.0 - cells[4].rej_trend)
        self.assertRejected(checks.check_sim_op(self.plan, cells, cell_index=4))

    def test_replication_p_values(self):
        scenario = self.plan.scenarios[1]
        outcome = harness.run_replication(scenario, 91, 0)
        ref = checks.simulation_reference(harness.generate_dataset(scenario, 91, 0))
        self.assertEqual(checks.check_replication(outcome, ref), [])
        tol1, tol2, tol3 = oracle.p_tolerances(ref)
        for field, tol in (("p_q_first", tol1), ("p_q_mod2", tol2), ("p_trend", tol3)):
            moved = dataclasses.replace(outcome, **{field: getattr(outcome, field) + 2 * tol})
            self.assertRejected(checks.check_replication(moved, ref))
        self.assertRejected(checks.check_replication(
            dataclasses.replace(outcome, error="diverged"), ref))


if __name__ == "__main__":
    unittest.main(verbosity=2)
