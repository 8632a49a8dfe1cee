"""The golden runs of ``ctxmr`` and the script that rewrites their outputs.

Each case is one command-line run on a fixed input; its output files are
kept under ``tests/golden/<case>/`` and ``tests/test_golden.py`` compares
a fresh run with them. A change that moves a number rewrites them in the
same commit, so the diff of this directory shows what moved:

    PYTHONPATH=src:tests python -m golden.regenerate
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

from ctxmr.cli import EXIT_OK, main

from fixtures import small_sizes, synthetic_cohort, write_cohort_csv
from regression_sets import ELEVEN_CONTEXT_SUMMARY_CSV

GOLDEN_DIR = Path(__file__).resolve().parent

#: The summary table of the README's ``meta`` example.
README_SUMMARY_CSV = """\
context,bx,bx_se,by,by_se,xmean,n
a,0.5,0.02,0.10,0.02,50.0,1000
b,0.4,0.02,0.09,0.02,52.0,1000
c,0.6,0.03,0.15,0.03,54.0,1000
"""

REPORT_FILES = ("report.json", "report.txt", "report.csv")
#: manifest.json is left out: it records the wall time and the versions.
TABLE_FILES = ("table.csv", "table.txt", "table.json")

_COHORT = ["--data", "cohort.csv", "--instrument-col", "score", "--exposure-col", "vitd",
           "--outcome-col", "chd", "--context-col", "centre"]

#: Case name -> (the command line, with input files named relative to the
#: run's directory, and the output files kept).
CASES = {
    "analyze_logistic": (["analyze", *_COHORT, "--covariates", "age,sex",
                          "--family", "logistic", "--scale", "10"], REPORT_FILES),
    "analyze_linear": (["analyze", *_COHORT], REPORT_FILES),
    "meta_eleven": (["meta", "--summary", "eleven.csv"], REPORT_FILES),
    "meta_eleven_dl": (["meta", "--summary", "eleven.csv", "--scale", "10", "--tau2", "dl"],
                       REPORT_FILES),
    "meta_readme": (["meta", "--summary", "centres.csv", "--scale", "10"], REPORT_FILES),
    "simulate": (["simulate", "--reps", "200", "--seed", "1"], TABLE_FILES),
}


def write_inputs(directory: Path) -> None:
    """Write every case's input file into ``directory``."""
    write_cohort_csv(directory / "cohort.csv", synthetic_cohort(11, sizes=small_sizes(10)))
    (directory / "eleven.csv").write_text(ELEVEN_CONTEXT_SUMMARY_CSV, encoding="utf-8")
    (directory / "centres.csv").write_text(README_SUMMARY_CSV, encoding="utf-8")


def run_case(name: str, inputs: Path, out_dir: Path) -> None:
    """Run case ``name`` on the input files in ``inputs``, writing into ``out_dir``."""
    argv, _ = CASES[name]
    argv = [str(inputs / arg) if arg.endswith(".csv") else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out-dir", str(out_dir)])
    if code != EXIT_OK:
        raise RuntimeError(f"golden case {name!r} exited {code}")


def regenerate() -> None:
    """Rewrite every case's kept output files under ``GOLDEN_DIR``."""
    work = GOLDEN_DIR / "_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        write_inputs(work)
        for name, (_, files) in CASES.items():
            run_case(name, work, work / name)
            (GOLDEN_DIR / name).mkdir(exist_ok=True)
            for file in files:
                shutil.copyfile(work / name / file, GOLDEN_DIR / name / file)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    regenerate()
