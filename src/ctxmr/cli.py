"""Command-line interface.

Three subcommands:

* ``analyze``  - context-stratified MR on an individual-level CSV;
* ``meta``     - heterogeneity and trend tests from a per-context summary CSV;
* ``simulate`` - the Monte Carlo rejection-rate experiment.

Exit codes:

* 0 - success;
* 2 - configuration or usage error, including output path errors (an
  ``--out-dir`` that cannot be created or written);
* 3 - ingestion error (an input file that is missing, unreadable or
  malformed);
* 4 - estimation or experiment error.

``main`` builds its argument parser once per process and reuses it on
every later call; ``build_parser()`` returns a fresh parser each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .datamodel import DEFAULT_MIN_CONTEXT_SIZE, ColumnMap, load_csv
from .errors import ConfigError, EstimationError, ExperimentError, IngestError
from .harness import default_plan, emit_table, plan_manifest, run_experiment
from .metareg import TAU2_METHODS
from .report import (
    AnalysisOptions,
    analyze_dataset,
    analyze_summary_results,
    context_table_csv,
    context_text,
    load_summary_csv,
    render_text,
    report_to_json,
)
from .simulate import parse_scenario_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_ESTIMATION = 4


def _add_output_flags(sub):
    sub.add_argument("--out-dir", default=".", help="directory for output files")
    sub.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="format echoed to stdout (all formats are always written)",
    )


def _add_analysis_flags(sub):
    sub.add_argument("--scale", type=float, default=1.0,
                     help="report estimates per this many exposure units")
    sub.add_argument("--tau2", choices=TAU2_METHODS, default="reml",
                     help="between-context variance estimator for the trend test")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the three subcommands.

    ``main`` builds one per process and keeps it. The parser holds no
    handler: ``main`` looks ``cmd_<command>`` up when it is called.
    """
    parser = argparse.ArgumentParser(
        prog="ctxmr",
        description="Context-stratified Mendelian randomization.",
        epilog="Exit codes: 0 ok, 2 configuration, 3 ingestion, 4 estimation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="full analysis of an individual-level CSV"
    )
    analyze.add_argument("--data", required=True, help="individual-level CSV path")
    analyze.add_argument("--instrument-col", required=True)
    analyze.add_argument("--exposure-col", required=True)
    analyze.add_argument("--outcome-col", required=True)
    analyze.add_argument("--context-col", required=True)
    analyze.add_argument("--covariates", default="",
                         help="comma-separated covariate column names")
    analyze.add_argument("--family", choices=("linear", "logistic"), default="linear")
    analyze.add_argument("--min-context-n", type=int, default=DEFAULT_MIN_CONTEXT_SIZE)
    _add_analysis_flags(analyze)
    _add_output_flags(analyze)

    meta = commands.add_parser(
        "meta", help="heterogeneity and trend from per-context summary statistics"
    )
    meta.add_argument("--summary", required=True,
                      help="summary CSV with columns context,bx,bx_se,by,by_se,xmean,n")
    _add_analysis_flags(meta)
    _add_output_flags(meta)

    simulate = commands.add_parser(
        "simulate", help="run the Monte Carlo rejection-rate experiment"
    )
    simulate.add_argument("--reps", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--workers", type=int, default=1)
    simulate.add_argument("--alpha", type=float, default=0.05)
    simulate.add_argument("--tau2", choices=TAU2_METHODS, default="reml")
    simulate.add_argument(
        "--config",
        help="scenario config file for a single custom cell "
        "(default: the six built-in cells)",
    )
    _add_output_flags(simulate)
    return parser


def _write_outputs(out_dir: str, files: dict[str, str]) -> None:
    """Write each named file into ``out_dir``, creating it if needed.

    A failure is a usage error about ``--out-dir``, not an input error.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (out / name).write_text(content, encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot write output to {out_dir}: {err}") from None


def _write_report(report, out_dir: str, stdout_format: str) -> None:
    text = context_text(report)  # formatted once, for report.json and report.csv
    artifacts = {
        "report.json": report_to_json(report, text),
        "report.txt": render_text(report),
        "report.csv": context_table_csv(report, text),
    }
    _write_outputs(out_dir, artifacts)
    chosen = {"text": "report.txt", "json": "report.json", "csv": "report.csv"}
    sys.stdout.write(artifacts[chosen[stdout_format]])


def cmd_analyze(args) -> int:
    options = AnalysisOptions(  # checked before any input is read
        family=args.family,
        scale=args.scale,
        min_context_n=args.min_context_n,
        tau2_method=args.tau2,
    )
    covariates = tuple(c.strip() for c in args.covariates.split(",") if c.strip())
    cmap = ColumnMap(
        instrument=args.instrument_col,
        exposure=args.exposure_col,
        outcome=args.outcome_col,
        context=args.context_col,
        covariates=covariates,
    )
    ds = load_csv(args.data, cmap, outcome_family=args.family)
    report = analyze_dataset(ds, options)
    _write_report(report, args.out_dir, args.format)
    return EXIT_OK


def cmd_meta(args) -> int:
    options = AnalysisOptions(scale=args.scale, tau2_method=args.tau2)  # before any input
    report = analyze_summary_results(load_summary_csv(args.summary), options)
    _write_report(report, args.out_dir, args.format)
    return EXIT_OK


def cmd_simulate(args) -> int:
    plan = default_plan(
        replications=args.reps,
        master_seed=args.seed,
        workers=args.workers,
        tau2_method=args.tau2,
    )
    plan = replace(plan, alpha_level=args.alpha)
    if args.config:
        scenario = parse_scenario_config(Path(args.config).read_text(encoding="utf-8-sig"))
        plan = replace(plan, scenarios=(scenario,))
    _write_outputs(args.out_dir, {})  # a bad --out-dir fails before the experiment runs
    start = time.perf_counter()
    results = run_experiment(plan)
    wall = time.perf_counter() - start
    table = emit_table(results)
    manifest = plan_manifest(plan, results, wall_seconds=wall)
    _write_outputs(args.out_dir, {
        "table.txt": table.text,
        "table.csv": table.csv,
        "table.json": table.json,
        "manifest.json": json.dumps(manifest, indent=2) + "\n",
    })
    chosen = {"text": table.text, "json": table.json, "csv": table.csv}
    sys.stdout.write(chosen[args.format])
    return EXIT_OK


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "meta": cmd_meta,
               "simulate": cmd_simulate}[args.command]
    try:
        return handler(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestError as err:
        print(f"ingestion error: {err}", file=sys.stderr)
        return EXIT_INGEST
    except (EstimationError, ExperimentError) as err:
        print(f"estimation error: {err}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (OSError, UnicodeDecodeError) as err:
        print(f"ingestion error: {err}", file=sys.stderr)
        return EXIT_INGEST


if __name__ == "__main__":
    sys.exit(main())
