"""Benchmark of ctxmr: four workloads, end-to-end metrics or a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sim_six_cell --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from --seed, measures the start-up of the
program (`import ctxmr` in fresh processes), then runs the workload in a
fresh process for --seconds (see workload.py). The last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
end-to-end with --trace 0 and per layer with --trace 1. BLAS and OpenMP
are pinned to one thread for every process started here.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("sim_six_cell", "analyze_csv", "analyze_logistic", "meta_summary")

#: Fresh processes timed for setup_s; the median is reported. One more
#: runs first and is discarded, so every timed import finds compiled
#: bytecode and warm file caches, as a user's second run would.
SETUP_REPEATS = 9
SETUP_SNIPPET = (
    "import sys, time; t = time.perf_counter(); import ctxmr; "
    "elapsed = time.perf_counter() - t; sys.path.insert(0, {here!r}); import calibrate; "
    "calibrate.sample(); print(repr(elapsed), repr(sorted(calibrate.sample() "
    "for _ in range(3))[1]))"
)

SPAN_METRICS = (
    ("simulate.generate_dataset", ("self_ms", "calls")),
    ("datamodel.partition_by_context", ("self_ms",)),
    ("datamodel.load_csv", ("self_ms",)),
    ("datamodel.summarize_context", ("self_ms",)),
    ("ivcore.context_iv", ("self_ms",)),
    ("regress.fit_linear", ("self_ms", "calls")),
    ("numerics.wls_solve", ("self_ms", "calls")),
    ("regress.fit_logistic_detail", ("self_ms", "calls", "iterations_per_call")),
    ("heterogeneity.q_first_order", ("self_ms",)),
    ("heterogeneity.q_modified_second_order", ("self_ms", "iterations_per_call")),
    ("metareg.trend_test", ("self_ms", "iterations_per_call", "tau2_zero_share")),
    ("numerics.chi_square_sf", ("self_ms",)),
    ("numerics.normal_sf", ("self_ms",)),
    ("report.load_summary_csv", ("self_ms",)),
    ("report.analyze_summary_results", ("self_ms",)),
    ("report.analyze_dataset", ("self_ms",)),
    ("report.report_to_json", ("self_ms",)),
    ("report.render_text", ("self_ms",)),
    ("cli.main", ("self_ms",)),
    ("harness.run_experiment", ("self_ms",)),
)
UNITS = {"self_ms": "ms", "calls": "count", "iterations_per_call": "count",
         "tau2_zero_share": "share"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """Wall time of `import ctxmr` in fresh processes, each with its kernel time."""
    snippet = SETUP_SNIPPET.format(here=str(HERE))
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, kernel = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(elapsed), float(kernel)))
    return samples[1:]


def tail(samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"p50 {1e3 * statistics.median(samples):.2f} ms"
    if n >= 40:
        q = math.floor(100 * (1 - 10 / n))
        cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
        text += f", p{q} {1e3 * cut:.2f} ms"
    return f"{text} (n = {n})"


def reference_times(ops: list) -> list[float]:
    """Operation CPU times at the reference machine speed.

    Each is scaled by NOMINAL_S over the kernel time of its own round: of
    the estimators tried, the median of these per-operation ratios tracked
    the machine's drift best (see README.md).
    """
    return [calibrate.NOMINAL_S * cpu / kernel for cpu, kernel in ops]


def end_to_end(child: dict, setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics, with times expressed at the reference machine speed.

    Each import time is scaled by NOMINAL_S over the kernel time of its own
    process.
    """
    times = reference_times(child["ops"])
    return {
        "setup_s": {"value": statistics.median(t * calibrate.NOMINAL_S / k for t, k in setup),
                    "unit": "s"},
        "ops_per_cpu_s": {"value": 1.0 / statistics.fmean(times), "unit": "1/s"},
        "op_cpu_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(child: dict, file_bytes: int | None) -> dict:
    ops = child["traced_ops"]
    layers, counters = child["layers"], child["counters"]
    metrics = {}
    for name, kinds in SPAN_METRICS:
        calls = layers[name]["calls"]
        for kind in kinds:
            if kind == "self_ms":
                value = layers[name]["self_ns"] / 1e6 / ops
            elif kind == "calls":
                value = calls / ops
            elif kind == "iterations_per_call":
                value = counters.get(name + ".iterations", 0.0) / calls if calls else 0.0
            else:
                value = counters.get(name + ".tau2_zero", 0.0) / calls if calls else 0.0
            metrics[f"{name}.{kind}"] = {"value": value, "unit": UNITS[kind]}
    load_ns = layers["datamodel.load_csv"]["self_ns"]
    calls = layers["datamodel.load_csv"]["calls"]
    metrics["datamodel.load_csv.mb_per_s"] = {
        "value": file_bytes * calls / 1e6 / (load_ns / 1e9) if load_ns else 0.0,
        "unit": "MB/s"}
    metrics["datamodel.load_csv.rows_dropped"] = {
        "value": counters.get("datamodel.load_csv.rows_dropped", 0.0) / ops, "unit": "count"}
    metrics["harness.replications_failed"] = {
        "value": child["replications_failed_per_op"], "unit": "count"}
    untraced = statistics.fmean(reference_times(child["ops"]))
    traced = statistics.fmean(reference_times(child["traced"]))
    metrics["trace.overhead_share"] = {"value": 1.0 - untraced / traced, "unit": "share"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ctxmr" / "__init__.py").is_file():
        print(f"error: no ctxmr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    import inputs  # its generators import ctxmr's test fixtures, so after the check

    env = child_env()
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_file = WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
    try:
        inputs.prepare(args.workload, args.seed, run_dir / "inputs")
        setup = measure_setup(env)
        if args.trace:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--inputs", str(run_dir / "inputs"),
               "--out-dir", str(run_dir / "out"), "--trace-file", str(trace_file)]
        try:
            done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=3 * args.seconds + 120)
        except subprocess.TimeoutExpired:
            print("error: workload process timed out", file=sys.stderr)
            return 1
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
            return 1
        child = json.loads(done.stdout.strip().splitlines()[-1])
        reference = json.loads((run_dir / "inputs" / "reference.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    imports = [t for t, _ in setup]
    print(f"{args.workload}: CPU per op at reference speed "
          f"{tail(reference_times(child['ops']))}; raw {tail([c for c, _ in child['ops']])}; "
          f"reference kernel {tail(child['kernel_s'])}; import ctxmr "
          f"{min(imports):.3f}-{max(imports):.3f} s over {len(imports)} processes")
    if args.trace:
        metrics = per_layer(child, reference.get("file_bytes"))
    else:
        metrics = end_to_end(child, setup)
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
