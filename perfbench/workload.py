"""One workload run in a fresh process: warm up, time a closed loop, check outputs.

Started by run.py with the program's `src` on PYTHONPATH and the inputs
already written to --inputs. One operation runs at a time, each timed on
process CPU time; after every round of operations the reference kernel
of calibrate.py is timed too, and each operation is reported with the
kernel time of its round. Outputs are recorded during the loop and checked after
it, outside the timed region and after the peak memory is read (the
checks import scipy), against the references in reference.json
(or, for the simulation, against `oracle` recomputations). Prints one
JSON line with the counts and raw measurements for run.py to report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ctxmr import cli, harness, report
from ctxmr.datamodel import Dataset

from tracing import Tracer

SIM_REPLICATIONS = 2
#: Warm-up operations take indices from here, so their inputs differ from
#: those of the timed operations.
WARMUP_BASE = 10**9


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MB.

    VmHWM starts afresh at exec; getrusage's ru_maxrss would carry over
    the peak of the parent that started this process.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM not found in /proc/self/status")


class KernelClock:
    """The reference kernel of calibrate.py, timed in a helper process.

    The helper runs one kernel pass per request while this process waits,
    so the kernel still sees the machine as the operations do, but its
    arrays never count toward this process's peak memory.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        """CPU seconds of one kernel pass."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


class Workload:
    """Defaults: no simulation replications, and no operation expected to fail."""

    def replications_failed(self):
        return 0

    def expected_failure(self, i, problems):
        return False


class SimSixCell(Workload):
    """run_experiment on the six-cell design, two replications, fresh master seed."""

    round_size = 1
    warmup_ops = 2

    def __init__(self, seed, inputs, out_dir):
        self.seed = seed
        self.outputs = []

    def master_seed(self, i: int) -> int:
        state = np.random.SeedSequence([self.seed % 2**63, 4, i]).generate_state(1, np.uint64)
        return int(state[0] >> 2)

    def op(self, i, run_experiment):
        plan = harness.default_plan(replications=SIM_REPLICATIONS,
                                    master_seed=self.master_seed(i), workers=1)
        return plan, run_experiment(plan)

    def record(self, i, output):
        self.outputs.append((i, output))

    def replications_failed(self):
        return sum(c.failures for _, (_, cells) in self.outputs for c in cells)

    def check(self):
        """Problems per op index."""
        import checks
        return {i: checks.check_sim_op(plan, cells, cell_index=i % len(plan.scenarios))
                for i, (plan, cells) in self.outputs}


class CliWorkload(Workload):
    """Shared by the two CLI workloads: exit code and report files per call."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.distinct = {}

    def run_cli(self, argv, main):
        """The exit code; check_cli_report judges it with the report files."""
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    def record_files(self, key, i, code):
        files = tuple(
            (self.out_dir / name).read_text(encoding="utf-8")
            if (self.out_dir / name).is_file() else None
            for name in ("report.json", "report.txt", "report.csv")
        )
        for name in ("report.json", "report.txt", "report.csv"):
            (self.out_dir / name).unlink(missing_ok=True)
        self.distinct.setdefault((key, code, files), []).append(i)


class AnalyzeCsv(CliWorkload):
    """`ctxmr analyze` on the generated CSV, the README's logistic example."""

    round_size = 1
    warmup_ops = 1

    def __init__(self, seed, inputs, out_dir):
        super().__init__(out_dir)
        self.ref = json.loads((inputs / "reference.json").read_text(encoding="utf-8"))
        self.argv = ["analyze", "--data", str(inputs / "cohort.csv"),
                     "--instrument-col", "score", "--exposure-col", "vitd",
                     "--outcome-col", "chd", "--context-col", "centre",
                     "--covariates", "age,sex", "--family", "logistic",
                     "--scale", "10", "--out-dir", str(out_dir)]

    def op(self, i, main):
        return self.run_cli(self.argv, main)

    def record(self, i, code):
        self.record_files(None, i, code)

    def check(self):
        import checks
        out = {}
        for (_, code, files), ops in self.distinct.items():
            problems = checks.check_cli_report(code, files, self.ref, "individual")
            out.update({i: problems for i in ops})
        return out


class AnalyzeLogistic(Workload):
    """analyze_dataset plus report_to_json on the full-size cohort in memory."""

    round_size = 1
    warmup_ops = 1

    def __init__(self, seed, inputs, out_dir):
        self.ref = json.loads((inputs / "reference.json").read_text(encoding="utf-8"))
        with np.load(inputs / "cohort.npz") as data:
            self.ds = Dataset(
                instrument=data["score"], exposure=data["vitd"], outcome=data["chd"],
                context=data["centre"],
                covariates=np.column_stack([data["age"], data["sex"]]),
                covariate_names=("age", "sex"), outcome_family="logistic",
            )
        self.options = report.AnalysisOptions(family="logistic", scale=10.0)
        self.distinct = {}

    def op(self, i, analyze_dataset, report_to_json):
        result = analyze_dataset(self.ds, self.options)
        return result, report_to_json(result)

    def record(self, i, output):
        result, text = output
        entry = self.distinct.setdefault(text, (result, []))
        entry[1].append(i)

    def check(self):
        import checks
        out = {}
        for text, (result, ops) in self.distinct.items():
            problems = checks.check_report_object(result, text, self.ref)
            out.update({i: problems for i in ops})
        return out


class MetaSummary(CliWorkload):
    """`ctxmr meta` over the pool of summary CSVs, one whole pass per round."""

    def __init__(self, seed, inputs, out_dir):
        super().__init__(out_dir)
        self.pool = json.loads((inputs / "reference.json").read_text(encoding="utf-8"))["pool"]
        self.round_size = self.warmup_ops = len(self.pool)
        self.argvs = [["meta", "--summary", str(inputs / entry["file"]), "--scale", "10",
                       "--out-dir", str(out_dir)] for entry in self.pool]

    def op(self, i, main):
        return self.run_cli(self.argvs[i % self.round_size], main)

    def record(self, i, code):
        self.record_files(i % self.round_size, i, code)

    def expected_failure(self, i, problems):
        """A known fault of the program on a fixed set: only its modified Q is wrong."""
        import checks
        return (self.pool[i % self.round_size]["ref"]["known_q2_fault"]
                and checks.only_modified_q(problems))

    def check(self):
        import checks
        out = {}
        for (index, code, files), ops in self.distinct.items():
            problems = checks.check_cli_report(code, files, self.pool[index]["ref"], "summary")
            out.update({i: problems for i in ops})
        return out


WORKLOADS = {
    "sim_six_cell": SimSixCell,
    "analyze_csv": AnalyzeCsv,
    "analyze_logistic": AnalyzeLogistic,
    "meta_summary": MetaSummary,
}


def entry_points(workload, tracer):
    """The program functions an op calls, traced when a tracer is given."""
    def maybe(name, fn):
        return tracer.wrap(name, fn) if tracer is not None else fn
    if isinstance(workload, SimSixCell):
        return (maybe("harness.run_experiment", harness.run_experiment),)
    if isinstance(workload, AnalyzeLogistic):
        return (maybe("report.analyze_dataset", report.analyze_dataset),
                maybe("report.report_to_json", report.report_to_json))
    return (maybe("cli.main", cli.main),)


def run(name, seed, seconds, trace, inputs, out_dir, trace_file, clock):
    workload = WORKLOADS[name](seed, inputs, out_dir)
    plain = entry_points(workload, None)
    for i in range(workload.warmup_ops):
        workload.op(WARMUP_BASE + i, *plain)
    for _ in range(3):
        clock.sample()
    for leftover in out_dir.iterdir():
        leftover.unlink()

    tracer = Tracer() if trace else None
    traced = entry_points(workload, tracer) if trace else None
    # In a traced run whole rounds alternate between untraced and traced,
    # so the tracing overhead is measured under the same machine conditions.
    period = workload.round_size * (2 if trace else 1)
    cpu = {False: {}, True: {}}
    kernel_s = []
    errors = {}
    start = time.perf_counter()
    i = 0
    while True:
        is_traced = trace and (i // workload.round_size) % 2 == 1
        if is_traced:
            tracer.op = i
            tracer.install()
        c0 = time.process_time()
        try:
            output = workload.op(i, *(traced if is_traced else plain))
        except Exception as err:  # a failed operation is counted, not fatal
            output = None
            errors[i] = f"{type(err).__name__}: {err}"
        c1 = time.process_time()
        if is_traced:
            tracer.remove()
        cpu[is_traced][i] = c1 - c0
        if output is not None:
            workload.record(i, output)
        i += 1
        if i % workload.round_size == 0:
            kernel_s.append(clock.sample())
        if i % period == 0 and time.perf_counter() - start >= seconds:
            break
    peak_mb = peak_rss_mb()

    # An operation fails when it raises or its output fails a check. The
    # only failures that leave `correct` true are the known program faults
    # a workload declares (inputs fixed for every seed, so they fail in every
    # run); failed operations are left out of the timings either way.
    problems = workload.check()
    failed = {j for j, p in problems.items() if p} | set(errors)
    unexpected = sorted(j for j in failed
                        if j in errors or not workload.expected_failure(j, problems[j]))
    for j in unexpected[:3]:
        print(f"op {j} failed: {errors.get(j) or '; '.join(problems[j])}", file=sys.stderr)

    def timings(times):
        """[CPU time, kernel time of its round] of each operation that did not fail.

        When every operation failed, `correct` is false and the timings of
        the failed operations still give run.py numbers to print.
        """
        kept = {j: t for j, t in times.items() if j not in failed} or times
        return [[t, kernel_s[j // workload.round_size]] for j, t in kept.items()]

    result = {
        "correct": not unexpected,
        "attempted": i,
        "failed": len(failed),
        "ops": timings(cpu[False]),
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_mb,
        "replications_failed_per_op": workload.replications_failed() / i,
    }
    if trace:
        result["traced_ops"] = len(cpu[True])
        result["traced"] = timings(cpu[True])
        result["layers"] = tracer.totals()
        result["counters"] = dict(tracer.counters)
        tracer.dump(trace_file)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    clock = KernelClock()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.inputs, args.out_dir, args.trace_file, clock)
    finally:
        clock.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
