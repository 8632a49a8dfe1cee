"""Spans around the calls into ctxmr's public functions, from outside the package.

The modules import each other's functions by name, so a span wraps the
name where the caller looks it up (for example `harness.generate_dataset`
and `regress.wls_solve` for the functions defined in `simulate` and
`numerics`). Spans are timed on process CPU time, kept in memory, and
written out when the run ends. Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# Span name -> the (module, attribute) lookup sites that reach it.
LOOKUP_SITES = {
    "simulate.generate_dataset": [("harness", "generate_dataset")],
    "datamodel.partition_by_context": [("harness", "partition_by_context"),
                                       ("report", "partition_by_context")],
    "datamodel.load_csv": [("cli", "load_csv")],
    "datamodel.summarize_context": [("ivcore", "summarize_context")],
    "ivcore.context_iv": [("harness", "context_iv"), ("report", "context_iv")],
    "regress.fit_linear": [("ivcore", "fit_linear")],
    "regress.fit_logistic_detail": [("regress", "fit_logistic_detail")],
    "numerics.wls_solve": [("regress", "wls_solve"), ("metareg", "wls_solve")],
    "heterogeneity.q_first_order": [("harness", "q_first_order"),
                                    ("report", "q_first_order")],
    "heterogeneity.q_modified_second_order": [("harness", "q_modified_second_order"),
                                              ("report", "q_modified_second_order"),
                                              ("metareg", "q_modified_second_order")],
    "metareg.trend_test": [("harness", "trend_test"), ("report", "trend_test")],
    "numerics.chi_square_sf": [("heterogeneity", "chi_square_sf")],
    "numerics.normal_sf": [("metareg", "normal_sf")],
    "report.load_summary_csv": [("cli", "load_summary_csv")],
    "report.analyze_summary_results": [("cli", "analyze_summary_results")],
    "report.analyze_dataset": [("cli", "analyze_dataset")],
    "report.report_to_json": [("cli", "report_to_json")],
    "report.render_text": [("cli", "render_text")],
}

# Spans the benchmark opens itself, around its own call into the program.
ENTRY_SPANS = ("cli.main", "harness.run_experiment", "report.analyze_dataset",
               "report.report_to_json")

SPAN_NAMES = tuple(LOOKUP_SITES) + tuple(n for n in ENTRY_SPANS if n not in LOOKUP_SITES)


def _record_iterations(tracer, name, result):
    tracer.counters[name + ".iterations"] += result.iterations


def _record_trend(tracer, name, result):
    tracer.counters[name + ".iterations"] += result.iterations
    tracer.counters[name + ".tau2_zero"] += result.tau2 == 0.0


def _record_load(tracer, name, result):
    tracer.counters[name + ".rows_dropped"] += result.n_dropped


RESULT_HOOKS = {
    "regress.fit_logistic_detail": _record_iterations,
    "heterogeneity.q_modified_second_order": _record_iterations,
    "metareg.trend_test": _record_trend,
    "datamodel.load_csv": _record_load,
}


class Tracer:
    """Records spans while installed; `install` and `remove` patch ctxmr in place."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches = []
        for name, sites in LOOKUP_SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module("ctxmr." + module_name)
                original = getattr(module, attr)
                self._patches.append((module, attr, original, self.wrap(name, original)))

    def wrap(self, name, fn):
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time_ns()
                self._stack.pop()
                self.spans.append((self.op, span_id, parent, name, start, end))
            if hook is not None:
                hook(self, name, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def remove(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time (ns) per span name."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "self_ns": 0} for name in SPAN_NAMES}
        for _, span_id, _, name, start, end in self.spans:
            out[name]["calls"] += 1
            out[name]["self_ns"] += end - start - child_ns[span_id]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                         "name": name, "start_ns": start,
                                         "end_ns": end}) + "\n")
