"""Property tests of the report serializers against the standard library.

``report_to_json`` lays the context objects out itself and
``context_table_csv`` writes pre-formatted text; both must give the bytes
of ``oracles.report_json_dumps`` (``json.dumps(..., indent=2)`` of the
whole report) and ``oracles.report_csv_values`` (``csv.writer`` over the
raw values). The per-context columns are drawn: labels with commas,
quotes, line breaks, U+2028, non-ASCII text or nothing at all, and
floats that include NaN, the infinities, -0.0 and both ends of the float
range. The other entries come from a linear or a logistic report.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ctxmr.ivcore import ContextTable  # noqa: E402
from ctxmr.report import (  # noqa: E402
    CONTEXT_CSV_COLUMNS,
    AnalysisOptions,
    analyze_summary_results,
    context_table_csv,
    report_to_json,
)

from oracles import report_csv_values, report_json_dumps  # noqa: E402

INF, NAN = float("inf"), float("nan")
EDGE_FLOATS = (NAN, INF, -INF, -0.0, 0.0, 5e-324, 1.7976931348623157e308)
EDGE_LABELS = ("a,b", 'é "q"', "x\ny\rz", " ", " ", "")

FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
LABELS = st.one_of(st.sampled_from(EDGE_LABELS),
                   st.text(st.one_of(st.sampled_from(',"\r\n é'), st.characters())))


@st.composite
def context_columns(draw):
    """The per-context columns of a report of 1 to 6 contexts."""
    k = draw(st.integers(1, 6))
    columns = {"context": tuple(draw(st.lists(LABELS, min_size=k, max_size=k))),
               "n": tuple(draw(st.lists(st.integers(2, 2**63 - 1), min_size=k, max_size=k)))}
    for name in CONTEXT_CSV_COLUMNS[2:]:
        cells = FLOATS if name != "odds_ratio" else st.one_of(st.none(), FLOATS)
        columns[name] = tuple(draw(st.lists(cells, min_size=k, max_size=k)))
    return columns


def _family_report(family):
    table = ContextTable.from_columns(["b", "a", "c"], *np.array([
        [0.5, 0.4, 0.8], [0.01] * 3, [0.10, 0.08, 0.12], [0.02] * 3, [52.0, 50.0, 54.0],
    ]), [1000] * 3)
    return analyze_summary_results(table, AnalysisOptions(family=family, scale=10.0))


REPORTS = {family: _family_report(family) for family in ("linear", "logistic")}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(REPORTS)), context_columns())
@example("linear", dict(zip(CONTEXT_CSV_COLUMNS, (
    EDGE_LABELS, (2,) * 6, *[EDGE_FLOATS[:6]] * 9, (None, INF, -INF, NAN, -0.0, 5e-324)))))
def test_serializers_give_the_bytes_of_the_standard_library(family, contexts):
    report = dataclasses.replace(REPORTS[family], contexts=contexts)
    assert report_to_json(report) == report_json_dumps(report)
    assert context_table_csv(report) == report_csv_values(report)
