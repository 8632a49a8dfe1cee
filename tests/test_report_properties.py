"""Property tests of the report serializers and the summary reader against references.

``report_to_json`` lays the context objects out itself,
``context_table_csv`` writes pre-formatted text and ``render_text``
formats each context row with one ``%`` template; they must give the
bytes of ``oracles.report_json_dumps`` (``json.dumps(..., indent=2)`` of
the whole report), ``oracles.report_csv_values`` (``csv.writer`` over the
raw values) and ``oracles.render_text_fstrings`` (one f-string a row).
The per-context columns are drawn: labels with commas, quotes, line
breaks, U+2028, non-ASCII text or nothing at all, and floats that
include NaN, the infinities, -0.0 and both ends of the float range. The
other entries come from a linear or a logistic report.

``load_summary_csv`` must read a drawn summary file into the table
``oracles.load_summary_csv_dicts`` reads, or fail with the same message
and line.
"""

from __future__ import annotations

import csv
import dataclasses

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ctxmr.errors import CtxMRError  # noqa: E402
from ctxmr.ivcore import ContextTable  # noqa: E402
from ctxmr.report import (  # noqa: E402
    CONTEXT_CSV_COLUMNS,
    SUMMARY_CSV_COLUMNS,
    AnalysisOptions,
    analyze_summary_results,
    context_table_csv,
    load_summary_csv,
    render_text,
    report_to_json,
)

from oracles import (  # noqa: E402
    load_summary_csv_dicts,
    render_text_fstrings,
    report_csv_values,
    report_json_dumps,
)

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
    assert render_text(report) == render_text_fstrings(report)


#: Summary cells: labels that repeat once stripped or need quoting, and
#: numbers that are valid, unparseable, not finite, out of range or zero.
SUMMARY_LABELS = st.sampled_from(["a", " a", "a ", "b", "c", "d", "e", "a,b", 'q"r', "x\ny", ""])
VALID_NUMBER = st.one_of(st.sampled_from(["0.5", " 0.02", "1e-3", "52", "0.1e1"]),
                         st.floats(0.01, 100.0).map(repr))
VALID_SIGNED = st.one_of(VALID_NUMBER, st.sampled_from(["-0.3", "-1e-11", "-0.0e1"]))
BAD_NUMBER = st.sampled_from(["", " ", "x", "nan", "inf", "-inf", "1e400", "0", "-0.01",
                              "1e-13", "NA", "1,5", "1.5\n"])
VALID_N = st.sampled_from(["2", "1000", " 40 ", "9223372036854774784", "1e3"])
BAD_N = st.sampled_from(["1", "2.5", "0", "-3", str(2**63), str(2**63 - 1), "1e19", "nan", "x"])


@st.composite
def summary_rows(draw, columns):
    """One record of a summary file with header ``columns``."""
    kind = draw(st.sampled_from(["clean"] * 5 + ["bad", "short", "blank"]))
    if kind == "blank":
        return draw(st.one_of(st.just([]), st.lists(st.sampled_from(["", " ", "\t"]),
                                                    min_size=1, max_size=len(columns) + 1)))
    row = []
    for name in columns:
        if name == "context":
            row.append(draw(SUMMARY_LABELS))
        elif name == "n":
            row.append(draw(VALID_N))
        else:
            row.append(draw(VALID_NUMBER if name.endswith("_se") else VALID_SIGNED))
    if kind == "bad":  # one to three cells spoilt, one of them maybe early in the row
        for j in draw(st.lists(st.integers(0, len(columns) - 1), min_size=1, max_size=3)):
            row[j] = draw(BAD_N if columns[j] == "n" else BAD_NUMBER)
    elif kind == "short":  # a row cut short, perhaps after a bad cell
        if draw(st.booleans()):
            j = draw(st.integers(0, len(columns) - 1))
            row[j] = draw(BAD_N if columns[j] == "n" else BAD_NUMBER)
        row = row[:draw(st.integers(1, len(columns) - 1))]
    return row


@st.composite
def summary_files(draw):
    columns = draw(st.permutations(SUMMARY_CSV_COLUMNS))
    if draw(st.booleans()):
        columns = [*columns, "note"]
    rows = draw(st.lists(summary_rows(columns), min_size=1, max_size=8))
    return columns, rows, draw(st.sampled_from(["\n", "\r\n"]))


def _read(load, path):
    try:
        table = load(path)
    except CtxMRError as err:
        return type(err).__name__, str(err), getattr(err, "line", None)
    return [table.labels.tolist(), table.bx.tolist(), table.bx_se.tolist(), table.by.tolist(),
            table.by_se.tolist(), table.xmean.tolist(), table.n.tolist()]


@pytest.fixture(scope="module")
def summary_path(tmp_path_factory):
    return tmp_path_factory.mktemp("summary") / "summary.csv"


@settings(max_examples=400, deadline=None)
@given(summary_files())
@example((list(SUMMARY_CSV_COLUMNS), [["a", "x", "0.02", "0.1", "0.02"],
                                      ["b", "0.5", "0.02", "0.1", "0.02", "50", "10"]], "\n"))
@example((list(SUMMARY_CSV_COLUMNS), [["a", "0.5", "0.02", "0.1", "0.02", "50", "10"], [],
                                      ["x\ny", "0.5", "0.02", "0.1", "0.02", "51", "10"],
                                      [" a ", "0.5", "0.02", "0.1", "0.02", "52", "10"]], "\n"))
@example((list(SUMMARY_CSV_COLUMNS), [["a", "0", "-0.01", "0.1", "0", "50", "10"],
                                      ["b", "0.5", "0.02", "0.1", "0.02", "51", "10"]], "\n"))
@example((list(SUMMARY_CSV_COLUMNS), [["a", "0", "-0.01", "0.1", "0.02", "50", "10"],
                                      ["b", "0.5", "0.02", "0.1", "0.02", "51", "10"]], "\n"))
def test_summary_reader_matches_the_dict_reader(summary_path, drawn):
    columns, rows, terminator = drawn
    with open(summary_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator=terminator)
        writer.writerow(columns)
        writer.writerows(rows)
    assert _read(load_summary_csv, summary_path) == _read(load_summary_csv_dicts, summary_path)
