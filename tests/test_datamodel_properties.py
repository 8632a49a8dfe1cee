"""Property test: the chunked, columnar ``load_csv`` against a per-cell reference.

The reference below applies the ingestion rules one cell at a time: a
blank line or an all-blank row is skipped; a row shorter than the header
is dropped; so is a row whose context label is missing or whose mapped
number is missing ("" or "NA" once stripped), unparseable by ``float``
or not finite. Under the logistic family the first kept row with an
outcome other than 0/1 is an error naming the physical line on which the
row starts, which a quoted newline in an earlier row moves past the
record count. The chunk size is cut
to a few rows so that generated files cross many chunk boundaries.
"""

from __future__ import annotations

import csv
import gc
import math
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ctxmr import datamodel  # noqa: E402
from ctxmr.datamodel import ColumnMap, load_csv  # noqa: E402
from ctxmr.errors import IngestError  # noqa: E402

HEADER = ["centre", "score", "note", "vitd", "chd", "age"]
CMAP = ColumnMap(instrument="score", exposure="vitd", outcome="chd", context="centre",
                 covariates=("age",))
NEEDED = ["score", "vitd", "chd", "centre", "age"]

TOKENS = st.one_of(
    st.sampled_from([
        "", "NA", " NA ", "na", "nan", "-nan", "inf", "-Infinity", "1e400", "1_0", "1__0",
        "57..2", "unknown", "?", "0x10", " 3 ", "\t4", "1,5", "１２", "-0.0",
        "0", "1", "2", "0.5",
    ]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
ZERO_ONE = st.sampled_from(["0", "1", "1.0", " 0 ", "-0"])
LABELS = st.sampled_from(["a", "b", " c ", "a,b", 'q"r', "", "NA", " NA ", "nan", "x y"])
FULL_ROW = st.tuples(
    LABELS, TOKENS, st.text(max_size=3), TOKENS, st.one_of(ZERO_ONE, TOKENS), TOKENS,
    st.lists(st.sampled_from(["", "x", "1"]), max_size=2),
).map(lambda cells: [*cells[:-1], *cells[-1]])
ROW = st.one_of(
    FULL_ROW,
    FULL_ROW,
    FULL_ROW,
    st.tuples(FULL_ROW, st.integers(1, len(HEADER) - 1)).map(lambda r: r[0][: r[1]]),
    st.just([]),
    st.lists(st.sampled_from(["", " "]), min_size=1, max_size=len(HEADER) + 1),
)


def _cell(token: str):
    token = token.strip()
    if token in ("", "NA"):
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def reference_load(path, family):
    """(values, labels, dropped) by the per-cell rules; raises like load_csv."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = [name.strip() for name in next(reader)]
        # Each record with the physical line it starts on: one past the last
        # line of the record before it (a quoted field can span lines).
        records, start = [], reader.line_num + 1
        for row in reader:
            records.append((start, row))
            start = reader.line_num + 1
    at = [header.index(name) for name in NEEDED]
    values, labels, dropped = [], [], 0
    for lineno, row in records:
        if all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            dropped += 1
            continue
        label = row[at[3]].strip()
        numbers = [_cell(row[i]) for i in at[:3] + at[4:]]
        if label in ("", "NA") or None in numbers:
            dropped += 1
            continue
        if family == "logistic" and numbers[2] not in (0.0, 1.0):
            raise IngestError(
                f"outcome value {numbers[2]!r} is not 0/1 under the logistic family", line=lineno
            )
        values.append(numbers)
        labels.append(label)
    if not values:
        raise IngestError(f"{path}: no usable rows after filtering ({dropped} dropped)")
    return np.array(values), labels, dropped


def _outcome(fn):
    try:
        return fn()
    except IngestError as err:
        return str(err)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "data.csv"


@settings(max_examples=250, deadline=None)
@given(
    rows=st.lists(ROW, max_size=40),
    family=st.sampled_from(["linear", "logistic"]),
    chunk=st.integers(1, 7),
)
@example(  # a quoted newline before a bad logistic outcome: the error is on line 7
    rows=[["a", "1", "", "2", "0", "3"]] * 3
    + [["a", "1", "\n", "2", "0", "3"], ["a", "1", "", "2", " 3 ", "3"]],
    family="logistic",
    chunk=1,
)
def test_load_csv_matches_per_cell_reference(csv_path, rows, family, chunk):
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)
    expected = _outcome(lambda: reference_load(csv_path, family))
    with mock.patch.object(datamodel, "CHUNK_ROWS", chunk):
        got = _outcome(lambda: load_csv(csv_path, CMAP, outcome_family=family))
    assert gc.isenabled()
    if isinstance(expected, str):
        assert got == expected
        return
    values, labels, dropped = expected
    assert not isinstance(got, str), got
    columns = np.column_stack([got.instrument, got.exposure, got.outcome, got.covariates])
    assert np.array_equal(columns, values)
    assert got.context.tolist() == labels
    assert got.n_dropped == dropped
