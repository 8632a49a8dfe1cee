"""Property tests: ``load_csv`` and ``partition_by_context`` against plain references.

The first test checks the chunked, columnar ``load_csv`` against a
per-cell reference.

The reference below applies the ingestion rules one cell at a time: a
blank line or an all-blank row is skipped; a row shorter than the header
is dropped; so is a row whose context label is missing or whose mapped
number is missing ("" or "NA" once stripped), unparseable by ``float``
or not finite. Under the logistic family the first kept row with an
outcome other than 0/1 is an error naming the physical line on which the
row starts, which a quoted newline in an earlier row moves past the
record count. The chunk size is cut
to a few rows so that generated files cross many chunk boundaries.

The second checks each context of ``partition_by_context`` against the
rows ``np.flatnonzero(labels == label)`` picks, on files made of runs of
equal labels: grouped files, interleaved ones, one-row runs and labels
split across distant runs, with string, object and integer labels.
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
from ctxmr.datamodel import ColumnMap, Dataset, load_csv, partition_by_context  # noqa: E402
from ctxmr.errors import ConfigError, IngestError  # noqa: E402

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


#: A file as runs of equal labels: (label, run length). Short runs make
#: interleaved files, the one-row runs among them shuffled ones, and a
#: label drawn again later lies in runs far apart.
RUNS = st.one_of(
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 40)), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), min_size=1, max_size=60),
    st.lists(st.tuples(st.integers(0, 11), st.just(1)), min_size=1, max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(
    runs=RUNS,
    kind=st.sampled_from(["str", "object", "int"]),
    boundary=st.tuples(st.integers(0, 11), st.sampled_from([0, 1])),
)
@example(runs=[(0, 3), (1, 2), (0, 4), (2, 5)], kind="object", boundary=(0, 0))
@example(runs=[(0, 1), (1, 1)] * 20 + [(2, 6)], kind="str", boundary=(2, 1))
def test_partition_matches_the_rows_of_each_label(runs, kind, boundary):
    codes = np.repeat([code for code, _ in runs], [length for _, length in runs])
    context = {"str": lambda: np.array([f"L{c}" for c in codes]),
               "object": lambda: np.array([f"L{c}" for c in codes], dtype=object),
               "int": lambda: codes.copy()}[kind]()
    n = codes.size
    ds = Dataset(instrument=np.arange(n, dtype=float), exposure=np.arange(n) * 0.5,
                 outcome=np.arange(n) % 2.0, context=context,
                 covariates=np.arange(2 * n, dtype=float).reshape(n, 2),
                 covariate_names=("age", "sex"))
    text = context.astype(str)
    labels = sorted(set(text.tolist()))
    sizes = {label: int(np.count_nonzero(text == label)) for label in labels}
    # min_n at one context's size, or one above it: that context is kept, or not.
    pick, above = boundary
    min_n = sizes[labels[pick % len(labels)]] + above
    kept = [label for label in labels if sizes[label] >= min_n]
    if len(kept) < 2:
        with pytest.raises(ConfigError, match="fewer than 2 contexts"):
            partition_by_context(ds, min_n=min_n)
        return
    part = partition_by_context(ds, min_n=min_n)
    assert [label for label, _ in part.contexts] == kept
    assert [(e.context, e.n) for e in part.excluded] == [
        (label, sizes[label]) for label in labels if sizes[label] < min_n]
    for label, sub in part.contexts:
        rows = np.flatnonzero(text == label)
        assert sub.instrument.tolist() == rows.tolist()  # file order
        for name in datamodel._ROW_COLUMNS:
            column = getattr(sub, name)
            assert np.array_equal(column, getattr(ds, name)[rows])
            assert not column.flags.writeable
            one_run = rows[-1] - rows[0] == rows.size - 1
            assert np.shares_memory(column, getattr(ds, name)) == one_run
    assert ds.instrument.flags.writeable and ds.context.flags.writeable
