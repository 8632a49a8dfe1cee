"""Property tests: ``load_csv`` and ``partition_by_context`` against plain references.

The first test checks the chunked, columnar ``load_csv`` against a
per-cell reference.

The reference below splits the file into records by RFC 4180 quoting
itself, character by character: a field that opens with a quote runs to
the next single quote, a doubled quote inside it is one quote, and
commas, CR and LF inside it are text; a record ends at LF, CR LF or a
lone CR outside quotes. A closing quote followed by anything but a
comma or a line end, and a quote never closed, make the record
malformed, and the load must fail naming the physical line on which that
record starts. It then applies the ingestion rules one cell at a time:
a blank line or an all-blank row is skipped; a row shorter than the
header is dropped; so is a row whose context label is missing or whose
mapped number is missing ("" or "NA" once stripped), unparseable by
``float`` or not finite. Every record is kept, dropped or blank, and the
three counts must add up to the records of the file. Under the logistic
family the first kept row with an outcome other than 0/1 is an error
naming the physical line on which the row starts, which a quoted
newline in an earlier row moves past the record count. The generated
files quote some fields that need no quotes, leave others that do
unquoted, and end lines with LF or CR LF. The chunk size is cut to a
few rows so that generated files cross many chunk boundaries.

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
LABELS = st.sampled_from(["a", "b", " c ", "a,b", 'q"r', "", "NA", " NA ", "nan", "x y",
                         "l\nm", "c\rr", '"'])
FULL_ROW = st.tuples(
    LABELS, TOKENS,
    st.one_of(st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                      max_size=3),
              st.text(st.sampled_from(',"\r\n x'), max_size=3)), TOKENS,
    st.one_of(ZERO_ONE, TOKENS), TOKENS,
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
#: How a cell is written: quoted only if it must be (as ``csv.writer`` does),
#: always quoted, as it is (so a comma, quote or line break in it is not
#: text), or, rarely, quoted with text after the closing quote (malformed).
STYLES = st.sampled_from(["minimal"] * 150 + ["quoted"] * 40 + ["raw"] * 9 + ["text-after-quote"])

STYLED_ROW = ROW.flatmap(lambda row: st.tuples(
    st.just(row), st.lists(STYLES, min_size=len(row), max_size=len(row))))


def _written(cell: str, style: str) -> str:
    quoted = '"' + cell.replace('"', '""') + '"'
    if style == "minimal":
        return quoted if any(c in cell for c in ',"\r\n') else cell
    return {"quoted": quoted, "raw": cell, "text-after-quote": quoted + "x"}[style]


def rfc4180_records(text: str):
    """(records, malformed): each record as (start line, fields), up to the first malformed one.

    ``malformed`` is the physical line on which that record starts, or
    None. Lines end at LF, CR LF or a lone CR, as in a file read with
    ``newline=""``.
    """

    def line_end(i):  # the index after the line break at i
        return i + 2 if text.startswith("\r\n", i) else i + 1

    records, i, n, line = [], 0, len(text), 1
    while i < n:
        start, fields = line, []
        if text[i] in "\r\n":  # an empty line is a record of no fields
            i, line = line_end(i), line + 1
            records.append((start, fields))
            continue
        while True:  # one field
            if text[i:i + 1] == '"':
                i, chars = i + 1, []
                while True:
                    if i >= n:
                        return records, start  # a quote never closed
                    if text[i] == '"':
                        if text[i + 1:i + 2] != '"':
                            i += 1
                            break
                        chars.append('"')
                        i += 2
                    elif text[i] in "\r\n":
                        end = line_end(i)
                        chars.append(text[i:end])
                        i, line = end, line + 1
                    else:
                        chars.append(text[i])
                        i += 1
                if i < n and text[i] not in ",\r\n":
                    return records, start  # text after a closing quote
                fields.append("".join(chars))
            else:
                j = i
                while j < n and text[j] not in ",\r\n":
                    j += 1
                fields.append(text[i:j])
                i = j
            if i < n and text[i] == ",":
                i += 1
                continue
            break
        if i < n:
            i, line = line_end(i), line + 1
        records.append((start, fields))
    return records, None


def _cell(token: str):
    token = token.strip()
    if token in ("", "NA"):
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def reference_load(path, family, chunk):
    """(values, labels, dropped, blank, records) by the per-cell rules; raises like load_csv.

    A malformed record is an IngestError message "line L: malformed CSV
    record", unless a bad logistic outcome lies in a chunk of ``chunk``
    records that ``load_csv`` reads and checks before the malformed one.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        records, malformed = rfc4180_records(handle.read())
    header = [name.strip() for name in records[0][1]]
    records = records[1:]
    if malformed is not None:
        records = records[: len(records) // chunk * chunk]
    at = [header.index(name) for name in NEEDED]
    values, labels, dropped, blank = [], [], 0, 0
    for lineno, row in records:
        if all(not cell.strip() for cell in row):
            blank += 1
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
    if malformed is not None:
        raise IngestError("malformed CSV record", line=malformed)
    if not values:
        raise IngestError(f"{path}: no usable rows after filtering ({dropped} dropped)")
    return np.array(values), labels, dropped, blank, len(records)


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
    rows=st.lists(STYLED_ROW, max_size=40),
    terminators=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=1, max_size=3),
    unclosed=st.sampled_from([""] * 8 + ['"', 'a,1,"x']),
    family=st.sampled_from(["linear", "logistic"]),
    chunk=st.integers(1, 7),
)
@example(  # a quoted newline before a bad logistic outcome: the error is on line 7
    rows=[(["a", "1", "", "2", "0", "3"], ["minimal"] * 6)] * 3
    + [(["a", "1", "\n", "2", "0", "3"], ["minimal"] * 6),
       (["a", "1", "", "2", " 3 ", "3"], ["minimal"] * 6)],
    terminators=["\n"],
    unclosed="",
    family="logistic",
    chunk=1,
)
@example(  # text after a closing quote on line 3, read in the second chunk of two
    rows=[(["a", "1", "", "2", "0", "3"], ["minimal"] * 6),
          (["b", "1", "", "2", "0", "3"], ["minimal"] * 5 + ["text-after-quote"])],
    terminators=["\r\n"],
    unclosed="",
    family="linear",
    chunk=1,
)
def test_load_csv_matches_per_cell_reference(csv_path, rows, terminators, unclosed, family,
                                             chunk):
    lines = [",".join(HEADER)] + [",".join(map(_written, row, styles)) for row, styles in rows]
    text = "".join(line + terminators[k % len(terminators)] for k, line in enumerate(lines))
    csv_path.write_text(text + unclosed, encoding="utf-8", newline="")
    expected = _outcome(lambda: reference_load(csv_path, family, chunk))
    with mock.patch.object(datamodel, "CHUNK_ROWS", chunk):
        got = _outcome(lambda: load_csv(csv_path, CMAP, outcome_family=family))
    assert gc.isenabled()
    if isinstance(expected, str):
        if expected.endswith(": malformed CSV record"):
            assert got.startswith(expected + ": "), got
        else:
            assert got == expected
        return
    values, labels, dropped, blank, records = expected
    assert not isinstance(got, str), got
    columns = np.column_stack([got.instrument, got.exposure, got.outcome, got.covariates])
    assert np.array_equal(columns, values)
    assert got.context.tolist() == labels
    assert got.n_dropped == dropped
    assert len(got) + got.n_dropped + blank == records


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
