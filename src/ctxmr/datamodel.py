"""Individual-level dataset: CSV ingestion and writing, context partition, summaries.

The dataset is stored columnwise (numpy arrays) for speed. Ingestion is
complete-case: rows with a missing or unparseable mapped field are
dropped and counted, so downstream fits always see finite values.
``load_csv`` reads CHUNK_ROWS rows at a time and converts each mapped
column of a chunk with one numpy call (numpy parses a ``str`` exactly as
``float`` does); only a column chunk holding a token that ``float``
rejects is parsed cell by cell. The cyclic garbage collector is paused
while the file is read, since it would otherwise walk every row list.
A context label is kept as one ``str`` object, however many rows carry it.

``partition_by_context`` finds the runs of equal labels in one
comparison pass and sorts the runs, not the rows, by label; in a file
in random order most runs are one row long, and the same sort serves.
It copies no context whose rows sit in one run of the file: that
context's columns are views of the dataset's. Other contexts are
gathered with ``take``, in file order. Either way a context's columns
are read-only, so nothing downstream can write into the caller's arrays.

``open_csv`` is the one CSV reader of the package, with strict quoting:
a quote that never closes is an error that names its line, not a field
that swallows the rest of the file. ``csv_text`` is the one CSV writer:
``report.csv`` and ``table.csv`` go through it. ``shallow_dict`` turns
the result dataclasses into the dicts that the JSON files are written
from.
"""

from __future__ import annotations

import csv
import gc
import io
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace
from itertools import islice
from operator import itemgetter

import numpy as np

from .errors import ConfigError, DomainError, IngestError

#: Cell contents treated as missing in input CSVs.
MISSING_TOKENS = frozenset({"", "NA"})
_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")

#: Rows ``load_csv`` reads and converts at a time; bounds its memory.
CHUNK_ROWS = 1024

DEFAULT_MIN_CONTEXT_SIZE = 100


@dataclass(frozen=True)
class ColumnMap:
    """Binds dataset roles to CSV column names; a column may fill one role only."""

    instrument: str
    exposure: str
    outcome: str
    context: str
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        roles: dict[str, list[str]] = {}
        for role in ("instrument", "exposure", "outcome", "context"):
            roles.setdefault(getattr(self, role), []).append(role)
        for name in self.covariates:
            roles.setdefault(name, []).append("covariate")
        for column, named in roles.items():
            if len(named) > 1:
                raise ConfigError(f"column {column!r} is named more than once: as "
                                  + " and ".join(named))


#: The Dataset fields that hold one entry (or covariate row) per record.
_ROW_COLUMNS = ("instrument", "exposure", "outcome", "context", "covariates")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar view of the analysis sample.

    ``covariates`` has one column per entry of ``covariate_names`` (and
    shape (n, 0) when there are none). ``n_dropped`` counts input rows
    excluded during ingestion.
    """

    instrument: np.ndarray
    exposure: np.ndarray
    outcome: np.ndarray
    context: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...] = ()
    outcome_family: str = "linear"
    n_dropped: int = 0

    def __post_init__(self):
        n = self.instrument.shape[0]
        for name in ("exposure", "outcome", "context"):
            if getattr(self, name).shape[0] != n:
                raise DomainError(f"column {name!r} length differs from instrument")
        if self.covariates.shape != (n, len(self.covariate_names)):
            raise DomainError("covariate block shape does not match covariate names")

    def __len__(self) -> int:
        return int(self.instrument.shape[0])

    def subset(self, index: slice | np.ndarray) -> "Dataset":
        """The rows at ``index``: a slice, row numbers or a boolean mask.

        A slice gives views of this dataset's columns, with no copy; row
        numbers and masks gather copies with ``take``. Either way the
        columns are read-only, so no fit can write through a view into
        this dataset.
        """
        if isinstance(index, slice):
            columns = {name: getattr(self, name)[index] for name in _ROW_COLUMNS}
        else:
            index = np.asarray(index)
            if index.dtype == bool:  # take would read a mask as rows 0 and 1
                index = np.flatnonzero(index)
            columns = {name: getattr(self, name).take(index, axis=0) for name in _ROW_COLUMNS}
        for column in columns.values():
            column.flags.writeable = False
        return replace(self, n_dropped=0, **columns)


@dataclass(frozen=True)
class ExcludedContext:
    """Warning record for a context dropped from the partition."""

    context: str
    n: int
    reason: str


@dataclass(frozen=True)
class PartitionResult:
    contexts: tuple[tuple[str, Dataset], ...]
    excluded: tuple[ExcludedContext, ...] = ()


def _to_floats(cells: tuple[str, ...]) -> np.ndarray:
    """One column chunk as floats, NaN where a cell is missing or unparseable."""
    try:
        return np.array(list(map(_AS_NAN.get, cells, cells)), dtype=float)
    except ValueError:  # a token float() rejects, such as " NA " or "57..2"
        return np.array([_float_or_nan(cell) for cell in cells], dtype=float)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def _blank(row: list[str]) -> bool:
    return not any(cell.strip() for cell in row)


def _start_line(path, record: int | None = None) -> int:
    """The physical line on which CSV record ``record`` (0 is the header) starts.

    With no ``record``, the line on which the first record that the
    strict reader refuses starts. A quoted field can hold newlines, so
    records and lines differ; the file is read again, which only an
    error report needs.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, strict=True)
        line = 1
        with suppress(csv.Error):
            for _ in islice(reader, record):
                line = reader.line_num + 1
        return line


@contextmanager
def open_csv(path):
    """A strict ``csv.reader`` over a UTF-8 file, with or without a byte-order mark.

    A record the reader refuses (a quote never closed, text after a
    closing quote, a field over ``csv``'s size limit) is an IngestError
    that names the physical line on which the record starts.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            yield csv.reader(handle, strict=True)
        except csv.Error as err:
            raise IngestError(f"malformed CSV record: {err}", line=_start_line(path)) from None


def read_header(reader, path, needed) -> tuple[list[str], dict[str, int]]:
    """Read a CSV header row; return it (stripped) and each needed column's index.

    Raises IngestError for an empty file, and one naming the needed
    columns that are missing or appear more than once.
    """
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise IngestError(f"{path}: empty file; a header row is required") from None
    missing = [name for name in needed if name not in header]
    if missing:
        raise IngestError(f"{path}: columns {missing} not found in header {header}")
    repeated = [name for name in needed if header.count(name) > 1]
    if repeated:
        raise IngestError(f"{path}: columns {repeated} appear more than once in header {header}")
    return header, {name: header.index(name) for name in needed}


class _RowLines(list):
    """A ``csv.writer`` target that ends each row with "\n" instead of "\r\n"."""

    def write(self, line: str) -> None:
        self.append(line[:-2] + "\n")


def csv_text(header, rows) -> str:
    """CSV text of a header row and data rows, each line ended by a newline.

    A field holding a comma, a quote, a newline or a carriage return is
    quoted per RFC 4180. Each other value is written as ``str`` writes it
    (a float at full precision), and None as NA. The writer's line
    terminator is "\r\n", because before Python 3.13 ``csv.writer`` quotes
    a bare "\r" only when it is part of the terminator; ``_RowLines`` then
    swaps each row's terminator for "\n".
    """
    lines = _RowLines()
    writer = csv.writer(lines, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(["NA" if value is None else value for value in row] for row in rows)
    return "".join(lines)


def shallow_dict(obj) -> dict:
    """The fields of a dataclass instance by name, values as they are.

    Unlike ``dataclasses.asdict`` it neither deep-copies the values nor
    turns nested dataclasses into dicts.
    """
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


class _Labels(dict):
    """Each raw context cell's label: its stripped text, one object per label.

    Every row looks its cell up; only a spelling not seen before is
    stripped. All spellings of a label map to one ``str``, so a column
    holds one object per label, not one per row.
    """

    def __missing__(self, cell: str) -> str:
        label = cell.strip()
        label = self[cell] = self.setdefault(label, label)
        return label


def load_csv(path, column_map: ColumnMap, outcome_family: str = "linear") -> Dataset:
    """Read a header-ed UTF-8 CSV, with or without a byte-order mark, into a Dataset.

    Quoting is strict (see ``open_csv``). Rows with a missing or
    unparseable mapped field are excluded and counted in ``n_dropped``.
    A non-0/1 outcome under the logistic family is an error, not a
    dropped row: it means the file does not match the declared outcome
    type.
    """
    if outcome_family not in ("linear", "logistic"):
        raise ConfigError(f"unknown outcome family {outcome_family!r}")
    needed = [column_map.instrument, column_map.exposure, column_map.outcome,
              column_map.context, *column_map.covariates]
    blocks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    label_of = _Labels()
    dropped, record = 0, 1
    gc_was_enabled = gc.isenabled()
    gc.disable()  # the cyclic collector would walk every fresh row list
    try:
        with open_csv(path) as reader:
            header, index = read_header(reader, path, needed)
            pick = itemgetter(*(index[name] for name in needed))
            while chunk := list(islice(reader, CHUNK_ROWS)):
                full = [row for row in chunk if len(row) >= len(header)]
                if len(full) < len(chunk):
                    dropped += sum(len(row) < len(header) and not _blank(row) for row in chunk)
                cells = list(zip(*map(pick, full))) or [()] * len(needed)
                label = np.array(list(map(label_of.__getitem__, cells[3])), dtype=object)
                values = np.array([_to_floats(c) for c in cells[:3] + cells[4:]]).T
                keep = np.isfinite(values).all(axis=1)
                keep &= np.array([lab not in MISSING_TOKENS for lab in label], dtype=bool)
                dropped += sum(not _blank(full[j]) for j in np.flatnonzero(~keep))
                y = values[:, 2]
                bad = np.flatnonzero(keep & (y != 0) & (y != 1))
                if outcome_family == "logistic" and bad.size:
                    at = next(i for i, row in enumerate(chunk) if row is full[bad[0]])
                    raise IngestError(
                        f"outcome value {float(y[bad[0]])!r} is not 0/1 under the logistic family",
                        line=_start_line(path, record + at),
                    )
                blocks.append(values[keep])
                labels.append(label[keep])
                record += len(chunk)
    finally:
        if gc_was_enabled:
            gc.enable()

    if not sum(map(len, labels)):
        raise IngestError(f"{path}: no usable rows after filtering ({dropped} dropped)")
    data = np.concatenate(blocks)
    return Dataset(
        instrument=data[:, 0],
        exposure=data[:, 1],
        outcome=data[:, 2],
        context=np.concatenate(labels),
        covariates=data[:, 3:],
        covariate_names=column_map.covariates,
        outcome_family=outcome_family,
        n_dropped=dropped,
    )


def summarize_context(label: str, ds: Dataset) -> tuple[int, float]:
    """Size and mean exposure of one context's records."""
    n = len(ds)
    if n < 2:
        raise DomainError(f"context {label!r} has {n} records; need at least 2")
    return n, float(ds.exposure.mean())


def partition_by_context(
    ds: Dataset, min_n: int = DEFAULT_MIN_CONTEXT_SIZE
) -> PartitionResult:
    """Split the dataset by context label, in label order.

    Contexts with fewer than ``min_n`` records are excluded and reported
    in the result's ``excluded`` list. The partition only groups rows:
    ``ContextTable.from_columns`` orders the contexts of an analysis by
    mean exposure. A stable sort of the runs of equal labels (of one row
    or many) groups them, so each context keeps its rows in file order,
    whether the file is sorted or shuffled. A context whose rows form one
    run of the file is a slice of the dataset (read-only views, no copy);
    any other is gathered (read-only copies). Both hold the same values
    in the same order, so every sum over a context runs over the same
    rows either way.
    """
    if len(ds) == 0:
        raise ConfigError("cannot partition an empty dataset")
    ctx = ds.context
    if ctx.dtype == object:
        # The str of each label, as an object: a fixed-width copy would take
        # rows x the longest label, which one stray quote in a file can make
        # thousands of characters long.
        ctx = np.array([x if type(x) is str else str(x) for x in ctx.tolist()], dtype=object)
    elif ctx.dtype.kind not in ("U", "S"):
        ctx = ctx.astype(str)
    # One comparison pass finds the runs of equal labels; a stable sort of
    # the runs, not the rows, groups them by label and keeps each label's
    # runs in file order, so every context's sums run over its rows as they
    # were read.
    starts = np.flatnonzero(np.concatenate(([True], ctx[1:] != ctx[:-1])))
    sizes = np.diff(starts, append=ctx.size)
    keys = ctx[starts]
    order = np.argsort(keys, kind="stable")
    labels = keys.take(order)
    cuts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(order)]
    retained: list[tuple[str, Dataset]] = []
    excluded: list[ExcludedContext] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        label = str(labels[lo])
        runs = order[lo:hi]
        # Row i of a run is the run's start plus i.
        run_sizes = sizes[runs]
        offsets = starts[runs] - (np.cumsum(run_sizes) - run_sizes)
        rows = np.repeat(offsets, run_sizes) + np.arange(run_sizes.sum())
        if rows.size < min_n:
            excluded.append(ExcludedContext(
                context=label, n=rows.size, reason=f"fewer than min_n={min_n} records"))
            continue
        first, last = int(rows[0]), int(rows[-1])
        # Rows in one run of the file are a slice: views, not copies.
        sub = ds.subset(slice(first, last + 1) if last - first == rows.size - 1 else rows)
        retained.append((label, sub))
    if len(retained) < 2:
        raise ConfigError(
            f"fewer than 2 contexts retained ({len(retained)}); "
            "heterogeneity across contexts is undefined"
        )
    return PartitionResult(contexts=tuple(retained), excluded=tuple(excluded))
