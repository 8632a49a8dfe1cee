"""Tests for CSV ingestion, partitioning, and context summaries."""

from __future__ import annotations

import csv
import gc
import io
import sys
import tracemalloc

import numpy as np
import pytest

from ctxmr import datamodel
from ctxmr.datamodel import (
    ColumnMap,
    Dataset,
    csv_text,
    load_csv,
    partition_by_context,
    summarize_context,
)
from ctxmr.errors import ConfigError, DomainError, IngestError
from ctxmr.report import AnalysisOptions, analyze_dataset

from fixtures import small_sizes, synthetic_cohort

CMAP = ColumnMap(instrument="score", exposure="vitd", outcome="chd", context="centre")


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _dataset(instrument, exposure, outcome, context, family="linear"):
    n = len(instrument)
    return Dataset(
        instrument=np.asarray(instrument, float),
        exposure=np.asarray(exposure, float),
        outcome=np.asarray(outcome, float),
        context=np.asarray(context, dtype=object),
        covariates=np.empty((n, 0)),
        outcome_family=family,
    )


class TestLoadCsv:
    def test_blank_field_dropped_and_counted(self, tmp_path):
        path = _write(
            tmp_path,
            "score,vitd,chd,centre\n"
            "1,50.2,0,leeds\n"
            "2,,1,leeds\n"
            "0,48.9,0,york\n"
            "1,NA,0,york\n"
            "2,55.0,1,york\n",
        )
        ds = load_csv(path, CMAP)
        assert len(ds) == 3
        assert ds.n_dropped == 2

    def test_missing_column_is_named(self, tmp_path):
        path = _write(tmp_path, "score,exposure,chd,centre\n1,50,0,a\n")
        with pytest.raises(IngestError, match="'vitd'"):
            load_csv(path, CMAP)

    def test_repeated_needed_column_is_named(self, tmp_path):
        path = _write(tmp_path, "score,vitd,chd,centre,vitd\n1,50,0,a,51\n")
        with pytest.raises(IngestError, match="'vitd'.*more than once"):
            load_csv(path, CMAP)
        # A repeated column the map does not use is harmless.
        path = _write(tmp_path, "score,vitd,chd,centre,note,note\n1,50,0,a,x,y\n")
        assert load_csv(path, CMAP).exposure[0] == 50.0

    def test_non_binary_outcome_rejected_under_logistic(self, tmp_path):
        path = _write(tmp_path, "score,vitd,chd,centre\n1,50,0,a\n1,51,2,a\n")
        with pytest.raises(IngestError, match="not 0/1"):
            load_csv(path, CMAP, outcome_family="logistic")

    def test_non_binary_outcome_in_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datamodel, "CHUNK_ROWS", 3)
        path = _write(
            tmp_path,
            "score,vitd,chd,centre\n"  # line 1
            "1,50,0,a\n1,51,1,a\n1,52,0,a\n"  # lines 2-4: first chunk
            "1,53\n\n1,NA,7,a\n"  # lines 5-7: short, blank, dropped
            "1,54,1,a\n1,55,2,a\n1,56,3,a\n",  # lines 8-10: line 9 is the first bad one
        )
        with pytest.raises(IngestError, match=r"^line 9: outcome value 2\.0 is not 0/1") as err:
            load_csv(path, CMAP, outcome_family="logistic")
        assert err.value.line == 9

    def test_error_names_the_physical_line_after_a_quoted_newline(self, tmp_path):
        path = _write(
            tmp_path,
            'score,vitd,chd,centre\n1,50,0,"a\nb"\n1,51,0,a\n1,52,2,a\n',  # bad row on line 5
        )
        with pytest.raises(IngestError, match=r"^line 5: outcome value 2\.0") as err:
            load_csv(path, CMAP, outcome_family="logistic")
        assert err.value.line == 5

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored_after_error(self, tmp_path, enabled):
        path = _write(tmp_path, "score,vitd,chd,centre\n1,50,0,a\n1,51,2,a\n")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(IngestError, match="not 0/1"):
                load_csv(path, CMAP, outcome_family="logistic")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_continuous_outcome_fine_under_linear(self, tmp_path):
        path = _write(tmp_path, "score,vitd,chd,centre\n1,50,2.5,a\n")
        ds = load_csv(path, CMAP)
        assert ds.outcome[0] == 2.5

    def test_zero_usable_rows(self, tmp_path):
        path = _write(tmp_path, "score,vitd,chd,centre\nNA,50,0,a\n")
        with pytest.raises(IngestError, match="no usable rows"):
            load_csv(path, CMAP)

    def test_covariates_parsed_in_order(self, tmp_path):
        cmap = ColumnMap(
            instrument="score",
            exposure="vitd",
            outcome="chd",
            context="centre",
            covariates=("age", "sex"),
        )
        path = _write(tmp_path, "sex,age,score,vitd,chd,centre\n1,63,2,50,0,a\n")
        ds = load_csv(path, cmap)
        assert ds.covariate_names == ("age", "sex")
        assert ds.covariates[0].tolist() == [63.0, 1.0]

    def test_context_column_holds_one_object_per_label(self, tmp_path):
        rows = "".join(f"1,50,0,{label}\n" for label in
                       ["leeds", " york", "leeds ", "york", "NA", "leeds", "york "] * 400)
        ds = load_csv(_write(tmp_path, "score,vitd,chd,centre\n" + rows), CMAP)
        assert len(ds) == 2400
        assert sorted(set(ds.context.tolist())) == ["leeds", "york"]
        assert len(set(map(id, ds.context.tolist()))) == 2

    def test_unparseable_and_infinite_values_dropped(self, tmp_path):
        path = _write(
            tmp_path,
            "score,vitd,chd,centre\n1,abc,0,a\n1,inf,0,a\n1,50,0,a\n",
        )
        ds = load_csv(path, CMAP)
        assert len(ds) == 1
        assert ds.n_dropped == 2


class TestPartition:
    def test_small_context_excluded_with_warning_record(self):
        rng = np.random.default_rng(0)
        sizes = {"a": 150, "b": 150, "c": 40}
        context = np.concatenate([[k] * n for k, n in sizes.items()])
        n = context.size
        ds = _dataset(rng.normal(size=n), rng.normal(size=n), rng.normal(size=n), context)
        part = partition_by_context(ds, min_n=100)
        assert [label for label, _ in part.contexts] != []
        assert len(part.contexts) == 2
        assert len(part.excluded) == 1
        assert part.excluded[0].context == "c"
        assert part.excluded[0].n == 40

    def test_single_context_errors(self):
        ds = _dataset(np.ones(200), np.ones(200), np.ones(200), ["x"] * 200)
        with pytest.raises(ConfigError, match="fewer than 2 contexts"):
            partition_by_context(ds, min_n=100)

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(1)
        context = rng.integers(0, 10, size=5000).astype(str)
        ds = _dataset(
            rng.normal(size=5000), rng.normal(size=5000), rng.normal(size=5000), context
        )
        part = partition_by_context(ds, min_n=2)
        sizes = [len(sub) for _, sub in part.contexts]
        assert sum(sizes) == 5000
        assert len(part.contexts) == 10
        assert sorted(label for label, _ in part.contexts) == sorted(set(context))

    def test_shuffled_labels_keep_file_order_within_each_context(self):
        # The row number rides along as the instrument: every context must
        # hold exactly its rows, in the order they were read.
        rng = np.random.default_rng(2)
        context = rng.permutation(np.repeat(["q", "b", "k", "a"], [300, 250, 40, 410]))
        row = np.arange(context.size, dtype=float)
        ds = _dataset(row, rng.normal(size=row.size), np.zeros(row.size), context)
        part = partition_by_context(ds, min_n=50)
        for label, sub in part.contexts:
            assert sub.instrument.tolist() == np.flatnonzero(context == label).tolist()
            assert (sub.context == label).all()
        assert [(e.context, e.n) for e in part.excluded] == [("k", 40)]

    def test_object_labels_group_by_their_str(self):
        # 1 == 1.0 and 1 == True, but their labels "1", "1.0" and "True"
        # differ; NaN is unequal to itself, but all its rows are "nan".
        rng = np.random.default_rng(6)
        kinds = np.array(["b", "a", 1, "1", 1.0, float("nan"), True, "a "], dtype=object)
        context = np.concatenate([kinds, kinds[rng.integers(0, kinds.size, 600)]])
        row = np.arange(context.size, dtype=float)
        ds = _dataset(row, rng.normal(size=row.size), np.zeros(row.size), context)
        part = partition_by_context(ds, min_n=2)
        as_str = context.astype(str)
        assert [label for label, _ in part.contexts] == sorted(set(as_str.tolist()))
        for label, sub in part.contexts:
            assert sub.instrument.tolist() == np.flatnonzero(as_str == label).tolist()

    def test_a_long_label_costs_no_copy_per_row(self):
        # A fixed-width copy of these labels would take 2,000 rows x 10,000
        # characters x 4 bytes = 80 MB; the partition needs less than the
        # dataset it splits takes.
        labels = ["a"] * 500 + ["x" * 10_000] * 500 + ["b"] * 500 + ["c"] * 500
        rng = np.random.default_rng(4)
        n = len(labels)
        ds = _dataset(rng.normal(size=n), rng.normal(size=n), rng.normal(size=n), labels)
        size = (sum(a.nbytes for a in (ds.instrument, ds.exposure, ds.outcome, ds.context))
                + sum(map(sys.getsizeof, set(labels))))
        tracemalloc.start()
        try:
            part = partition_by_context(ds, min_n=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(sub) for _, sub in part.contexts] == [500] * 4
        assert peak < size

    def test_ordering_by_exposure_mean_with_label_tiebreak(self):
        # The partition gives label order; the report orders the contexts by
        # mean exposure, then label, and lists the weak-instrument notes in
        # that order. Contexts a and b share their exposures, so their means
        # tie exactly.
        rng = np.random.default_rng(5)
        n = 200
        g = rng.normal(size=n)
        noise = rng.normal(size=n)
        gc = g - g.mean()
        noise -= (noise @ gc) / (gc @ gc) * gc  # orthogonal to the instrument
        weak, strong = 0.01 * g + noise, g + noise  # |bx|/se about 0.14 and 14
        exposure = {"b": 3.0 + weak, "a": 3.0 + weak, "d": 2.0 + strong, "c": 1.0 + weak}
        ds = _dataset(np.tile(g, 4), np.concatenate(list(exposure.values())),
                      rng.normal(size=4 * n), np.repeat(list(exposure), n))
        part = partition_by_context(ds, min_n=2)
        assert [label for label, _ in part.contexts] == ["a", "b", "c", "d"]
        report = analyze_dataset(ds, AnalysisOptions(min_context_n=2))
        assert report.contexts["context"] == ("c", "d", "a", "b")
        assert report.contexts["exposure_mean"][2] == report.contexts["exposure_mean"][3]
        assert [note.split(":")[0] for note in report.warnings] == [
            "context 'c'", "context 'a'", "context 'b'"
        ]
        assert all("weak instrument" in note for note in report.warnings)


def _with_covariates(context):
    """A dataset on these labels whose row number rides along as the instrument."""
    rng = np.random.default_rng(3)
    n = len(context)
    return Dataset(
        instrument=np.arange(n, dtype=float),
        exposure=rng.normal(size=n),
        outcome=(rng.random(n) < 0.3).astype(float),
        context=np.asarray(context),
        covariates=rng.normal(size=(n, 2)),
        covariate_names=("age", "sex"),
        outcome_family="logistic",
    )


def _same_rows(a: Dataset, b: Dataset) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in datamodel._ROW_COLUMNS)


def _shares_memory(sub: Dataset, ds: Dataset) -> list[bool]:
    return [np.shares_memory(getattr(sub, name), getattr(ds, name))
            for name in datamodel._ROW_COLUMNS]


class TestZeroCopyPartition:
    def test_grouped_contexts_are_read_only_views(self):
        ds = _with_covariates(np.repeat(["b", "a", "c"], [120, 150, 130]))
        part = partition_by_context(ds, min_n=100)
        assert len(part.contexts) == 3
        for label, sub in part.contexts:
            assert all(_shares_memory(sub, ds))
            assert not any(getattr(sub, name).flags.writeable for name in datamodel._ROW_COLUMNS)
            assert _same_rows(sub, ds.subset(np.flatnonzero(ds.context == label)))
            with pytest.raises(ValueError, match="read-only"):
                sub.exposure[0] = 1.0
        assert ds.exposure.flags.writeable and ds.covariates.flags.writeable

    def test_interleaved_contexts_are_gathered_in_file_order(self):
        context = np.random.default_rng(4).permutation(np.repeat(["q", "b", "k"], [300, 250, 200]))
        ds = _with_covariates(context)
        part = partition_by_context(ds, min_n=100)
        for label, sub in part.contexts:
            assert not any(_shares_memory(sub, ds))
            assert _same_rows(sub, ds.subset(np.flatnonzero(context == label)))
            assert not sub.covariates.flags.writeable

    def test_mixed_file_takes_both_paths(self):
        # "a" lies in two runs of the file; "b" and "c" in one run each.
        ds = _with_covariates(np.repeat(["a", "b", "a", "c"], [100, 150, 50, 120]))
        part = partition_by_context(ds, min_n=100)
        shared = {label: all(_shares_memory(sub, ds)) for label, sub in part.contexts}
        assert shared == {"a": False, "b": True, "c": True}
        for label, sub in part.contexts:
            assert _same_rows(sub, ds.subset(np.flatnonzero(ds.context == label)))
        a = dict(part.contexts)["a"]
        assert a.instrument.tolist() == [*range(100), *range(250, 300)]

    def test_subset_by_mask_equals_subset_by_row_numbers(self):
        ds = _with_covariates(np.repeat(["a", "b"], [5, 7]))
        mask = ds.context == "b"
        assert _same_rows(ds.subset(mask), ds.subset(np.flatnonzero(mask)))
        assert _same_rows(ds.subset(slice(5, 12)), ds.subset(np.flatnonzero(mask)))

    def test_analysis_leaves_the_callers_arrays_unchanged(self):
        ds = synthetic_cohort(seed=8, sizes=small_sizes(40))
        before = {name: getattr(ds, name).copy() for name in datamodel._ROW_COLUMNS}
        analyze_dataset(ds, AnalysisOptions(family="logistic", scale=10.0))
        for name, column in before.items():
            assert np.array_equal(getattr(ds, name), column)
            assert getattr(ds, name).flags.writeable


class TestSummarize:
    def test_basic_summary(self):
        ds = _dataset([0, 1, 2], [1.0, 2.0, 3.0], [0, 0, 0], ["a"] * 3)
        assert summarize_context("a", ds) == (3, 2.0)

    def test_too_few_records(self):
        ds = _dataset([0.0], [1.0], [0.0], ["a"])
        with pytest.raises(DomainError):
            summarize_context("a", ds)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=101)
        ds = _dataset(np.zeros(101), x, np.zeros(101), ["a"] * 101)
        perm = rng.permutation(101)
        ds_p = ds.subset(perm)
        (n, mean), (n_p, mean_p) = summarize_context("a", ds), summarize_context("a", ds_p)
        assert n == n_p == 101
        assert mean == pytest.approx(mean_p, abs=1e-12)


class TestCsvText:
    def test_none_is_na_and_floats_keep_full_precision(self):
        text = csv_text(("a", "b", "c"), [(None, 0.1 + 0.2, 3), ("x", float("nan"), -1e-300)])
        assert text == "a,b,c\nNA,0.30000000000000004,3\nx,nan,-1e-300\n"

    def test_carriage_returns_are_quoted(self):
        rows = [("a\rb", 1.0), ("c\r\nd", None), ("e\nf", 2.5), ('q"x,y', 3), ("plain", -0.0)]
        text = csv_text(("context", "x"), rows)
        assert text == ('context,x\n"a\rb",1.0\n"c\r\nd",NA\n"e\nf",2.5\n'
                        '"q""x,y",3\nplain,-0.0\n')
        read = list(csv.reader(io.StringIO(text, newline="")))
        assert read == [["context", "x"], ["a\rb", "1.0"], ["c\r\nd", "NA"], ["e\nf", "2.5"],
                        ['q"x,y', "3"], ["plain", "-0.0"]]
