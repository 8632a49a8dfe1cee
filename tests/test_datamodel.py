"""Tests for CSV ingestion, partitioning, and context summaries."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from ctxmr import datamodel
from ctxmr.datamodel import (
    ColumnMap,
    Dataset,
    load_csv,
    partition_by_context,
    summarize_context,
)
from ctxmr.errors import ConfigError, DomainError, IngestError

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

    def test_ordering_by_exposure_mean_with_label_tiebreak(self):
        context = np.array(["b"] * 3 + ["a"] * 3 + ["c"] * 3)
        exposure = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
        ds = _dataset(np.zeros(9), exposure, np.zeros(9), context)
        part = partition_by_context(ds, min_n=2)
        assert [label for label, _ in part.contexts] == ["c", "a", "b"]


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
