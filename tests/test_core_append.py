"""Tests for incremental appends (delta partitions)."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import all_records

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.exceptions import ConfigurationError, NonFiniteValueError
from repro.series import SeriesDataset, knn_bruteforce
from repro.storage import SimulatedDFS


CFG = ClimberConfig(word_length=8, n_pivots=24, prefix_length=5,
                    capacity=150, sample_fraction=0.3,
                    n_input_partitions=10, seed=9)


@pytest.fixture
def built():
    base = random_walk_dataset(1500, 48, seed=1)
    index = ClimberIndex.build(base, CFG)
    extra = random_walk_dataset(400, 48, seed=2)
    extra = type(extra)(extra.values, ids=np.arange(10_000, 10_400),
                        name="extra")
    return base, extra, index


class TestAppend:
    def test_record_conservation(self, built):
        base, extra, index = built
        summary = index.append(extra)
        assert summary["records_appended"] == 400
        stored = []
        for pname in index.dfs.list_partitions():
            stored.extend(all_records(index.dfs.read_partition(pname))[0].tolist())
        assert sorted(stored) == sorted(
            base.ids.tolist() + extra.ids.tolist()
        )

    def test_delta_partitions_created_next_to_bases(self, built):
        _, extra, index = built
        summary = index.append(extra)
        for pname in summary["delta_partitions"]:
            base_name = pname.split(".d")[0]
            assert pname.startswith(base_name + ".d")

    def test_appended_records_are_findable(self, built):
        _, extra, index = built
        index.append(extra)
        hits = 0
        for i in range(0, 400, 40):
            res = index.knn(extra.values[i], 3, variant="adaptive")
            # Tolerance covers the matmul distance path's ~1e-7 noise.
            if res.ids[0] == extra.ids[i] and res.distances[0] < 1e-5:
                hits += 1
        assert hits >= 8  # random WD tie-breaks may divert a rare record

    def test_n_records_updated(self, built):
        _, extra, index = built
        before = index.n_records
        index.append(extra)
        assert index.n_records == before + 400

    def test_multiple_appends_increment_sequence(self, built):
        _, extra, index = built
        first = index.append(extra.take(np.arange(100)))
        second = index.append(extra.take(np.arange(100, 200)))
        assert any(".d0" in p for p in first["delta_partitions"])
        assert any(".d1" in p for p in second["delta_partitions"])

    def test_recall_maintained_over_combined_data(self, built):
        base, extra, index = built
        index.append(extra)
        all_values = np.vstack([base.values, extra.values])
        all_ids = np.concatenate([base.ids, extra.ids])
        recalls = []
        for i in (5, 205, 405, 805, 1205, 1405):
            exact, _ = knn_bruteforce(base.values[i], all_values, all_ids, 20)
            res = index.knn(base.values[i], 20)
            recalls.append(len(set(res.ids) & set(exact)) / 20)
        # Sparse random walks with a small pivot pool are a hard workload;
        # the check is that appended data does not break retrieval, not
        # that recall is high (the benchmarks measure that).
        assert np.mean(recalls) > 0.25

    def test_append_length_mismatch_rejected(self, built):
        _, _, index = built
        wrong = random_walk_dataset(10, 32, seed=3)
        with pytest.raises(ConfigurationError):
            index.append(wrong)

    def test_deltas_visible_after_reopen(self, built):
        _, extra, index = built
        index.append(extra)
        reopened = ClimberIndex.reopen(
            index.save_global_index(), index.dfs, CFG
        )
        res = reopened.knn(extra.values[7], 3)
        assert extra.ids[7] in res.ids


class TestAppendRefusesBadBatches:
    """A batch is refused whole, before anything is written, registered
    or added to ``n_records``."""

    @pytest.fixture
    def on_disk(self, tmp_path):
        base = random_walk_dataset(1500, 48, seed=1)
        dfs = SimulatedDFS(backing_dir=tmp_path)
        index = ClimberIndex.build(base, CFG, dfs=dfs)
        extra = random_walk_dataset(50, 48, seed=2)
        return index, extra.values, np.arange(10_000, 10_050), tmp_path

    @staticmethod
    def state(index, store):
        return (sorted(p.name for p in store.iterdir()), len(index.dfs),
                index.dfs.counters, index.n_records)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, on_disk, bad):
        index, values, ids, store = on_disk
        before = self.state(index, store)
        values = values.copy()
        values[17, 5] = values[31, 0] = bad
        with pytest.raises(NonFiniteValueError, match="row 17 "):
            index.append(SeriesDataset(values, ids))
        assert self.state(index, store) == before

    def test_ids_repeated_within_the_batch(self, on_disk):
        index, values, ids, store = on_disk
        before = self.state(index, store)
        ids = ids.copy()
        ids[40] = ids[3]
        with pytest.raises(ConfigurationError, match="repeat"):
            index.append(SeriesDataset(values, ids))
        assert self.state(index, store) == before

    def test_wrong_length_leaves_the_store_alone(self, on_disk):
        index, values, ids, store = on_disk
        before = self.state(index, store)
        with pytest.raises(ConfigurationError, match="length"):
            index.append(SeriesDataset(values[:, :32], ids))
        assert self.state(index, store) == before

    def test_a_good_batch_still_lands_after_a_refusal(self, on_disk):
        index, values, ids, store = on_disk
        broken = values.copy()
        broken[0, 0] = np.nan
        with pytest.raises(NonFiniteValueError):
            index.append(SeriesDataset(broken, ids))
        summary = index.append(SeriesDataset(values, ids))
        assert summary["records_appended"] == 50
        assert all(p.endswith(".d0") for p in summary["delta_partitions"])
        assert index.n_records == 1550


def _hostile(kind):
    """A 1 200-record dataset with one defect ``build`` must refuse."""
    base = random_walk_dataset(1200, 32, seed=3)
    values, ids = base.values.copy(), base.ids.copy()
    if kind == "repeated id":
        ids[900] = ids[7]
    else:
        values[7, 4] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return SeriesDataset(values, ids)


class TestBuildRefusesBadDatasets:
    """``build`` refuses what ``append`` refuses, before a byte is stored:
    a NaN row would be stored where no query finds it again."""

    @pytest.mark.parametrize("kind, error, match", [
        pytest.param(kind, error, match, id=kind) for kind, error, match in (
            ("nan", NonFiniteValueError, "row 7 "),
            ("inf", NonFiniteValueError, "row 7 "),
            ("-inf", NonFiniteValueError, "row 7 "),
            ("repeated id", ConfigurationError, "repeat"),
        )
    ])
    def test_refused_before_anything_is_stored(self, tmp_path, kind, error,
                                               match):
        dfs = SimulatedDFS(backing_dir=tmp_path)
        with pytest.raises(error, match=match):
            ClimberIndex.build(_hostile(kind), CFG, dfs=dfs)
        assert len(dfs) == 0
        assert dfs.counters.bytes_written == 0
        assert list(tmp_path.iterdir()) == []


@pytest.mark.xfail(strict=True, reason=(
    "known defect: append checks ids for repeats within its batch only, "
    "so an id already stored is accepted again and a query can return "
    "it twice; the fix needs index-wide id knowledge"
))
def test_an_id_already_stored_never_reaches_an_answer_twice(built):
    # Whatever the fix — refuse the batch, or replace the stored record —
    # no answer may hold one id twice.
    base, _, index = built
    try:
        index.append(SeriesDataset(base.values[:10], ids=np.arange(10)))
    except ConfigurationError:
        pass
    ids = index.knn(base.values[3], 10).ids
    assert np.unique(ids).size == ids.size
