"""Storage parity: one format, identical answers however it is served.

Everything about where partition bytes live is physical: an index over an
in-memory store, over a ``backing_dir``, over a directory attached and
reopened by a fresh process, and over a store with the read cache on must
produce *exactly* the same answers and the same access-volume accounting —
same ids, same distance bits, same partitions loaded, same logical DFS
counters.  Also covers the ``knn_batch`` signature deduplication
satellite (repeated queries in a batch route once).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex, QueryStats
from repro.datasets import random_walk_dataset, sample_queries
from repro.resilience import FaultPlan
from oracles import layout_from_clusters
from repro.series import SeriesDataset
from repro.storage import SimulatedDFS, encode_partition_v2_arrays

CFG = ClimberConfig(
    word_length=8, n_pivots=32, prefix_length=6, capacity=100,
    sample_fraction=0.25, n_input_partitions=12, seed=2,
)


@pytest.fixture(scope="module")
def dataset():
    return random_walk_dataset(1_500, 48, seed=9)


@pytest.fixture(scope="module")
def queries(dataset):
    return sample_queries(dataset, 12, seed=77).values


def build(dataset, backing_dir=None):
    dfs = SimulatedDFS(backing_dir=backing_dir)
    return ClimberIndex.build(dataset, CFG, dfs=dfs), dfs


def reopen(index, backing_dir, **dfs_kwargs):
    """What a fresh process sees: the directory attached, the index
    rebuilt from its persisted global structure."""
    dfs = SimulatedDFS(backing_dir=backing_dir, **dfs_kwargs)
    dfs.attach()
    return ClimberIndex.reopen(index.save_global_index(), dfs, CFG), dfs


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.ids, rb.ids)
        np.testing.assert_array_equal(ra.distances, rb.distances)
        assert ra.stats.partitions_loaded == rb.stats.partitions_loaded
        assert ra.stats.data_bytes == rb.stats.data_bytes
        assert ra.stats.records_examined == rb.stats.records_examined


def assert_logical_io_identical(a: SimulatedDFS, b: SimulatedDFS, fields):
    for field in fields:
        assert getattr(a.counters, field) == getattr(b.counters, field), field


class TestFormatParity:
    """The in-memory build is the reference every other way of serving
    the same partitions is held to."""

    @pytest.mark.parametrize("variant", ["knn", "adaptive", "od-smallest"])
    def test_knn_results_and_counters_identical(self, dataset, queries,
                                                variant, tmp_path):
        mem_idx, mem_dfs = build(dataset)
        disk_idx, disk_dfs = build(dataset, tmp_path)
        assert_results_identical(
            [mem_idx.knn(q, 10, variant=variant) for q in queries],
            [disk_idx.knn(q, 10, variant=variant) for q in queries],
        )
        assert_logical_io_identical(
            mem_dfs, disk_dfs,
            ("bytes_read", "partitions_read", "bytes_written"),
        )

    def test_knn_batch_parity_in_memory(self, dataset, queries, tmp_path):
        mem_idx, mem_dfs = build(dataset)
        disk_idx, disk_dfs = build(dataset, tmp_path)
        assert_results_identical(
            mem_idx.knn_batch(queries, 8), disk_idx.knn_batch(queries, 8)
        )
        assert_logical_io_identical(
            mem_dfs, disk_dfs, ("bytes_read", "partitions_read")
        )

    def test_reopen_from_disk_matches_memory(self, dataset, queries, tmp_path):
        mem_idx, mem_dfs = build(dataset)
        disk_idx, _ = build(dataset, tmp_path)
        reopened, fresh = reopen(disk_idx, tmp_path)
        assert_results_identical(
            [mem_idx.knn(q, 10) for q in queries],
            [reopened.knn(q, 10) for q in queries],
        )
        assert_logical_io_identical(
            mem_dfs, fresh, ("bytes_read", "partitions_read")
        )

    def test_cached_reopen_matches_memory(self, dataset, queries, tmp_path):
        mem_idx, mem_dfs = build(dataset)
        disk_idx, _ = build(dataset, tmp_path)
        warm_idx, cached = reopen(disk_idx, tmp_path, cache_bytes=1 << 26)
        assert_results_identical(
            [mem_idx.knn(q, 10) for q in queries],
            [warm_idx.knn(q, 10) for q in queries],
        )
        assert_logical_io_identical(
            mem_dfs, cached, ("bytes_read", "partitions_read")
        )
        assert cached.counters.cache_hits > 0

    @pytest.mark.parametrize("config_overrides, dfs_kwargs", [
        pytest.param({"n_workers": 2}, {}, id="n_workers=2"),
        # Recovered within the default RetryPolicy, so nothing fails.
        pytest.param({}, {"fault_plan": FaultPlan(seed=20240808,
                                                  transient_rate=0.02)},
                     id="transient-faults"),
        # Every flip lands inside the open, is caught by a checksum and is
        # recovered by the next attempt (4 retries).
        pytest.param({}, {"fault_plan": FaultPlan(seed=20240808,
                                                  bit_flip_rate=0.02)},
                     id="bit-flip-faults"),
        # Armed for the progressive calls only; the exact ones never stop.
        pytest.param({"early_stop": "streak:2"}, {}, id="early_stop=streak:2"),
    ])
    def test_physical_knobs_are_invisible(self, dataset, config_overrides,
                                          dfs_kwargs):
        # ~100 partition reads: enough for the 2 % plan to fire (5 retries).
        queries = sample_queries(dataset, 48, seed=77).values
        mem_idx, mem_dfs = build(dataset)
        dfs = SimulatedDFS(**dfs_kwargs)
        idx = ClimberIndex.build(
            dataset, dataclasses.replace(CFG, **config_overrides), dfs=dfs
        )
        assert_results_identical(
            [mem_idx.knn(q, 10) for q in queries]
            + mem_idx.knn_batch(queries, 8),
            [idx.knn(q, 10) for q in queries] + idx.knn_batch(queries, 8),
        )
        assert_logical_io_identical(
            mem_dfs, dfs, ("bytes_read", "partitions_read")
        )
        c = dfs.counters
        assert (c.retries > 0) == ("fault_plan" in dfs_kwargs)
        assert c.read_failures == 0
        flips = dfs_kwargs.get("fault_plan", FaultPlan()).bit_flip_rate > 0
        assert c.corruption_detected == (c.retries if flips else 0)

    def test_append_parity(self, dataset, tmp_path):
        extra = random_walk_dataset(200, 48, seed=31)
        probe = extra.values[:6]
        outcomes = []
        for backing_dir in (None, tmp_path):
            idx, dfs = build(dataset, backing_dir)
            summary = idx.append(extra)
            outcomes.append((
                summary["delta_partitions"],
                [idx.knn(q, 10) for q in probe],
                dfs,
            ))
        (mem_deltas, mem_res, mem_dfs), (disk_deltas, disk_res, disk_dfs) = \
            outcomes
        assert mem_deltas == disk_deltas
        assert_results_identical(mem_res, disk_res)
        assert_logical_io_identical(
            mem_dfs, disk_dfs,
            ("bytes_read", "partitions_read", "bytes_written"),
        )
        # Deltas appended before a restart are served after it.
        idx, _ = build(dataset, tmp_path / "restart")
        idx.append(extra)
        reopened, _ = reopen(idx, tmp_path / "restart")
        assert_results_identical(
            mem_res, [reopened.knn(q, 10) for q in probe]
        )


class TestPlacementIsInvisible:
    """Where a partition's bytes sit — a dict, or a segment file written by
    the build or by an append — shows in nothing above the backend."""

    VARIANTS = ("knn", "adaptive", "od-smallest")
    STATS = [f.name for f in dataclasses.fields(QueryStats)
             if f.name not in ("wall_seconds", "stage_seconds")]

    @staticmethod
    def grow(dataset, backing_dir):
        """Build plus three appends; the deltas each append reported."""
        index, dfs = build(dataset, backing_dir)
        deltas = []
        for number in range(3):
            values = random_walk_dataset(120, 48, seed=40 + number).values
            first = 5_000 + 500 * number
            deltas.append(index.append(
                SeriesDataset(values, ids=np.arange(first, first + 120))
            )["delta_partitions"])
        return index, dfs, deltas

    def observe(self, index, dfs, probes):
        before = dfs.counters
        results = []
        for variant in self.VARIANTS:
            results += [index.knn(q, 10, variant=variant) for q in probes]
            results += index.knn_batch(probes, 8, variant=variant)
        after = dfs.counters
        return {
            "n_records": index.n_records,
            "partitions": dfs.list_partitions(),
            "deltas": {pid: dfs.delta_partitions(pid)
                       for pid in dfs.list_partitions()},
            "sizes": [dfs.partition_nbytes(pid)
                      for pid in dfs.list_partitions()],
            "ids": [r.ids.tobytes() for r in results],
            "distance bits": [r.distances.tobytes() for r in results],
            "stats": [[getattr(r.stats, name) for name in self.STATS]
                      for r in results],
            "bytes_read": after.bytes_read - before.bytes_read,
            "partitions_read": after.partitions_read - before.partitions_read,
        }

    def test_memory_and_disk_stores_agree(self, dataset, tmp_path):
        mem_idx, mem_dfs, mem_deltas = self.grow(dataset, None)
        disk_idx, disk_dfs, disk_deltas = self.grow(dataset, tmp_path)
        assert mem_deltas == disk_deltas
        assert_logical_io_identical(
            mem_dfs, disk_dfs, ("bytes_written", "partitions_written")
        )
        assert disk_dfs.counters.partitions_written == len(disk_dfs)
        disk_dfs.engine.close()
        # One segment for the build and one for each of the three appends.
        assert len(list(tmp_path.iterdir())) == 4

        blob = mem_idx.save_global_index()
        assert blob == disk_idx.save_global_index()
        readers = [(ClimberIndex.reopen(blob, mem_dfs, CFG), mem_dfs)]
        readers.append(reopen(disk_idx, tmp_path))
        probes = np.vstack([
            sample_queries(dataset, 8, seed=77).values,
            random_walk_dataset(120, 48, seed=41).values[:8],
        ])
        reference, *others = (
            self.observe(index, dfs, probes) for index, dfs in readers
        )
        assert reference["n_records"] == 1_500 + 360
        assert any(".d" in pid for stats in reference["stats"]
                   for pid in stats[self.STATS.index("partitions_loaded")])
        for observed in others:
            for what, value in reference.items():
                assert observed[what] == value, what


class TestOneSize:
    """A partition has one size, the length of its stored blob (DESIGN.md
    D17): the DFS registers it, totals it and charges a read with it the
    same way wherever the blob lives."""

    @staticmethod
    def payloads(dataset):
        """Three partitions of different sizes and cluster counts, encoded
        once: the bytes every store below holds."""
        out = {}
        for i, (n, n_clusters) in enumerate(((60, 1), (150, 4), (333, 7))):
            rows = np.arange(100 * i, 100 * i + n)
            clusters = {
                f"g{i}/{c}": (dataset.ids[chunk], dataset.values[chunk])
                for c, chunk in enumerate(np.array_split(rows, n_clusters))
            }
            out[f"p{i}"] = encode_partition_v2_arrays(
                f"p{i}", *layout_from_clusters(clusters))
        return out

    def test_sizes_and_reads_charge_the_blob_however_stored(self, dataset,
                                                            tmp_path):
        payloads = self.payloads(dataset)
        singles, batched = tmp_path / "singles", tmp_path / "batched"
        memory = SimulatedDFS()
        one_by_one = SimulatedDFS(backing_dir=singles)
        for dfs in (memory, one_by_one):
            for pid, payload in payloads.items():
                assert dfs.write_encoded_partitions([(pid, payload)]) \
                    == len(payload)
        assert len(list(singles.iterdir())) == len(payloads)
        in_one = SimulatedDFS(backing_dir=batched)
        assert in_one.write_encoded_partitions(iter(payloads.items())) \
            == sum(map(len, payloads.values()))
        assert [p.name for p in batched.iterdir()] == ["append-000000.seg"]
        attached = SimulatedDFS(backing_dir=singles)
        assert attached.attach() == len(payloads)
        attached_batch = SimulatedDFS(backing_dir=batched)
        assert attached_batch.attach() == len(payloads)

        for dfs in (memory, one_by_one, attached, in_one, attached_batch):
            assert dfs.total_bytes == sum(map(len, payloads.values()))
            for pid, payload in payloads.items():
                assert dfs.partition_nbytes(pid) == len(payload)
                before = dfs.counters.bytes_read
                view = dfs.read_partition(pid)
                assert dfs.counters.bytes_read - before == len(payload)
                assert view.nbytes == len(payload)
        for dfs in (one_by_one, attached, in_one, attached_batch):
            dfs.engine.close()


class TestBatchSignatureDedup:
    def test_repeated_queries_route_once(self, dataset, queries, monkeypatch):
        """A batch of duplicates computes the OD matrix on unique rows."""
        idx, _ = build(dataset)
        batch = np.repeat(queries[:3], 4, axis=0)  # 12 rows, 3 distinct
        seen_rows = []
        original = type(idx.routing).od_matrix

        def spy(self, ranked):
            seen_rows.append(np.asarray(ranked).shape[0])
            return original(self, ranked)

        monkeypatch.setattr(type(idx.routing), "od_matrix", spy)
        results = idx.knn_batch(batch, 8)
        assert seen_rows == [3]
        assert len(results) == 12

    def test_repeated_queries_match_per_query_knn(self, dataset, queries):
        # Two identically-built indexes so both runs see the same RNG
        # stream position at every tie-break.
        batch_idx, _ = build(dataset)
        solo_idx, _ = build(dataset)
        batch = np.repeat(queries[:3], 4, axis=0)
        batch_res = batch_idx.knn_batch(batch, 8)
        solo_res = [solo_idx.knn(q, 8) for q in batch]
        assert_results_identical(solo_res, batch_res)

    def test_duplicates_share_answers(self, dataset, queries):
        idx, _ = build(dataset)
        batch = np.vstack([queries[0], queries[1], queries[0]])
        res = idx.knn_batch(batch, 5)
        np.testing.assert_array_equal(res[0].ids, res[2].ids)
        np.testing.assert_array_equal(res[0].distances, res[2].distances)

    def test_unique_batch_unchanged(self, dataset, queries):
        batch_idx, _ = build(dataset)
        solo_idx, _ = build(dataset)
        batch_res = batch_idx.knn_batch(queries, 8)
        solo_res = [solo_idx.knn(q, 8) for q in queries]
        assert_results_identical(solo_res, batch_res)
