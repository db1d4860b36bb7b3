"""Storage parity: one format, identical answers however it is served.

Everything about where partition bytes live is physical: an index over an
in-memory store, over a ``backing_dir``, over a directory attached and
reopened by a fresh process, and over a store with the read cache on must
produce *exactly* the same answers and the same access-volume accounting —
same ids, same distance bits, same ``sim_seconds``, same logical DFS
counters.  Also covers the ``knn_batch`` signature deduplication
satellite (repeated queries in a batch route once).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.resilience import FaultPlan
from repro.storage import SimulatedDFS

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
        assert ra.stats.sim_seconds == rb.stats.sim_seconds
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
        pytest.param({}, {"verify": "eager"}, id="verify=eager"),
        pytest.param({}, {"checksums": False}, id="checksums=False"),
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
        assert (dfs.counters.retries > 0) == ("fault_plan" in dfs_kwargs)
        assert dfs.counters.read_failures == 0

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
