"""v1/v2 storage parity: query results and logical counters byte-identical.

The acceptance contract of the zero-copy engine: an index served by the
columnar v2 format must produce *exactly* the answers and the access-volume
accounting of the v1 blob format — same ids, same distances, same
``sim_seconds``, same logical DFS counters — because everything that
changed is physical.  Also covers the ``knn_batch`` signature
deduplication satellite (repeated queries in a batch route once).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries

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


def build(dataset, fmt, tmp_path=None):
    from repro.storage import SimulatedDFS

    dfs = SimulatedDFS(
        backing_dir=tmp_path, partition_format=fmt
    ) if tmp_path else SimulatedDFS(partition_format=fmt)
    cfg = ClimberConfig(**{**CFG.__dict__, "partition_format": fmt})
    return ClimberIndex.build(dataset, cfg, dfs=dfs), dfs


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.ids, rb.ids)
        np.testing.assert_array_equal(ra.distances, rb.distances)
        assert ra.stats.sim_seconds == rb.stats.sim_seconds
        assert ra.stats.partitions_loaded == rb.stats.partitions_loaded
        assert ra.stats.data_bytes == rb.stats.data_bytes
        assert ra.stats.records_examined == rb.stats.records_examined


class TestFormatParity:
    @pytest.mark.parametrize("variant", ["knn", "adaptive", "od-smallest"])
    def test_knn_results_and_counters_identical(self, dataset, queries,
                                                variant, tmp_path):
        v1_idx, v1_dfs = build(dataset, "v1", tmp_path / "v1")
        v2_idx, v2_dfs = build(dataset, "v2", tmp_path / "v2")
        v1_res = [v1_idx.knn(q, 10, variant=variant) for q in queries]
        v2_res = [v2_idx.knn(q, 10, variant=variant) for q in queries]
        assert_results_identical(v1_res, v2_res)
        assert v1_dfs.counters.bytes_read == v2_dfs.counters.bytes_read
        assert (v1_dfs.counters.partitions_read
                == v2_dfs.counters.partitions_read)
        assert v1_dfs.counters.bytes_written == v2_dfs.counters.bytes_written

    def test_knn_batch_parity_in_memory(self, dataset, queries):
        v1_idx, v1_dfs = build(dataset, "v1")
        v2_idx, v2_dfs = build(dataset, "v2")
        assert_results_identical(
            v1_idx.knn_batch(queries, 8), v2_idx.knn_batch(queries, 8)
        )
        assert v1_dfs.counters.bytes_read == v2_dfs.counters.bytes_read
        assert (v1_dfs.counters.partitions_read
                == v2_dfs.counters.partitions_read)

    def test_v2_reopen_from_disk_matches_v1(self, dataset, queries, tmp_path):
        from repro.storage import SimulatedDFS

        v1_idx, _ = build(dataset, "v1", tmp_path / "v1")
        v2_idx, _ = build(dataset, "v2", tmp_path / "v2")
        blob = v2_idx.save_global_index()
        fresh = SimulatedDFS(backing_dir=tmp_path / "v2")
        fresh.attach()
        reopened = ClimberIndex.reopen(blob, fresh, v2_idx.config)
        assert_results_identical(
            [v1_idx.knn(q, 10) for q in queries],
            [reopened.knn(q, 10) for q in queries],
        )

    def test_v2_with_cache_matches_v1_without(self, dataset, queries, tmp_path):
        from repro.storage import SimulatedDFS

        v2_idx, _ = build(dataset, "v2", tmp_path / "v2")
        blob = v2_idx.save_global_index()
        cached = SimulatedDFS(backing_dir=tmp_path / "v2",
                              cache_bytes=1 << 26)
        cached.attach()
        warm_idx = ClimberIndex.reopen(blob, cached, v2_idx.config)
        v1_idx, v1_dfs = build(dataset, "v1", tmp_path / "v1")
        warm = [warm_idx.knn(q, 10) for q in queries]
        cold = [v1_idx.knn(q, 10) for q in queries]
        assert_results_identical(cold, warm)
        assert cached.counters.bytes_read == v1_dfs.counters.bytes_read
        assert cached.counters.cache_hits > 0

    def test_append_parity(self, dataset, tmp_path):
        extra = random_walk_dataset(200, 48, seed=31)
        probe = extra.values[:6]
        outcomes = {}
        for fmt in ("v1", "v2"):
            idx, dfs = build(dataset, fmt, tmp_path / f"append-{fmt}")
            summary = idx.append(extra)
            outcomes[fmt] = (
                summary["delta_partitions"],
                [idx.knn(q, 10) for q in probe],
                dfs.counters.bytes_read,
            )
        assert outcomes["v1"][0] == outcomes["v2"][0]
        assert_results_identical(outcomes["v1"][1], outcomes["v2"][1])
        assert outcomes["v1"][2] == outcomes["v2"][2]


class TestBatchSignatureDedup:
    def test_repeated_queries_route_once(self, dataset, queries, monkeypatch):
        """A batch of duplicates computes the OD matrix on unique rows."""
        idx, _ = build(dataset, "v2")
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
        batch_idx, _ = build(dataset, "v2")
        solo_idx, _ = build(dataset, "v2")
        batch = np.repeat(queries[:3], 4, axis=0)
        batch_res = batch_idx.knn_batch(batch, 8)
        solo_res = [solo_idx.knn(q, 8) for q in batch]
        assert_results_identical(solo_res, batch_res)

    def test_duplicates_share_answers(self, dataset, queries):
        idx, _ = build(dataset, "v2")
        batch = np.vstack([queries[0], queries[1], queries[0]])
        res = idx.knn_batch(batch, 5)
        np.testing.assert_array_equal(res[0].ids, res[2].ids)
        np.testing.assert_array_equal(res[0].distances, res[2].distances)

    def test_unique_batch_unchanged(self, dataset, queries):
        batch_idx, _ = build(dataset, "v2")
        solo_idx, _ = build(dataset, "v2")
        batch_res = batch_idx.knn_batch(queries, 8)
        solo_res = [solo_idx.knn(q, 8) for q in queries]
        assert_results_identical(solo_res, batch_res)
