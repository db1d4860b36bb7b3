"""Tests for the DFS read cache, delta registry, and partition metadata.

The cache contract: *logical* read counters (``bytes_read`` /
``partitions_read``) and simulated cost accounting are byte-identical
with the cache enabled or disabled — only the physical deserialisation
work changes, tracked by ``cache_hits`` / ``cache_misses``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from conftest import all_records, make_layout

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.exceptions import PartitionNotFoundError, StorageError
from repro.storage import SimulatedDFS, encode_partition_v2_arrays


def make_partition(n_clusters=2, per_cluster=4, length=8, seed=0):
    return make_layout(n_clusters, per_cluster, length, seed)


def blob_size(part) -> int:
    """The partition's one size: the length of its stored blob."""
    return len(encode_partition_v2_arrays("p", *part))


class TestReadCache:
    def test_hit_and_miss_counters(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=1 << 20)
        part = make_partition()
        dfs.write_partition_arrays("a", *part)
        dfs.read_partition("a")
        dfs.read_partition("a")
        dfs.read_partition("a")
        assert dfs.counters.cache_misses == 1
        assert dfs.counters.cache_hits == 2

    def test_logical_counters_charged_on_hits(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=1 << 20)
        part = make_partition()
        dfs.write_partition_arrays("a", *part)
        dfs.read_partition("a")
        dfs.read_partition("a")
        assert dfs.counters.partitions_read == 2
        assert dfs.counters.bytes_read == 2 * blob_size(part)

    def test_cached_read_returns_equal_content(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=1 << 20)
        part = make_partition(seed=5)
        dfs.write_partition_arrays("a", *part)
        first = dfs.read_partition("a")
        second = dfs.read_partition("a")
        assert second is first  # served from cache, no re-deserialisation
        np.testing.assert_allclose(all_records(second)[1], part.values)

    def test_byte_bound_respected(self, tmp_path):
        parts = {f"p{i}": make_partition(per_cluster=8, seed=i) for i in range(4)}
        budget = blob_size(parts["p0"]) * 2 + 1
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=budget)
        for pid, p in parts.items():
            dfs.write_partition_arrays(pid, *p)
        for pid in parts:
            dfs.read_partition(pid)
        assert dfs.cache_used_bytes <= budget
        assert len(dfs._cache) == 2  # LRU kept the last two

    def test_lru_eviction_order(self, tmp_path):
        parts = {f"p{i}": make_partition(per_cluster=8, seed=i) for i in range(3)}
        dfs = SimulatedDFS(backing_dir=tmp_path,
                           cache_bytes=blob_size(parts["p0"]) * 2 + 1)
        for pid, p in parts.items():
            dfs.write_partition_arrays(pid, *p)
        dfs.read_partition("p0")
        dfs.read_partition("p1")
        dfs.read_partition("p0")   # refresh p0
        dfs.read_partition("p2")   # evicts p1, the least recently used
        assert set(dfs._cache) == {"p0", "p2"}

    def test_oversized_partition_not_cached(self, tmp_path):
        part = make_partition(per_cluster=64)
        dfs = SimulatedDFS(backing_dir=tmp_path,
                           cache_bytes=blob_size(part) - 1)
        dfs.write_partition_arrays("big", *part)
        dfs.read_partition("big")
        assert dfs.cache_used_bytes == 0

    def test_write_invalidates_stale_cache_entry(self, tmp_path):
        """Defensive: overwrites are rejected today, but if an entry ever
        lingered under a written id it must not shadow the new bytes."""
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=1 << 20)
        fresh = make_partition(seed=1)
        other = SimulatedDFS()
        other.write_partition_arrays("x", *make_partition(seed=2))
        dfs._cache["x"] = other.read_partition("x")  # stale injection
        dfs.write_partition_arrays("x", *fresh)
        np.testing.assert_allclose(all_records(dfs.read_partition("x"))[1],
                                   fresh.values)

    def test_cache_clear(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=1 << 20)
        dfs.write_partition_arrays("a", *make_partition())
        dfs.read_partition("a")
        assert dfs.cache_used_bytes > 0
        dfs.cache_clear()
        assert dfs.cache_used_bytes == 0
        dfs.read_partition("a")
        assert dfs.counters.cache_misses == 2

    def test_cache_off_never_counts(self):
        dfs = SimulatedDFS()
        dfs.write_partition_arrays("a", *make_partition())
        dfs.read_partition("a")
        assert dfs.counters.cache_hits == 0
        assert dfs.counters.cache_misses == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(StorageError):
            SimulatedDFS(cache_bytes=-1)


class TestDeltaRegistry:
    def test_delta_partitions_sorted(self):
        dfs = SimulatedDFS()
        for pid in ("beta1.d1", "beta1.d0", "beta12.d0", "beta1"):
            dfs.write_partition_arrays(pid, *make_partition())
        assert dfs.delta_partitions("beta1") == ["beta1.d0", "beta1.d1"]
        assert dfs.delta_partitions("beta12") == ["beta12.d0"]
        assert dfs.delta_partitions("beta2") == []

    def test_registry_matches_prefix_scan(self):
        dfs = SimulatedDFS()
        names = ["beta0", "beta0.d0", "beta0.d1", "beta0.d10", "beta0.d2",
                 "beta10.d0"]
        for pid in names:
            dfs.write_partition_arrays(pid, *make_partition())
        for base in ("beta0", "beta10"):
            scan = [p for p in dfs.list_partitions()
                    if p.startswith(f"{base}.d")]
            assert dfs.delta_partitions(base) == scan

    def test_attach_rebuilds_registry(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path)
        dfs.write_partition_arrays("beta3", *make_partition())
        dfs.write_partition_arrays("beta3.d0", *make_partition())
        fresh = SimulatedDFS(backing_dir=tmp_path)
        assert fresh.attach() == 2
        assert fresh.delta_partitions("beta3") == ["beta3.d0"]


class TestRecordCountMetadata:
    def test_record_count_after_write(self):
        dfs = SimulatedDFS()
        part = make_partition(n_clusters=3, per_cluster=5)
        dfs.write_partition_arrays("a", *part)
        assert dfs.record_count("a") == 15

    def test_record_count_missing_partition(self):
        dfs = SimulatedDFS()
        with pytest.raises(PartitionNotFoundError):
            dfs.record_count("ghost")

    def test_attach_reads_headers_not_payloads(self, tmp_path):
        writer = SimulatedDFS(backing_dir=tmp_path)
        parts = {f"p{i}": make_partition(per_cluster=6, seed=i) for i in range(3)}
        for pid, p in parts.items():
            writer.write_partition_arrays(pid, *p)
        fresh = SimulatedDFS(backing_dir=tmp_path)
        assert fresh.attach() == 3
        for pid, p in parts.items():
            assert fresh.record_count(pid) == len(p.ids)
            assert fresh.partition_nbytes(pid) == blob_size(p)


class TestReopenUsesMetadata:
    CFG = ClimberConfig(word_length=8, n_pivots=24, prefix_length=5,
                        capacity=120, sample_fraction=0.25,
                        n_input_partitions=12, seed=4)

    def test_reopen_reads_no_payload_bytes(self):
        ds = random_walk_dataset(1200, 48, seed=3)
        dfs = SimulatedDFS()
        index = ClimberIndex.build(ds, self.CFG, dfs=dfs)
        blob = index.save_global_index()
        before = dfs.counters.snapshot()
        reopened = ClimberIndex.reopen(blob, dfs, self.CFG)
        assert reopened.n_records == ds.count
        assert dfs.counters.bytes_read == before.bytes_read
        assert dfs.counters.partitions_read == before.partitions_read


class TestAccountingParityWithCache:
    """Acceptance: logical reads and partitions loaded identical, cache on or
    off."""

    def test_query_workload_counters_identical(self, tmp_path):
        ds = random_walk_dataset(1500, 48, seed=9)
        cfg = ClimberConfig(word_length=8, n_pivots=32, prefix_length=6,
                            capacity=100, sample_fraction=0.25,
                            n_input_partitions=12, seed=2)
        build_dfs = SimulatedDFS(backing_dir=tmp_path / "dfs")
        index = ClimberIndex.build(ds, cfg, dfs=build_dfs)
        blob = index.save_global_index()

        results = {}
        for cache_bytes in (0, 1 << 26):
            dfs = SimulatedDFS(backing_dir=tmp_path / "dfs",
                               cache_bytes=cache_bytes)
            dfs.attach()
            idx = ClimberIndex.reopen(blob, dfs, cfg)
            loaded = []
            for i in range(0, 300, 13):
                res = idx.knn(ds.values[i], 10, variant="adaptive")
                loaded.append(res.stats.partitions_loaded)
            results[cache_bytes] = (dfs.counters.bytes_read,
                                    dfs.counters.partitions_read, loaded)
        cold = results[0]
        warm = results[1 << 26]
        assert warm[0] == cold[0]
        assert warm[1] == cold[1]
        assert warm[2] == cold[2]


class TestCacheThreadSafety:
    """The cache (and every counter) is guarded by one DFS lock: a storm of
    concurrent readers over a cache far smaller than the working set must
    keep every invariant intact — no exceptions, exact logical counters,
    hit/miss totals that sum to the read count, and an eviction accounting
    that never drifts or exceeds the byte budget."""

    def test_concurrent_read_hammer(self):
        import threading

        parts = {f"p{i}": make_partition(seed=i) for i in range(12)}
        # Budget fits only ~3 partitions, forcing constant eviction churn.
        dfs = SimulatedDFS(cache_bytes=3 * blob_size(parts["p0"]) + 1)
        for pid, part in parts.items():
            dfs.write_partition_arrays(pid, *part)

        n_threads, reads_each = 8, 300
        errors = []
        barrier = threading.Barrier(n_threads)

        def reader(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(reads_each):
                    pid = f"p{rng.integers(0, len(parts))}"
                    handle = dfs.read_partition(pid)
                    assert handle.record_count == len(parts["p0"].ids)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        total = n_threads * reads_each
        c = dfs.counters
        assert c.partitions_read == total
        # All test partitions share one shape, so bytes read are exact.
        assert c.bytes_read == total * dfs.partition_nbytes("p0")
        # Every read is exactly one hit or one miss.
        assert c.cache_hits + c.cache_misses == total
        assert c.cache_misses >= 1
        # Accounting invariant: used bytes equal the sum of cached
        # partition sizes and respect the budget.
        assert dfs.cache_used_bytes == sum(
            dfs.partition_nbytes(pid) for pid in dfs._cache
        )
        assert dfs.cache_used_bytes <= dfs.cache_bytes

    def test_concurrent_mixed_hit_miss_straggler_hammer(self):
        # Same storm, harder workload: half the partitions are hot (hits),
        # the cache churns on the cold tail (misses + evictions), and a
        # seeded straggler plan injects sleeps on physical opens — sleeps
        # that now happen *outside* the narrow lock, so the hammer also
        # exercises cache probes racing in-flight opens.  Every total must
        # still be arithmetically exact.
        from repro.resilience import FaultPlan

        parts = {f"p{i}": make_partition(seed=i) for i in range(12)}
        plan = FaultPlan(seed=29, straggler_rate=0.5, straggler_delay_s=0.001)
        dfs = SimulatedDFS(cache_bytes=3 * blob_size(parts["p0"]) + 1,
                           fault_plan=plan)
        for pid, part in parts.items():
            dfs.write_partition_arrays(pid, *part)

        n_threads, reads_each = 8, 150
        errors = []
        barrier = threading.Barrier(n_threads)

        def reader(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for i in range(reads_each):
                    # Hot set p0-p2 on even steps, uniform otherwise.
                    if i % 2 == 0:
                        pid = f"p{rng.integers(0, 3)}"
                    else:
                        pid = f"p{rng.integers(0, len(parts))}"
                    handle = dfs.read_partition(pid)
                    assert handle.record_count == len(parts["p0"].ids)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        total = n_threads * reads_each
        c = dfs.counters
        # Exact logical totals, independent of hits, evictions, or the
        # injected straggler sleeps.
        assert c.partitions_read == total
        assert c.bytes_read == total * dfs.partition_nbytes("p0")
        assert c.cache_hits + c.cache_misses == total
        # The workload genuinely mixed hits and misses (hot set is far
        # smaller than the budget; cold tail is far larger).
        assert c.cache_hits > 0
        assert c.cache_misses > len(parts)
        # Stragglers delay but never fail: no retries, no failures.
        assert c.retries == 0
        assert c.read_failures == 0
        assert dfs.cache_used_bytes == sum(
            dfs.partition_nbytes(pid) for pid in dfs._cache
        )
        assert dfs.cache_used_bytes <= dfs.cache_bytes

    def test_duplicate_insert_is_idempotent(self):
        # Regression for the pre-lock accounting: re-inserting an already
        # cached partition must not double-count cache_used_bytes.
        dfs = SimulatedDFS(cache_bytes=1 << 20)
        dfs.write_partition_arrays("a", *make_partition())
        handle = dfs.read_partition("a")
        before = dfs.cache_used_bytes
        dfs._cache_insert("a", handle)
        dfs._cache_insert("a", handle)
        assert dfs.cache_used_bytes == before
