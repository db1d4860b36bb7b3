"""Guards on the cache-off partition read path.

Three properties the one-pass read must keep and that nothing else pins:

* **verification is per open, never remembered** — every checksum runs over
  the bytes of *this* open, so a byte that rots between two reads of the
  same name (same inode, same size, same mtime granularity) is caught by
  the second, inside the retry loop;
* **the call budget** — a cache-off open costs one ``size`` and one
  backend range read, and its first cluster read none;
* **the aliasing contract** — a lone run reaches the refine kernel as the
  mapped buffer itself, while the answer a caller keeps owns its memory
  and outlives the mapping.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest
from conftest import make_layout, stored_blob

import repro.core.index as index_module
from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.exceptions import PartitionCorruptError
from repro.resilience import FaultPlan, RetryPolicy
from repro.storage import SimulatedDFS, encode_partition_v2_arrays
from repro.storage.engine import decode_v2_header

LENGTH = 16
PER_CLUSTER = 40


def make_partition(n_clusters=3, seed=0):
    return make_layout(n_clusters, PER_CLUSTER, LENGTH, seed)


def read_everything(dfs, pid="p0"):
    part = dfs.read_partition(pid)
    return part.read_clusters(part.cluster_keys())


class CountingBackend:
    """A ``StorageBackend`` that counts the calls it forwards."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls: Counter[str] = Counter()

    def read_range(self, name, offset, length):
        self.calls["read_range"] += 1
        return self.inner.read_range(name, offset, length)

    def size(self, name):
        self.calls["size"] += 1
        return self.inner.size(name)

    def exists(self, name):
        self.calls["exists"] += 1
        return self.inner.exists(name)

    def write_many(self, blobs):
        self.inner.write_many(blobs)

    def list_names(self):
        return self.inner.list_names()

    def close(self):
        self.inner.close()


class TestVerificationIsPerOpen:
    def test_byte_flipped_on_disk_between_reads_is_caught(self, tmp_path):
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=0,
                           retry_policy=retry)
        part = make_partition()
        dfs.write_partition_arrays("p0", *part)
        ids, values = read_everything(dfs)
        np.testing.assert_array_equal(values, part.values)
        del ids, values
        path, offset, length = stored_blob(tmp_path, dfs.engine.blob_name("p0"))
        header = decode_v2_header(path.read_bytes()[offset:offset + length])
        # Same file, same inode, same size: one payload byte changes in
        # place, under the backend's still-open mapping.
        with path.open("r+b") as fh:
            fh.seek(offset + header.values_offset + 5 * LENGTH * 8 + 3)
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes([byte[0] ^ 0x10]))
        # Rot that persists fails every attempt at open, each counted as
        # detected corruption, and then the read once as failed.
        with pytest.raises(PartitionCorruptError, match="values payload"):
            read_everything(dfs)
        c = dfs.counters
        assert c.corruption_detected == retry.max_attempts
        assert c.retries == retry.max_attempts - 1
        assert c.read_failures == 1
        assert c.partitions_read == 1  # only the clean first read
        dfs.engine.close()

    def test_bit_flipped_on_the_second_attempt_only_is_caught(self, tmp_path):
        clean = FaultPlan(seed=0)
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=0,
                           fault_plan=clean)
        part = make_partition()
        dfs.write_partition_arrays("p0", *part)
        name = dfs.engine.blob_name("p0")
        size = dfs.partition_nbytes("p0")
        values_offset = decode_v2_header(
            dfs.engine.backend.read_range(name, 0, size)
        ).values_offset
        read_everything(dfs)  # attempt 0: clean, verified, served
        assert dfs.counters.corruption_detected == 0
        # Attempt 1 of the same blob reads one bit flipped in the values
        # section and attempt 2 reads clean; the seed is the first that
        # schedules exactly that.
        flipping = next(
            plan for plan in (
                FaultPlan(seed=s, bit_flip_rate=0.5) for s in range(256)
            )
            if plan.decide(name, 1, size).flip_byte >= values_offset
            and plan.decide(name, 2, size).flip_byte < 0
        )
        dfs.fault_injector.plan = flipping
        ids, values = read_everything(dfs)
        np.testing.assert_array_equal(ids, part.ids)
        np.testing.assert_array_equal(values, part.values)
        assert dfs.fault_injector.attempts(name) == 3
        c = dfs.counters
        assert (c.corruption_detected, c.retries, c.read_failures) == (1, 1, 0)
        assert c.partitions_read == 2
        del ids, values
        dfs.engine.close()


class TestCallBudget:
    def test_open_and_single_run_read(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=0)
        part = make_partition()
        dfs.write_partition_arrays("p0", *part)
        backend = CountingBackend(dfs.engine.backend)
        dfs.engine.backend = backend
        view = dfs.read_partition("p0")
        # The open maps the whole blob in one read and checks all five
        # checksums over it; the first read is served from that mapping.
        assert backend.calls == {"size": 1, "read_range": 1}
        ids, values = view.read_clusters(view.cluster_keys())
        assert backend.calls == {"size": 1, "read_range": 1}
        np.testing.assert_array_equal(ids, part.ids)
        np.testing.assert_array_equal(values, part.values)
        # A later read maps the blob again, with one more read.
        view.read_clusters(view.cluster_keys()[:1])
        assert backend.calls == {"size": 1, "read_range": 2}
        # The open mapped and checked the whole blob, and the read is
        # charged exactly that: the partition's one size.
        size = len(encode_partition_v2_arrays("p0", *part))
        assert view.nbytes == dfs.partition_nbytes("p0") == size
        assert dfs.counters.bytes_read == size
        del ids, values
        dfs.engine.close()

    def test_a_packed_partition_costs_the_same_calls(self, tmp_path):
        # Stored the way an append stores its deltas: one batch, one file.
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=0)
        parts = {"other": make_partition(seed=1), "p0": make_partition()}
        dfs.write_encoded_partitions([
            (pid, encode_partition_v2_arrays(pid, *part))
            for pid, part in parts.items()
        ])
        assert [p.name for p in tmp_path.iterdir()] == ["append-000000.seg"]
        backend = CountingBackend(dfs.engine.backend)
        dfs.engine.backend = backend
        view = dfs.read_partition("p0")
        ids, values = view.read_clusters(view.cluster_keys())
        assert backend.calls == {"size": 1, "read_range": 1}
        np.testing.assert_array_equal(ids, parts["p0"].ids)
        np.testing.assert_array_equal(values, parts["p0"].values)
        assert values.ctypes.data % 64 == 0  # aligned in the segment too
        del ids, values
        dfs.engine.close()

    def test_runs_of_one_read_share_one_mapping(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=0)
        part = make_partition(n_clusters=5)
        dfs.write_partition_arrays("p0", *part)
        backend = CountingBackend(dfs.engine.backend)
        dfs.engine.backend = backend
        view = dfs.read_partition("p0")
        keys = view.cluster_keys()[::2]  # three separate runs
        ids, values = view.read_clusters(keys)
        assert backend.calls == {"size": 1, "read_range": 1}
        want_ids, want_values = part.records(keys)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(values, want_values)
        dfs.engine.close()

    def test_attach_and_partition_meta(self, tmp_path):
        writer = SimulatedDFS(backing_dir=tmp_path)
        parts = {f"p{i}": make_partition(seed=i) for i in range(4)}
        for pid, part in parts.items():
            writer.write_partition_arrays(pid, *part)
        writer.engine.close()
        fresh = SimulatedDFS(backing_dir=tmp_path)
        backend = CountingBackend(fresh.engine.backend)
        fresh.engine.backend = backend
        assert fresh.attach() == len(parts)
        assert backend.calls == {"size": len(parts), "read_range": len(parts)}
        sizes = [len(encode_partition_v2_arrays(pid, *part))
                 for pid, part in parts.items()]
        for pid, size in zip(parts, sizes):
            assert fresh.partition_nbytes(pid) == size
        backend.calls.clear()
        meta = fresh.engine.partition_meta("p2")
        assert backend.calls == {"size": 1, "read_range": 1}
        assert meta.nbytes == sizes[2]
        fresh.engine.close()


class TestAliasing:
    @pytest.fixture()
    def disk_index(self, tmp_path):
        ds = random_walk_dataset(800, 32, seed=9)
        cfg = ClimberConfig(word_length=8, n_pivots=24, prefix_length=4,
                            capacity=80, sample_fraction=0.3,
                            n_input_partitions=4, seed=4)
        dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=0)
        return ds, ClimberIndex.build(ds, cfg, dfs=dfs)

    def test_lone_run_is_refined_in_place_and_answers_own_their_memory(
        self, disk_index, monkeypatch
    ):
        ds, index = disk_index
        dfs = index.dfs
        seen = []
        scoring = index_module.block_scores

        def spy(block, neg2q, norms):
            seen.append((block, norms))
            return scoring(block, neg2q, norms)

        monkeypatch.setattr(index_module, "block_scores", spy)
        in_place = 0
        results = []
        for query in ds.values[:40]:
            seen.clear()
            result = index.knn(query, 5)
            results.append(result)
            if len(result.stats.partitions_loaded) != 1 or len(seen) != 1:
                continue
            data, norms = seen[0]
            name = dfs.engine.blob_name(result.stats.partitions_loaded[0])
            blob = np.frombuffer(
                dfs.engine.backend.read_range(
                    name, 0, dfs.engine.backend.size(name)
                ),
                dtype=np.uint8,
            )
            if np.shares_memory(data, blob):
                in_place += 1
                # The stored norms are scored where they lie, too.
                assert np.shares_memory(norms, blob)
                assert not data.flags.writeable
                assert not norms.flags.writeable
                assert not np.shares_memory(result.ids, blob)
                assert not np.shares_memory(result.distances, blob)
            del data, norms, blob
        # Single-partition, single-run walks are the common case here; the
        # kernel must have seen the mapping itself in them, not a copy.
        assert in_place >= 10
        seen.clear()
        gc.collect()
        dfs.engine.close()
        for result in results:
            assert result.ids.flags.owndata
            assert result.distances.flags.owndata
            assert result.ids[0] >= 0 and np.isfinite(result.distances).all()
