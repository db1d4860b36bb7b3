"""Tests for stored partitions, the simulated DFS, and binary codecs."""

from __future__ import annotations

import io

import numpy as np
import pytest

from conftest import all_records, make_layout
from oracles import layout_from_clusters

from repro.exceptions import PartitionNotFoundError, StorageError
from repro.storage import (
    SimulatedDFS,
    array_from_bytes,
    array_to_bytes,
    encode_partition_v2_arrays,
)
from repro.storage.serialization import read_blob, write_blob


def blob_size(layout) -> int:
    """The partition's one size: the length of its stored blob."""
    return len(encode_partition_v2_arrays("p", *layout))


def stored(layout, pid="p0"):
    """``layout`` written to a fresh in-memory DFS, opened again."""
    dfs = SimulatedDFS()
    dfs.write_partition_arrays(pid, *layout)
    return dfs.read_partition(pid)


class TestSerialization:
    def test_blob_roundtrip(self):
        buf = io.BytesIO()
        write_blob(buf, b"hello")
        write_blob(buf, b"")
        buf.seek(0)
        assert read_blob(buf) == b"hello"
        assert read_blob(buf) == b""

    def test_truncated_blob_raises(self):
        buf = io.BytesIO()
        write_blob(buf, b"hello")
        data = buf.getvalue()[:-2]
        with pytest.raises(StorageError):
            read_blob(io.BytesIO(data))

    def test_array_roundtrip_dtypes(self):
        for dtype in (np.float64, np.int64, np.uint64, np.int32, np.uint16):
            arr = np.arange(12, dtype=dtype).reshape(3, 4)
            out = array_from_bytes(array_to_bytes(arr))
            np.testing.assert_array_equal(out, arr)
            assert out.dtype == arr.dtype

    def test_array_roundtrip_is_writable_copy(self):
        arr = np.zeros((2, 2))
        out = array_from_bytes(array_to_bytes(arr))
        out[0, 0] = 1.0  # must not raise

    def test_rejects_object_dtype(self):
        import json

        from repro.storage.serialization import json_to_bytes

        # Craft a payload claiming an unsupported dtype.
        buf = io.BytesIO()
        write_blob(buf, json.dumps({"dtype": "object", "shape": [1]}).encode())
        write_blob(buf, b"\x00" * 8)
        with pytest.raises(StorageError):
            array_from_bytes(buf.getvalue())


class TestPartitionFile:
    """A partition as stored: written by ``write_partition_arrays``, read
    back by cluster key through ``read_clusters``."""

    def test_cluster_layout_contiguous_and_sorted(self):
        part = stored(make_layout(n_clusters=3, per_cluster=4))
        offsets = [part.header[k][0] for k in sorted(part.header)]
        assert offsets == [0, 4, 8]
        assert part.record_count == 12

    def test_read_cluster_returns_exact_records(self):
        rng = np.random.default_rng(1)
        ids_a = np.array([10, 11])
        vals_a = rng.normal(size=(2, 4))
        ids_b = np.array([20])
        vals_b = rng.normal(size=(1, 4))
        part = stored(layout_from_clusters(
            {"b": (ids_b, vals_b), "a": (ids_a, vals_a)}
        ))
        got_ids, got_vals = part.read_clusters(["a"])
        np.testing.assert_array_equal(got_ids, ids_a)
        np.testing.assert_allclose(got_vals, vals_a)

    def test_read_missing_cluster(self):
        part = stored(make_layout())
        with pytest.raises(StorageError, match="no cluster 'nope'"):
            part.read_clusters(["nope"])

    def test_read_clusters_concatenates(self):
        part = stored(make_layout(n_clusters=3, per_cluster=2))
        ids, vals = part.read_clusters(["g0/0", "g0/2"])
        assert ids.tolist() == [0, 1, 4, 5]
        assert vals.shape == (4, 8)

    def test_read_clusters_empty_keys(self):
        part = stored(make_layout())
        with pytest.raises(StorageError):
            part.read_clusters([])

    def test_read_all(self):
        layout = make_layout(n_clusters=2, per_cluster=3)
        part = stored(layout)
        ids, vals = part.read_clusters(part.cluster_keys())
        np.testing.assert_array_equal(ids, layout.ids)
        np.testing.assert_array_equal(vals, layout.values)

    def test_rejects_empty(self):
        with pytest.raises(StorageError, match="needs >= 1 cluster"):
            stored((np.arange(0), np.zeros((0, 4)), {}))

    def test_rejects_mismatched_lengths(self):
        # The records are one matrix, so every cluster shares one series
        # length; anything but a 2-D matrix is refused.
        with pytest.raises(StorageError, match="shape mismatch"):
            stored((np.array([1, 2]), np.zeros(8), {"a": (0, 2)}))

    def test_rejects_id_value_mismatch(self):
        with pytest.raises(StorageError, match="shape mismatch"):
            stored((np.array([1, 2]), np.zeros((1, 4)), {"a": (0, 2)}))

    def test_nbytes_grows_with_records(self):
        small = make_layout(per_cluster=2)
        big = make_layout(per_cluster=20)
        assert blob_size(big) > blob_size(small)
        assert stored(big).nbytes == blob_size(big)

    def test_cluster_sizes(self):
        part = stored(make_layout(n_clusters=2, per_cluster=3))
        assert {k: count for k, (_, count) in part.header.items()} == {
            "g0/0": 3, "g0/1": 3}


class TestSimulatedDFS:
    def test_write_read_roundtrip(self):
        dfs = SimulatedDFS()
        part = make_layout()
        dfs.write_partition_arrays("alpha", *part)
        out = dfs.read_partition("alpha")
        np.testing.assert_array_equal(all_records(out)[0], part.ids)

    def test_duplicate_write_rejected(self):
        dfs = SimulatedDFS()
        dfs.write_partition_arrays("a", *make_layout())
        with pytest.raises(StorageError):
            dfs.write_partition_arrays("a", *make_layout())

    def test_missing_partition(self):
        dfs = SimulatedDFS()
        with pytest.raises(PartitionNotFoundError):
            dfs.read_partition("ghost")
        with pytest.raises(PartitionNotFoundError):
            dfs.partition_nbytes("ghost")

    def test_counters_track_io(self):
        dfs = SimulatedDFS()
        part = make_layout()
        dfs.write_partition_arrays("a", *part)
        assert dfs.counters.bytes_written == blob_size(part)
        assert dfs.counters.partitions_written == 1
        dfs.read_partition("a")
        dfs.read_partition("a")
        assert dfs.counters.partitions_read == 2
        assert dfs.counters.bytes_read == 2 * blob_size(part)

    def test_counters_snapshot_is_independent(self):
        dfs = SimulatedDFS()
        dfs.write_partition_arrays("a", *make_layout())
        snap = dfs.counters.snapshot()
        dfs.read_partition("a")
        assert snap.partitions_read == 0

    def test_block_records_matches_block_size(self):
        dfs = SimulatedDFS(block_bytes=1024 * 1024)
        c = dfs.block_records(256)
        # 256-point series is 2064 bytes stored.
        assert c == (1024 * 1024) // 2064

    def test_rejects_tiny_block(self):
        with pytest.raises(StorageError):
            SimulatedDFS(block_bytes=10)

    def test_list_and_len(self):
        dfs = SimulatedDFS()
        dfs.write_partition_arrays("b", *make_layout())
        dfs.write_partition_arrays("a", *make_layout())
        assert dfs.list_partitions() == ["a", "b"]
        assert len(dfs) == 2
        assert dfs.has_partition("a")
        assert not dfs.has_partition("c")

    def test_total_bytes(self):
        dfs = SimulatedDFS()
        p1, p2 = make_layout(), make_layout(per_cluster=10)
        dfs.write_partition_arrays("a", *p1)
        dfs.write_partition_arrays("b", *p2)
        assert dfs.total_bytes == blob_size(p1) + blob_size(p2)

    def test_disk_backed_roundtrip(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path)
        part = make_layout(seed=4)
        dfs.write_partition_arrays("onDisk", *part)
        assert [p.name for p in tmp_path.iterdir()] == ["append-000000.seg"]
        out = dfs.read_partition("onDisk")
        np.testing.assert_allclose(all_records(out)[1], part.values)

    def test_disk_backed_does_not_keep_in_memory(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path)
        dfs.write_partition_arrays("x", *make_layout())
        # No handle is held after the write, and a read serves read-only
        # views of the file mapping rather than copies.
        assert dfs.cache_used_bytes == 0
        _, values = all_records(dfs.read_partition("x"))
        assert not values.flags.owndata and not values.flags.writeable
