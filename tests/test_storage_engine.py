"""Tests for the zero-copy storage engine: the format, backends, engine.

Covers the encode/view round-trip, truncated/corrupt-header error paths,
the zero-copy properties the benchmark relies on, and the store boundary
on hostile bytes (anything that is not a partition is a ``StorageError``).
"""

from __future__ import annotations

import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import all_records, make_layout, rot_blob, stored_blob
from oracles import word_sum_reference

from repro.exceptions import PartitionNotFoundError, StorageError
from repro.resilience import RetryPolicy
from repro.storage import SimulatedDFS
from repro.storage.engine import (
    FORMAT_V2_MAGIC,
    LocalDiskBackend,
    MemoryBackend,
    PartitionV2View,
    StorageBackend,
    StorageEngine,
    decode_v2_header,
    encode_partition_v2_arrays,
)
from repro.storage.engine.format import HEADER_SIZE, PAYLOAD_ALIGNMENT


def memory_view(layout, pid="p0") -> tuple[PartitionV2View, bytes]:
    payload = encode_partition_v2_arrays(pid, *layout)
    backend = MemoryBackend()
    backend.write_many([("x", payload)])
    view = PartitionV2View(
        lambda off, length: backend.read_range("x", off, length),
        physical_size=len(payload),
    )
    return view, payload


def encode(pid="p0", **kw) -> bytes:
    return encode_partition_v2_arrays(pid, *make_layout(**kw))


class TestFormatV2:
    def test_roundtrip_preserves_everything(self):
        part = make_layout(seed=3)
        view, _ = memory_view(part, "p7")
        assert view.partition_id == "p7"
        assert view.header == part.header
        assert view.record_count == len(part.ids)
        assert view.series_length == part.values.shape[1]
        ids, values = all_records(view)
        np.testing.assert_array_equal(ids, part.ids)
        np.testing.assert_array_equal(values, part.values)

    def test_nbytes_is_blob_size(self):
        part = make_layout(n_clusters=4, per_cluster=7, seed=1)
        view, payload = memory_view(part)
        assert view.nbytes == len(payload) == view.v2_header.total_size

    def test_payloads_are_64_byte_aligned(self):
        _, payload = memory_view(make_layout())
        header = decode_v2_header(payload)
        assert header.ids_offset % PAYLOAD_ALIGNMENT == 0
        assert header.values_offset % PAYLOAD_ALIGNMENT == 0

    def test_cluster_reads_match_v1(self):
        part = make_layout(n_clusters=4, per_cluster=3, seed=5)
        view, _ = memory_view(part)
        for key in part.header:
            vid, vval = view.read_clusters([key])
            eid, evals = part.records([key])
            np.testing.assert_array_equal(vid, eid)
            np.testing.assert_array_equal(vval, evals)
        keys = list(part.header)[::2]
        vid, vval = view.read_clusters(keys)
        eid, evals = part.records(keys)
        np.testing.assert_array_equal(vid, eid)
        np.testing.assert_array_equal(vval, evals)

    def test_reads_are_zero_copy_views(self):
        payload = encode()
        backend = MemoryBackend()
        backend.write_many([("x", payload)])
        view = PartitionV2View(
            lambda off, length: backend.read_range("x", off, length)
        )
        ids, values = all_records(view)
        raw = np.frombuffer(backend._blobs["x"], dtype=np.uint8)
        assert np.shares_memory(ids, raw)
        assert np.shares_memory(values, raw)
        assert not values.flags.writeable

    def test_adjacent_clusters_coalesce_into_one_view(self):
        part = make_layout(n_clusters=3, per_cluster=4)
        view, _ = memory_view(part)
        ids, values = view.read_clusters(view.cluster_keys())
        # All three clusters are contiguous -> a single mapped run, so the
        # result is still a view into the backing buffer (no concatenate).
        assert not values.flags.writeable
        np.testing.assert_array_equal(ids, part.ids)

    def test_missing_cluster_raises(self):
        view, _ = memory_view(make_layout())
        with pytest.raises(StorageError, match="no cluster 'nope'"):
            view.read_clusters(["nope"])
        with pytest.raises(StorageError, match="no cluster 'nope'"):
            view.read_clusters(["g0/0", "nope"])

    def test_empty_read_clusters_raises(self):
        view, _ = memory_view(make_layout())
        with pytest.raises(StorageError):
            view.read_clusters([])


class TestFormatV2Corruption:
    def _reader(self, payload: bytes):
        backend = MemoryBackend()
        backend.write_many([("x", payload)])
        return lambda off, length: backend.read_range("x", off, length)

    def test_truncated_header(self):
        payload = encode()
        with pytest.raises(StorageError, match="truncated"):
            decode_v2_header(payload[:HEADER_SIZE - 1])

    def test_bad_magic(self):
        payload = bytearray(encode())
        payload[:8] = b"NOTMAGIC"
        with pytest.raises(StorageError, match="magic"):
            decode_v2_header(bytes(payload))

    def test_unsupported_version(self):
        payload = bytearray(encode())
        struct.pack_into("<I", payload, 8, 99)
        with pytest.raises(StorageError, match="version"):
            decode_v2_header(bytes(payload))

    def test_physical_size_mismatch(self):
        payload = encode()
        with pytest.raises(StorageError, match="truncated"):
            decode_v2_header(payload, physical_size=len(payload) - 10)

    def test_inconsistent_offsets(self):
        payload = bytearray(encode())
        # values_offset field sits after magic(8)+ver(4)+flags(4)+5 Q fields.
        struct.pack_into("<Q", payload, 16 + 5 * 8, 24)  # unaligned + inside dir
        with pytest.raises(StorageError, match="inconsistent"):
            decode_v2_header(bytes(payload))

    def test_directory_range_outside_payload(self):
        payload = bytearray(encode(n_clusters=2, per_cluster=4))
        header = decode_v2_header(bytes(payload))
        # Corrupt the first directory count to exceed n_records.
        struct.pack_into("<q", payload, header.dir_offset + 8 * 2, 10_000)
        with pytest.raises(StorageError, match="directory"):
            PartitionV2View(self._reader(bytes(payload)))

    def test_key_count_mismatch(self):
        payload = bytearray(encode(n_clusters=2))
        struct.pack_into("<Q", payload, 16, 3)  # claim 3 clusters, meta has 2
        # Directory offsets stay consistent only if the sizes still line up,
        # so widen via a fresh consistency failure or a key-count error.
        with pytest.raises(StorageError):
            PartitionV2View(self._reader(bytes(payload)))

    @pytest.mark.parametrize("keys", [b"7       ", b'[["g0"]]', b"null    "])
    def test_meta_keys_must_be_a_list_of_strings(self, keys):
        # The meta checksum is re-stamped over the rewritten blob, so the
        # checksum passes and the JSON-shape checks behind it must refuse.
        payload = encode(n_clusters=1)
        assert payload.count(b'["g0/0"]') == 1 and len(keys) == 8
        tampered = bytearray(payload.replace(b'["g0/0"]', keys))
        header = decode_v2_header(payload)
        meta = tampered[header.header_size:
                        header.header_size + header.meta_size]
        struct.pack_into("<Q", tampered, HEADER_SIZE,
                         word_sum_reference(bytes(meta)))
        with pytest.raises(StorageError, match="malformed meta blob"):
            PartitionV2View(self._reader(bytes(tampered)))

    def test_truncated_payload_detected_via_backend_bounds(self):
        payload = encode()
        backend = MemoryBackend()
        backend.write_many([("x", payload[:-16])])
        with pytest.raises(StorageError):
            PartitionV2View(
                lambda off, length: backend.read_range("x", off, length),
                physical_size=len(payload) - 16,
            )


class TestBackends:
    @pytest.mark.parametrize("kind", ["memory", "disk"])
    def test_write_read_size(self, kind, tmp_path):
        backend = MemoryBackend() if kind == "memory" else LocalDiskBackend(tmp_path)
        assert isinstance(backend, StorageBackend)
        backend.write_many([("a.part", b"0123456789")])
        assert backend.exists("a.part")
        assert backend.size("a.part") == 10
        assert bytes(backend.read_range("a.part", 2, 4)) == b"2345"
        assert backend.list_names() == ["a.part"]
        assert not backend.exists("b.part")
        with pytest.raises(PartitionNotFoundError):
            backend.size("b.part")
        # A stored blob is never rewritten, and an empty batch stores
        # nothing at all.
        with pytest.raises(StorageError, match="already stored"):
            backend.write_many([("a.part", b"other")])
        backend.write_many(iter(()))
        assert backend.list_names() == ["a.part"]
        assert bytes(backend.read_range("a.part", 0, 10)) == b"0123456789"
        if kind == "disk":
            assert [p.name for p in tmp_path.iterdir()] == ["append-000000.seg"]
            backend.close()

    @pytest.mark.parametrize("kind", ["memory", "disk"])
    def test_out_of_range_read_raises(self, kind, tmp_path):
        backend = MemoryBackend() if kind == "memory" else LocalDiskBackend(tmp_path)
        backend.write_many([("a.part", b"0123")])
        with pytest.raises(StorageError):
            backend.read_range("a.part", 0, 5)
        with pytest.raises(StorageError):
            backend.read_range("a.part", -1, 2)
        with pytest.raises(PartitionNotFoundError):
            backend.read_range("ghost", 0, 1)

    def test_disk_read_is_mmap_backed_zero_copy(self, tmp_path):
        backend = LocalDiskBackend(tmp_path)
        backend.write_many([("a.part", b"x" * 256), ("b.part", b"y" * 64)])
        first = backend.read_range("a.part", 0, 256)
        second = backend.read_range("a.part", 10, 20)
        other = backend.read_range("b.part", 0, 64)
        # One segment, one mapping: every blob of the batch is a view of it.
        assert np.shares_memory(
            np.frombuffer(first, dtype=np.uint8),
            np.frombuffer(second, dtype=np.uint8),
        )
        assert len(backend._maps) == 1
        del first, second, other
        backend.close()

    def test_disk_handle_cache_is_bounded(self, tmp_path):
        backend = LocalDiskBackend(tmp_path, max_open_handles=4)
        for i in range(10):
            backend.write_many([(f"p{i}.part", bytes(64))])
        for i in range(10):
            backend.read_range(f"p{i}.part", 0, 8)
        assert len(backend._maps) <= 4
        # Evicted blobs remain readable (handles reopen on demand).
        assert backend.read_range("p0.part", 0, 8) is not None
        backend.close()

    def test_disk_handle_cap_validated(self, tmp_path):
        with pytest.raises(StorageError):
            LocalDiskBackend(tmp_path, max_open_handles=0)

    def test_disk_eviction_keeps_live_views_valid(self, tmp_path):
        backend = LocalDiskBackend(tmp_path, max_open_handles=1)
        backend.write_many([("a.part", b"old" * 100)])
        backend.write_many([("b.part", b"new" * 100)])
        live = np.frombuffer(backend.read_range("a.part", 0, 300),
                             dtype=np.uint8)
        # Mapping b's segment evicts a's handle while a view of it lives:
        # the mapping cannot close, and the view keeps serving its bytes.
        assert bytes(backend.read_range("b.part", 0, 3)) == b"new"
        assert len(backend._maps) == 1
        assert live[:3].tobytes() == b"old"
        assert bytes(backend.read_range("a.part", 297, 3)) == b"old"
        del live
        backend.close()


class TestStorageEngine:
    def test_write_open_roundtrip(self, tmp_path):
        engine = StorageEngine(LocalDiskBackend(tmp_path))
        part = make_layout(seed=2)
        payload = encode_partition_v2_arrays("alpha", *part)
        engine.write_payloads(iter([("alpha", payload)]))
        handle = engine.open_partition("alpha")
        ids, values = all_records(handle)
        np.testing.assert_array_equal(ids, part.ids)
        np.testing.assert_array_equal(values, part.values)
        assert handle.nbytes == len(payload)
        assert engine.list_partitions() == ["alpha"]
        assert engine.has_partition("alpha")
        engine.close()

    def test_partition_meta_without_payload(self):
        engine = StorageEngine(MemoryBackend())
        payload = encode("p", n_clusters=2, per_cluster=6, length=12)
        engine.write_payloads([("p", payload)])
        meta = engine.partition_meta("p")
        assert meta.nbytes == len(payload)
        assert meta.record_count == 12
        assert meta.series_length == 12

    def test_missing_partition(self):
        engine = StorageEngine(MemoryBackend())
        for fn in (engine.open_partition, engine.partition_meta):
            with pytest.raises(PartitionNotFoundError):
                fn("ghost")


class TestDfsEngineFacade:
    def test_series_length_metadata(self):
        dfs = SimulatedDFS()
        dfs.write_partition_arrays("a", *make_layout(length=24))
        assert dfs.series_length("a") == 24
        with pytest.raises(PartitionNotFoundError):
            dfs.series_length("ghost")

    def test_attach_mixed_format_directory(self, tmp_path):
        """A directory that holds one header-version-2 partition (no
        checksum block) beside current ones does not attach."""
        dfs = SimulatedDFS(backing_dir=tmp_path)
        for pid, seed in (("plain", 1), ("checked", 2)):
            dfs.write_partition_arrays(pid, *make_layout(seed=seed))
        dfs.engine.close()
        segment, offset, _ = stored_blob(tmp_path, "plain.part")
        raw = bytearray(segment.read_bytes())
        struct.pack_into("<I", raw, offset + 8, 2)  # the version field
        segment.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="version 2"):
            SimulatedDFS(backing_dir=tmp_path).attach()

    def test_cluster_range_read_counts_one_logical_touch(self):
        dfs = SimulatedDFS()
        part = make_layout(n_clusters=3, per_cluster=4)
        dfs.write_partition_arrays("a", *part)
        ids, values = dfs.read_partition("a").read_clusters(["g0/1"])
        np.testing.assert_array_equal(ids, part.ids[4:8])
        np.testing.assert_array_equal(values, part.values[4:8])
        assert dfs.counters.partitions_read == 1
        assert dfs.counters.bytes_read == len(
            encode_partition_v2_arrays("a", *part))

    def test_counters_charge_stored_size(self, tmp_path):
        dfs = SimulatedDFS(backing_dir=tmp_path)
        dfs.write_partition_arrays("a", *make_layout(seed=3))
        dfs.read_partition("a")
        _, _, stored = stored_blob(tmp_path, "a.part")
        assert dfs.counters.bytes_written == stored
        assert dfs.counters.bytes_read == stored
        assert dfs.counters.partitions_read == 1


class TestHostileBytes:
    """Bytes that are not a partition are a ``StorageError`` at every way
    into the store, and nothing else — not a ``JSONDecodeError``, not a
    ``struct.error``, not a NumPy reshape failure."""

    @settings(max_examples=60, deadline=None)
    @given(junk=st.binary(max_size=256).filter(
        lambda b: not b.startswith(FORMAT_V2_MAGIC)
    ))
    # A length-prefixed blob stream, as the retired encoding began: eight
    # bytes of little-endian length, then that many bytes that are not JSON.
    @example(junk=struct.pack("<Q", 10) + b"not json!!" + bytes(110))
    def test_only_storage_errors_escape(self, junk):
        with tempfile.TemporaryDirectory() as root:
            disk = LocalDiskBackend(root)
            for backend in (MemoryBackend(), disk):
                backend.write_many([("junk.part", junk)])
                engine = StorageEngine(backend)
                with pytest.raises(StorageError):
                    engine.partition_meta("junk")
                with pytest.raises(StorageError):
                    engine.open_partition("junk")
            disk.close()
            with pytest.raises(StorageError):
                SimulatedDFS(backing_dir=root).attach()

        # A registered partition whose blob rots into junk afterwards: the
        # read fails for good and is counted as one failed logical read.
        dfs = SimulatedDFS(
            retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        )
        dfs.write_partition_arrays("p", *make_layout())
        rot_blob(dfs.engine.backend, "p.part", junk)
        with pytest.raises(StorageError):
            dfs.read_partition("p")
        assert dfs.counters.read_failures == 1
        assert dfs.counters.partitions_read == 0


class TestWriteArraysValidation:
    def test_v2_rejects_directory_outside_payload(self):
        """The bulk array writer validates cluster ranges at encode time."""
        ids = np.arange(4, dtype=np.int64)
        values = np.zeros((4, 8))
        with pytest.raises(StorageError):
            encode_partition_v2_arrays("p", ids, values, {"G0": (0, 9)})
        with pytest.raises(StorageError):
            encode_partition_v2_arrays("p", ids, values, {"G0": (-1, 2)})
        with pytest.raises(StorageError):
            encode_partition_v2_arrays("p", ids, values, {})
        with pytest.raises(StorageError):
            encode_partition_v2_arrays(
                "p", ids, values, {"G0": (0, 2)}, rows=np.array([0, 9])
            )
        # A valid directory over gathered rows still round-trips, rows of
        # any integer width.
        for rows in (np.array([2, 0]), np.array([2, 0], dtype=np.uint8), [2, 0]):
            payload = encode_partition_v2_arrays(
                "p", ids, values, {"G0": (0, 2)}, rows=rows
            )
            view = PartitionV2View(
                lambda off, ln: memoryview(payload)[off:off + ln]
            )
            got_ids, _ = view.read_clusters(["G0"])
            assert got_ids.tolist() == [2, 0]

    @pytest.mark.parametrize("header", [
        {1: (0, 2), 2: (2, 2)},
        {"a": (0, 2), 2: (2, 2)},
        {b"a": (0, 4)},
    ])
    def test_cluster_keys_must_be_strings(self, header):
        """A key the reader would refuse as a malformed meta blob is the
        writer's error: nothing is stored and no corruption is counted."""
        dfs = SimulatedDFS()
        with pytest.raises(StorageError, match="is not a string"):
            dfs.write_partition_arrays("p", np.arange(4), np.zeros((4, 8)),
                                       header)
        assert dfs.list_partitions() == []
        assert dfs.engine.backend.list_names() == []
        assert dfs.counters == SimulatedDFS().counters

    @pytest.mark.parametrize("rows", [
        np.array([True, False]),
        np.array([True, False, True, False]),
        np.array([2.9, 0.5]),
        [2.0, 0.0],
        np.array(["2", "0"]),
    ])
    def test_rows_must_be_integers(self, rows):
        """A boolean mask or float rows are refused, never cast to the
        integer rows they do not name."""
        dfs = SimulatedDFS()
        ids = np.array([0, 10, 20, 30])
        with pytest.raises(StorageError, match="must be integers"):
            dfs.write_partition_arrays("p", ids, np.zeros((4, 8)),
                                       {"a": (0, 2)}, rows=rows)
        assert dfs.list_partitions() == []
        assert dfs.counters == SimulatedDFS().counters
