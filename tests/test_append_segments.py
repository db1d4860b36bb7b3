"""Torn and damaged segments: one write is one file, and says so when hurt.

A build stores its base partitions, and ``ClimberIndex.append`` its delta
partitions, through one ``write_many`` each, which a disk store turns into
one ``append-<seq>.seg`` file (DESIGN.md D6, D18).  The names above the
backend do not change, so what these tests pin is the file level: what a
crash may leave behind, what a damaged segment does to ``attach``, that
damage inside one packed blob stays that blob's problem, how many files a
store holds, and that a directory holding a loose partition file is
refused.
"""

from __future__ import annotations

import dataclasses
import re
import shutil
import sys
import threading

import numpy as np
import pytest
from conftest import SEGMENT_FOOTER, segment_directory, unpack_segment

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.exceptions import (
    PartitionCorruptError,
    PartitionNotFoundError,
    StorageError,
)
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy
from repro.series import SeriesDataset
from repro.storage import (
    LocalDiskBackend,
    MemoryBackend,
    SimulatedDFS,
    StorageEngine,
)
from repro.storage.engine import decode_v2_header

LENGTH = 32
N_BASE = 1200
CFG = ClimberConfig(word_length=8, n_pivots=24, prefix_length=4,
                    capacity=90, sample_fraction=0.3,
                    n_input_partitions=4, seed=6)


def batch(number: int, rows: int = 60) -> SeriesDataset:
    """Append number ``number``: fresh values under fresh ids."""
    values = random_walk_dataset(rows, LENGTH, seed=100 + number).values
    first = 10_000 + 1_000 * number
    return SeriesDataset(values, ids=np.arange(first, first + rows))


def build(store, n_appends: int):
    dfs = SimulatedDFS(backing_dir=store)
    index = ClimberIndex.build(
        random_walk_dataset(N_BASE, LENGTH, seed=31), CFG, dfs=dfs
    )
    for number in range(n_appends):
        index.append(batch(number))
    return index, dfs


def attach(store, **dfs_kwargs) -> SimulatedDFS:
    dfs = SimulatedDFS(backing_dir=store, **dfs_kwargs)
    dfs.attach()
    return dfs


def segments(store) -> list[str]:
    return sorted(p.name for p in store.glob("append-*.seg"))


def flip_byte(path, position: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[position] ^= 0x40
    path.write_bytes(bytes(raw))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A store of base partitions plus three appends, never modified:
    tests that damage files work on a copy."""
    root = tmp_path_factory.mktemp("segments") / "store"
    index, dfs = build(root, n_appends=3)
    blob = index.save_global_index()
    dfs.engine.close()
    return root, blob, index.n_records


@pytest.fixture
def copy(store, tmp_path):
    root, blob, n_records = store
    shutil.copytree(root, tmp_path / "store")
    return tmp_path / "store", blob, n_records


class TestFileCount:
    def test_one_file_per_append(self, tmp_path):
        index, dfs = build(tmp_path, n_appends=0)
        assert len(dfs) > 1
        assert [p.name for p in tmp_path.iterdir()] == ["append-000000.seg"]
        for number in range(4):
            summary = index.append(batch(number))
            assert len(summary["delta_partitions"]) > 1
            assert len(list(tmp_path.iterdir())) == number + 2
        assert segments(tmp_path) == [
            f"append-{seq:06d}.seg" for seq in range(5)
        ]
        # No partition has a file of its own, base or delta.
        assert not list(tmp_path.glob("*.part"))
        assert {name for seg in tmp_path.glob("append-*.seg")
                for name, _, _ in segment_directory(seg)} == {
            dfs.engine.blob_name(pid) for pid in dfs.list_partitions()
        }
        dfs.engine.close()
        assert len(attach(tmp_path)) == len(dfs)

    def test_segments_are_not_partitions_and_not_listed(self, store):
        root, _, _ = store
        backend = LocalDiskBackend(root)
        names = backend.list_names()
        assert not [name for name in names if name.endswith(".seg")]
        packed = [name for seg in root.glob("append-*.seg")
                  for name, _, _ in segment_directory(seg)]
        assert packed and set(packed) <= set(names)
        assert names == sorted(set(names))
        for name in packed:
            assert backend.exists(name)
            assert not (root / name).exists()


class TestTornAppend:
    def test_leftover_tmp_is_ignored_and_the_sequence_stays_gapless(
        self, copy
    ):
        root, blob, n_records = copy
        # What a crash between write and rename of the fourth append (the
        # fifth segment, after the build's) leaves.
        (root / ".append-000004.seg.tmp").write_bytes(b"half an append")
        dfs = attach(root)
        assert not [name for name in dfs.engine.backend.list_names()
                    if name.endswith(".tmp")]
        index = ClimberIndex.reopen(blob, dfs, CFG)
        assert index.n_records == n_records
        before = {base: len(dfs.delta_partitions(base))
                  for base in dfs.list_partitions() if ".d" not in base}
        summary = index.append(batch(3))
        assert segments(root) == [
            f"append-{seq:06d}.seg" for seq in range(5)
        ]
        assert not list(root.glob(".*.tmp"))
        for delta in summary["delta_partitions"]:
            base, _, seq = delta.partition(".d")
            assert int(seq) == before[base]
        dfs.engine.close()
        assert ClimberIndex.reopen(blob, attach(root), CFG).n_records \
            == n_records + 60

    def test_a_refused_batch_writes_nothing(self, copy):
        root, _, _ = copy
        backend = LocalDiskBackend(root)
        base = segment_directory(root / "append-000000.seg")[0][0]
        delta = segment_directory(root / "append-000001.seg")[0][0]
        files = sorted(p.name for p in root.iterdir())
        for clash in (base, delta, "new.part"):
            with pytest.raises(StorageError, match="already stored"):
                backend.write_many([("new.part", b"x"), (clash, b"y")])
        assert sorted(p.name for p in root.iterdir()) == files
        assert not backend.exists("new.part")


    def test_a_duplicate_partition_id_refuses_the_whole_batch(self, copy):
        root, _, _ = copy
        dfs = attach(root)
        taken = next(pid for pid in dfs.list_partitions() if ".d" in pid)
        view = dfs.read_partition(taken)
        payload = dfs.engine.encode_arrays(
            taken, *view.read_clusters(view.cluster_keys()), view.header)
        files = sorted(p.name for p in root.iterdir())
        before = (dfs.list_partitions(), dfs.counters)
        for batch_ids in (["fresh", taken], ["fresh", "fresh"]):
            with pytest.raises(StorageError, match="already exists"):
                dfs.write_encoded_partitions(
                    [(pid, payload) for pid in batch_ids]
                )
        # A payload whose header does not decode refuses the batch too.
        with pytest.raises(StorageError, match="truncated"):
            dfs.write_encoded_partitions(
                [("fresh", payload), ("other", b"never stored")]
            )
        assert sorted(p.name for p in root.iterdir()) == files
        assert (dfs.list_partitions(), dfs.counters) == before
        dfs.engine.close()


class TestTornBuild:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_an_encode_that_raises_midway_leaves_nothing(
        self, tmp_path, monkeypatch, n_workers
    ):
        encode = StorageEngine.encode_arrays
        calls = []

        def failing(engine, partition_id, *args, **kwargs):
            calls.append(partition_id)
            if len(calls) == 5:
                raise RuntimeError("encode failed")
            return encode(engine, partition_id, *args, **kwargs)

        monkeypatch.setattr(StorageEngine, "encode_arrays", failing)
        dfs = SimulatedDFS(backing_dir=tmp_path)
        with pytest.raises(RuntimeError, match="encode failed"):
            ClimberIndex.build(random_walk_dataset(N_BASE, LENGTH, seed=31),
                               dataclasses.replace(CFG, n_workers=n_workers),
                               dfs=dfs)
        # By then a serial build has streamed four payloads into the tmp
        # segment; none of them is visible, on disk or in the DFS.
        assert len(calls) >= 5
        assert list(tmp_path.iterdir()) == []
        assert len(dfs) == 0 and dfs.counters.partitions_written == 0
        dfs.engine.close()
        assert SimulatedDFS(backing_dir=tmp_path).attach() == 0


class TestLooseFilesAreRefused:
    def test_a_store_with_loose_partition_files_is_refused_at_attach(
        self, copy
    ):
        root, _, _ = copy
        # How the commits before DESIGN.md D18 stored the base partitions.
        unpack_segment(root / "append-000000.seg")
        loose = min(p.name for p in root.glob("*.part"))
        dfs = SimulatedDFS(backing_dir=root)
        with pytest.raises(StorageError, match=re.escape(loose)):
            dfs.attach()
        assert len(dfs) == 0
        dfs.engine.close()


class TestDamagedSegment:
    """A segment that cannot be trusted fails the store's construction,
    naming the file — never a store that silently lacks its deltas."""

    def test_truncated_by_one_byte(self, copy):
        root, _, _ = copy
        victim = root / "append-000001.seg"
        victim.write_bytes(victim.read_bytes()[:-1])
        with pytest.raises(StorageError, match="append-000001.seg"):
            SimulatedDFS(backing_dir=root)

    def test_truncated_to_almost_nothing(self, copy):
        root, _, _ = copy
        (root / "append-000002.seg").write_bytes(b"CLMB")
        with pytest.raises(StorageError, match="append-000002.seg"):
            SimulatedDFS(backing_dir=root)

    def test_byte_flipped_inside_the_directory(self, copy):
        root, _, _ = copy
        victim = root / "append-000000.seg"
        raw = victim.read_bytes()
        _, _, _, dir_offset, dir_length = SEGMENT_FOOTER.unpack(
            raw[-SEGMENT_FOOTER.size:]
        )
        flip_byte(victim, dir_offset + dir_length // 2)
        with pytest.raises(PartitionCorruptError, match="append-000000.seg"):
            SimulatedDFS(backing_dir=root)

    @pytest.mark.parametrize("field_offset", [0, 8, 12, 16, 24])
    def test_byte_flipped_inside_the_footer(self, copy, field_offset):
        root, _, _ = copy
        victim = root / "append-000000.seg"
        size = victim.stat().st_size
        flip_byte(victim, size - SEGMENT_FOOTER.size + field_offset)
        with pytest.raises(StorageError, match="append-000000.seg"):
            SimulatedDFS(backing_dir=root)

    def test_a_name_packed_twice(self, copy):
        root, _, _ = copy
        shutil.copy(root / "append-000000.seg", root / "append-000007.seg")
        with pytest.raises(StorageError, match="packed in both"):
            SimulatedDFS(backing_dir=root)

    def test_byte_flipped_inside_one_packed_blob(self, copy):
        root, _, _ = copy
        victim = root / "append-000001.seg"
        directory = segment_directory(victim)
        assert len(directory) > 2
        name, offset, length = directory[1]
        raw = victim.read_bytes()
        header = decode_v2_header(raw[offset:offset + length], length)
        flip_byte(victim, offset + header.values_offset + 11)
        # The directory is intact, so the store attaches; the blob's own
        # checksum catches the damage when — and only when — it is opened.
        # The rot persists, so every attempt fails and the read is counted
        # once as failed; the neighbours in the same file read clean.
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        dfs = attach(root, retry_policy=retry)
        assert dfs.counters.corruption_detected == 0
        suffix = len(dfs.engine.SUFFIX)
        with pytest.raises(PartitionCorruptError, match="values payload"):
            dfs.read_partition(name[:-suffix])
        c = dfs.counters
        assert c.corruption_detected == retry.max_attempts
        assert (c.read_failures, c.partitions_read) == (1, 0)
        for neighbour, _, _ in directory:
            if neighbour != name:
                part = dfs.read_partition(neighbour[:-suffix])
                ids, values = part.read_clusters(part.cluster_keys())
                assert ids.shape[0] == values.shape[0] > 0
        assert dfs.counters.corruption_detected == retry.max_attempts
        assert dfs.counters.read_failures == 1
        dfs.engine.close()


class TestPackedBlobsAreImmutable:
    def test_ranges_are_relative_to_the_blob_and_bounded_by_it(self, copy):
        root, _, _ = copy
        victim = root / "append-000002.seg"
        raw = victim.read_bytes()
        backend = LocalDiskBackend(root)
        for name, offset, length in segment_directory(victim):
            assert offset % 64 == 0
            assert backend.size(name) == length
            assert bytes(backend.read_range(name, 0, length)) \
                == raw[offset:offset + length]
            assert bytes(backend.read_range(name, 7, 9)) \
                == raw[offset + 7:offset + 16]
            # One byte past the blob is the next blob's, not this one's.
            with pytest.raises(StorageError, match="outside object"):
                backend.read_range(name, length - 4, 5)
        with pytest.raises(PartitionNotFoundError):
            backend.size("nothing.part")
        backend.close()


class TestMemoryAndInjectorBatches:
    def test_memory_backend_stores_each_blob_under_its_name(self):
        backend = MemoryBackend()
        backend.write_many([("a.part", b"abc"), ("b.part", b"defg")])
        assert backend.list_names() == ["a.part", "b.part"]
        assert bytes(backend.read_range("b.part", 1, 2)) == b"ef"

    def test_injector_passes_batches_through(self, tmp_path):
        injector = FaultInjector(
            LocalDiskBackend(tmp_path), FaultPlan(seed=1, transient_rate=1.0)
        )
        injector.write_many([("a.part", b"abc"), ("b.part", b"defg")])
        assert [p.name for p in tmp_path.iterdir()] == ["append-000000.seg"]
        assert injector.list_names() == ["a.part", "b.part"]
        assert injector.size("b.part") == 4


class TestConcurrentBatches:
    def test_writers_and_readers_share_one_backend(self, tmp_path):
        """Six writers and two readers on two cores: every batch gets its
        own sequence number and every packed name its own bytes."""
        backend = LocalDiskBackend(tmp_path, max_open_handles=4)
        n_writers, n_batches, n_blobs = 6, 8, 5
        done = threading.Event()
        errors = []

        def name_of(writer, number, i):
            return f"w{writer}.b{number}.{i}.part"

        expected = {
            name_of(writer, number, i): name_of(writer, number, i).encode()
            * (1 + i)
            for writer in range(n_writers) for number in range(n_batches)
            for i in range(n_blobs)
        }

        def write(writer):
            for number in range(n_batches):
                names = [name_of(writer, number, i) for i in range(n_blobs)]
                backend.write_many([(name, expected[name]) for name in names])

        def read():
            while not done.is_set():
                for name in backend.list_names():
                    data = backend.read_range(name, 0, backend.size(name))
                    assert bytes(data) == expected[name], name

        def guarded(fn, *args):
            try:
                fn(*args)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=guarded, args=(write, w))
                   for w in range(n_writers)]
        readers = [threading.Thread(target=guarded, args=(read,))
                   for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            done.set()
        assert not any(thread.is_alive() for thread in writers + readers)
        assert not errors
        assert segments(tmp_path) == [
            f"append-{seq:06d}.seg" for seq in range(n_writers * n_batches)
        ]
        assert backend.list_names() == sorted(expected)
        # And a backend that has only the files sees the same store.
        fresh = LocalDiskBackend(tmp_path)
        assert fresh.list_names() == backend.list_names()
        for name in fresh.list_names()[::7]:
            assert bytes(fresh.read_range(name, 0, fresh.size(name))) \
                == bytes(backend.read_range(name, 0, backend.size(name)))
        backend.close()
        fresh.close()
