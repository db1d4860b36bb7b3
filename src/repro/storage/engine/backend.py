"""Pluggable byte-range storage backends.

A :class:`StorageBackend` stores immutable named blobs and serves arbitrary
byte ranges from them.  The contract is deliberately tiny — one batch
write, ``write_many``, then ``read_range``, ``size``, ``exists`` and
``list_names`` — so a partition format that knows its own offsets can be
served zero-copy from any medium:

* :class:`MemoryBackend` — blobs in a dict; ranges are memoryviews over
  the stored bytes.
* :class:`LocalDiskBackend` — one *segment* file per ``write_many`` under
  a root directory, and no other file; ranges are memoryviews over
  lazily-opened read-only ``mmap`` handles of the segments, so the OS
  pages in only the bytes actually touched.

Every write is a batch, stored whole or not at all, and every blob is
read, sized and listed under the name it was written with; where its
bytes sit is the backend's business alone (DESIGN.md D6, D18).

Every ``read_range`` is bounds-checked: a request past the end of the blob
raises :class:`StorageError` rather than silently returning a short view,
which is what turns a corrupt partition directory into a clean error.
"""

from __future__ import annotations

import mmap
import os
import re
import struct
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.exceptions import (
    PartitionCorruptError,
    PartitionNotFoundError,
    StorageError,
)
from repro.storage.serialization import json_from_bytes, json_to_bytes

__all__ = ["StorageBackend", "MemoryBackend", "LocalDiskBackend"]


@runtime_checkable
class StorageBackend(Protocol):
    """Byte-range object store: named immutable blobs, sliceable reads."""

    def write_many(self, blobs: Iterable[tuple[str, bytes]]) -> None:
        """Store a batch of ``(name, data)`` blobs, all of them or none.

        Every name must be new.  The batch may be a generator: each blob
        is stored as it arrives, and one that raises, or a name that is
        taken, leaves nothing of the batch behind.  Each blob is
        afterwards read, sized and listed under its own name; how many
        files the batch became is the backend's business."""

    def read_range(self, name: str, offset: int, length: int) -> memoryview:
        """A zero-copy view of ``length`` bytes starting at ``offset``."""

    def size(self, name: str) -> int:
        """Stored size of one blob in bytes."""

    def exists(self, name: str) -> bool:
        """Whether ``name`` is stored."""

    def list_names(self) -> list[str]:
        """All stored blob names, sorted."""

    def close(self) -> None:
        """Release any OS handles (open mmaps); blobs stay stored."""


def _check_range(name: str, offset: int, length: int, total: int) -> None:
    if offset < 0 or length < 0:
        raise StorageError(
            f"negative range ({offset}, {length}) for object {name!r}"
        )
    if offset + length > total:
        raise StorageError(
            f"range [{offset}, {offset + length}) outside object {name!r} "
            f"({total} bytes)"
        )


class MemoryBackend:
    """In-process blob store; ranges are views over the stored bytes."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def write_many(self, blobs: Iterable[tuple[str, bytes]]) -> None:
        batch: dict[str, bytes] = {}
        for name, data in blobs:
            if name in batch or name in self._blobs:
                raise StorageError(f"object {name!r} is already stored")
            batch[name] = bytes(data)
        self._blobs.update(batch)

    def _blob(self, name: str) -> bytes:
        blob = self._blobs.get(name)
        if blob is None:
            raise PartitionNotFoundError(f"no stored object {name!r}")
        return blob

    def read_range(self, name: str, offset: int, length: int) -> memoryview:
        blob = self._blob(name)
        _check_range(name, offset, length, len(blob))
        return memoryview(blob)[offset:offset + length]

    def size(self, name: str) -> int:
        return len(self._blob(name))

    def exists(self, name: str) -> bool:
        return name in self._blobs

    def list_names(self) -> list[str]:
        return sorted(self._blobs)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._blobs)


# A segment is the one file a ``write_many`` batch becomes: the blobs at
# 64-byte-aligned offsets (so the aligned payload sections of a packed
# partition stay aligned in the mapping), then a JSON directory of
# ``[name, offset, length]`` rows, then this fixed-size footer.  A reader
# starts from the last bytes of the file, so a truncated segment has no
# footer where one must be and cannot parse.
_SEGMENT_NAME = re.compile(r"append-(\d{6,})\.seg")
_SEGMENT_MAGIC = b"CLMBSEG1"
_SEGMENT_VERSION = 1
_SEGMENT_ALIGNMENT = 64
# magic, version, directory CRC32, directory offset, directory length
_SEGMENT_FOOTER = struct.Struct("<8sIIQQ")


def _read_segment_directory(path: Path) -> list[tuple[str, int, int]]:
    """The checked directory of one stored segment.

    Reads the footer and the directory only, never a blob: what a blob
    holds is verified by whoever opens it (the partition format's own
    per-section CRCs), on every open.
    """
    with path.open("rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size < _SEGMENT_FOOTER.size:
            raise StorageError(
                f"truncated segment {path.name!r}: {size} bytes hold no footer"
            )
        fh.seek(size - _SEGMENT_FOOTER.size)
        magic, version, crc, dir_offset, dir_length = _SEGMENT_FOOTER.unpack(
            fh.read(_SEGMENT_FOOTER.size)
        )
        if (
            magic != _SEGMENT_MAGIC
            or version != _SEGMENT_VERSION
            or dir_offset + dir_length + _SEGMENT_FOOTER.size != size
        ):
            raise StorageError(
                f"segment {path.name!r} does not end in a valid footer "
                f"(truncated, or not a segment)"
            )
        fh.seek(dir_offset)
        table = fh.read(dir_length)
    if zlib.crc32(table) != crc:
        raise PartitionCorruptError(
            f"corrupt segment {path.name!r}: directory checksum mismatch"
        )
    try:
        directory = [tuple(row) for row in json_from_bytes(table)]
        well_formed = all(
            isinstance(name, str)
            and isinstance(offset, int) and isinstance(length, int)
            and 0 <= offset and 0 <= length and offset + length <= dir_offset
            for name, offset, length in directory
        )
    except (ValueError, TypeError):
        well_formed = False
    if not well_formed:
        raise StorageError(
            f"corrupt segment {path.name!r}: malformed directory"
        )
    return directory


class LocalDiskBackend:
    """Segment files under ``root``, read through cached mmap handles.

    A ``write_many`` makes one *segment* file ``append-<seq>.seg`` holding
    the whole batch (see ``_SEGMENT_FOOTER``): each blob is streamed into
    a dot-named tmp file as it arrives, the directory and footer follow,
    and one ``os.replace`` makes it visible, so a crash — or a blob that
    raises on its way in — leaves all of the batch or none of it.  From
    then on each name resolves through an in-memory ``name -> (segment,
    offset, length)`` map, loaded — every directory CRC-checked — when a
    backend is constructed over an existing directory.  Segments are the
    only files a store holds: they are never listed as blobs, and
    ``list_names`` refuses a directory holding any other file (a loose
    ``<pid>.part``, say, which stores written before DESIGN.md D18 held),
    naming the file.  Blobs are immutable: nothing rewrites or removes
    one.

    Handles are opened lazily on the first range read of a segment, reused
    LRU-style, and capped at ``max_open_handles`` so a store with many
    segments cannot exhaust the process file-descriptor limit.  A handle
    whose buffer is still referenced by live NumPy views cannot be closed
    (CPython refuses while exports exist); such handles are dropped from
    the cache and reclaimed when the last view dies.

    The handle LRU and the name map are guarded by an internal lock: the
    DFS read path opens partitions concurrently (its own lock covers only
    bookkeeping), and a cached view re-maps its payload on every read
    after its first, long after the open, so the map mutations here must
    be safe under concurrent readers.  Views are sliced while the lock is
    held, so an eviction racing a read can never close a mapping between
    lookup and export.
    """

    def __init__(self, root: str | Path, max_open_handles: int = 256) -> None:
        if max_open_handles < 1:
            raise StorageError("max_open_handles must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_open_handles = max_open_handles
        self._maps: "OrderedDict[str, mmap.mmap]" = OrderedDict()
        self._maps_lock = threading.Lock()
        self._packed: dict[str, tuple[str, int, int]] = {}
        self._next_segment = 0
        # Serialises write_many: one batch at a time checks its names are
        # new and takes the next sequence number, without holding up
        # readers while it writes.
        self._segment_lock = threading.Lock()
        for entry in sorted(os.listdir(self.root)):
            match = _SEGMENT_NAME.fullmatch(entry)
            if match is None:
                continue
            for name, offset, length in _read_segment_directory(
                self.root / entry
            ):
                if name in self._packed:
                    raise StorageError(
                        f"object {name!r} is packed in both "
                        f"{self._packed[name][0]!r} and {entry!r}"
                    )
                self._packed[name] = (entry, offset, length)
            self._next_segment = max(self._next_segment, int(match[1]) + 1)

    def write_many(self, blobs: Iterable[tuple[str, bytes]]) -> None:
        with self._segment_lock:
            segment = f"append-{self._next_segment:06d}.seg"
            tmp = self.root / f".{segment}.tmp"
            directory: list[tuple[str, int, int]] = []
            names: set[str] = set()
            offset = 0
            try:
                with tmp.open("wb") as fh:
                    for name, data in blobs:
                        if name in self._packed or name in names:
                            raise StorageError(
                                f"object {name!r} is already stored"
                            )
                        names.add(name)
                        padding = -offset % _SEGMENT_ALIGNMENT
                        fh.write(bytes(padding))
                        offset += padding
                        fh.write(data)
                        directory.append((name, offset, len(data)))
                        offset += len(data)
                    table = json_to_bytes(directory)
                    fh.write(table)
                    fh.write(_SEGMENT_FOOTER.pack(
                        _SEGMENT_MAGIC, _SEGMENT_VERSION, zlib.crc32(table),
                        offset, len(table),
                    ))
                if directory:
                    os.replace(tmp, self.root / segment)
            finally:
                # Still there if the batch was empty or refused.
                tmp.unlink(missing_ok=True)
            if not directory:
                return
            self._next_segment += 1
            with self._maps_lock:
                self._packed.update(
                    (name, (segment, offset, length))
                    for name, offset, length in directory
                )

    def _map_locked(self, segment: str) -> mmap.mmap:
        # Caller holds self._maps_lock.
        handle = self._maps.get(segment)
        if handle is None:
            try:
                with (self.root / segment).open("rb") as fh:
                    handle = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except FileNotFoundError:
                raise PartitionNotFoundError(
                    f"segment {segment!r} is gone from {self.root}"
                ) from None
            self._maps[segment] = handle
            while len(self._maps) > self.max_open_handles:
                self._drop_handle_locked(next(iter(self._maps)))
        else:
            self._maps.move_to_end(segment)
        return handle

    def _locate(self, name: str) -> tuple[str, int, int]:
        # Caller holds self._maps_lock.
        packed = self._packed.get(name)
        if packed is None:
            raise PartitionNotFoundError(f"no stored object {name!r}")
        return packed

    def read_range(self, name: str, offset: int, length: int) -> memoryview:
        with self._maps_lock:
            segment, start, total = self._locate(name)
            _check_range(name, offset, length, total)
            handle = self._map_locked(segment)
            start += offset
            return memoryview(handle)[start:start + length]

    def size(self, name: str) -> int:
        with self._maps_lock:
            return self._locate(name)[2]

    def exists(self, name: str) -> bool:
        with self._maps_lock:
            return name in self._packed

    def list_names(self) -> list[str]:
        # Dot-files are the tmp files of writes in flight, or what a crash
        # left of one; any other file that is not a segment has no place
        # in a store.
        for path in sorted(self.root.iterdir()):
            if path.is_file() and not (
                path.name.startswith(".") or _SEGMENT_NAME.fullmatch(path.name)
            ):
                raise StorageError(
                    f"{path.name!r} in {self.root} is not a segment: a store "
                    f"holds segment files only (DESIGN.md D18), and one "
                    f"written with loose partition files must be rebuilt"
                )
        with self._maps_lock:
            return sorted(self._packed)

    def _drop_handle_locked(self, segment: str) -> None:
        handle = self._maps.pop(segment, None)
        if handle is not None:
            try:
                handle.close()
            except BufferError:
                pass  # live views keep the mapping alive; GC reclaims it

    def close(self) -> None:
        with self._maps_lock:
            for segment in list(self._maps):
                self._drop_handle_locked(segment)

    def _iter_handles(self) -> Iterator[mmap.mmap]:  # for tests
        return iter(self._maps.values())
