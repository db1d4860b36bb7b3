"""The storage engine: lazy partition access over a pluggable backend.

:class:`StorageEngine` owns the mapping from partition ids to stored blobs
and speaks both partition formats:

* **v2** (default) — :func:`~repro.storage.engine.format.encode_partition_v2`
  on write; reads open a :class:`~repro.storage.engine.format.PartitionV2View`
  that parses only header + directory and maps payload ranges on demand.
* **v1** — the legacy :meth:`PartitionFile.to_bytes` blob stream; reads
  deserialise the full partition (the compatibility shim).

The format of a *stored* partition is sniffed from its leading magic bytes,
so an engine configured for v2 transparently reads partitions written by a
v1 engine (and vice versa) — a backing directory can mix generations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Union

import numpy as np

from repro.exceptions import (
    PartitionCorruptError,
    PartitionNotFoundError,
    StorageError,
)
from repro.storage.engine.backend import StorageBackend
from repro.storage.engine.format import (
    HEAD_PROBE_SIZE,
    VERIFY_MODES,
    PartitionV2View,
    encode_partition_v2,
    encode_partition_v2_arrays,
    is_v2_payload,
)
from repro.storage.partition import PartitionFile
from repro.storage.serialization import json_from_bytes

__all__ = ["StorageEngine", "PartitionMeta", "PartitionHandle"]

#: Anything the engine hands back from :meth:`StorageEngine.open_partition`:
#: a fully-deserialised v1 partition or a lazy v2 view.  Both expose the
#: same access interface (``read_cluster``/``read_clusters``/``read_all``/
#: ``cluster_keys``/``nbytes``/``record_count``/``series_length``/...).
PartitionHandle = Union[PartitionFile, PartitionV2View]

_V1_BLOB_LEN = struct.Struct("<Q")


@dataclass(frozen=True)
class PartitionMeta:
    """Header-level partition metadata (no payload bytes read)."""

    logical_nbytes: int
    record_count: int
    series_length: int


class StorageEngine:
    """Write/read partitions through a :class:`StorageBackend`.

    Parameters
    ----------
    backend:
        The byte store (memory or mmap-backed local disk), possibly
        wrapped in a :class:`~repro.resilience.FaultInjector`.
    partition_format:
        Format for *newly written* partitions: ``"v2"`` (default) or
        ``"v1"``.  Reads always sniff the stored format.
    checksums:
        Whether newly written v2 partitions carry the per-section CRC32
        block (header version 3, the default).  ``False`` reproduces the
        legacy version-2 bytes exactly.  Stored payloads of either
        version stay readable regardless.
    verify:
        Checksum-verification mode applied when opening v2 partitions:
        ``"off"``, ``"lazy"`` (default) or ``"eager"`` — see
        :class:`~repro.storage.engine.format.PartitionV2View`.
    corruption_cb:
        Zero-argument callable invoked per detected corruption (the DFS
        counts ``dfs.corruption_detected`` through it).
    """

    SUFFIX = ".part"

    def __init__(
        self,
        backend: StorageBackend,
        partition_format: str = "v2",
        checksums: bool = True,
        verify: str = "lazy",
        corruption_cb=None,
    ) -> None:
        if partition_format not in ("v1", "v2"):
            raise StorageError(
                f"unknown partition format {partition_format!r} "
                "(expected 'v1' or 'v2')"
            )
        if verify not in VERIFY_MODES:
            raise StorageError(
                f"unknown verify mode {verify!r} "
                f"(expected one of {VERIFY_MODES})"
            )
        self.backend = backend
        self.partition_format = partition_format
        self.checksums = bool(checksums)
        self.verify = verify
        self.corruption_cb = corruption_cb

    def _name(self, partition_id: str) -> str:
        return f"{partition_id}{self.SUFFIX}"

    def blob_name(self, partition_id: str) -> str:
        """The backend blob name a partition is stored under."""
        return self._name(partition_id)

    # -- write ------------------------------------------------------------------

    def write_partition(self, partition: PartitionFile) -> int:
        """Encode and store one partition; returns the physical byte count."""
        if self.partition_format == "v2":
            payload = encode_partition_v2(partition, checksums=self.checksums)
        else:
            payload = partition.to_bytes()
        self.backend.write(self._name(partition.partition_id), payload)
        return len(payload)

    def write_arrays(
        self,
        partition_id: str,
        ids: np.ndarray,
        values: np.ndarray,
        header: dict[str, tuple[int, int]],
        rows: np.ndarray | None = None,
    ) -> int:
        """Bulk-write entry point: store cluster-sorted arrays directly.

        With format v2 the arrays are encoded straight into the columnar
        payload — no intermediate :class:`PartitionFile` — which is how the
        flat-trie builder writes every partition.  With ``rows`` given,
        ``ids``/``values`` are source arrays and the stored records are
        ``ids[rows]``/``values[rows]``, gathered directly into the payload
        buffer.  The stored bytes are identical to
        ``write_partition(PartitionFile.from_clusters(...))`` over the
        same records.  Returns the physical byte count.
        """
        return self.write_payload(
            partition_id,
            self.encode_arrays(partition_id, ids, values, header, rows=rows),
        )

    def encode_arrays(
        self,
        partition_id: str,
        ids: np.ndarray,
        values: np.ndarray,
        header: dict[str, tuple[int, int]],
        rows: np.ndarray | None = None,
    ) -> bytes:
        """Encode cluster-sorted arrays into the configured format without
        storing them.

        The encode half of :meth:`write_arrays` — a pure function of its
        arguments, safe to run on worker threads.  The parallel builder
        encodes partition payloads concurrently through here and stores
        them serially, in partition order, via :meth:`write_payload`; the
        bytes are identical to a direct :meth:`write_arrays` call.
        """
        if self.partition_format == "v2":
            return encode_partition_v2_arrays(partition_id, ids, values,
                                              header, rows=rows,
                                              checksums=self.checksums)
        if rows is not None:
            ids = np.asarray(ids, dtype=np.int64)[rows]
            values = np.asarray(values, dtype=np.float64)[rows]
        return PartitionFile.from_arrays(
            partition_id, ids, values, header
        ).to_bytes()

    def write_payload(self, partition_id: str, payload: bytes) -> int:
        """Store an already-encoded partition payload (see
        :meth:`encode_arrays`); returns the physical byte count."""
        self.backend.write(self._name(partition_id), payload)
        return len(payload)

    # -- read -------------------------------------------------------------------

    def has_partition(self, partition_id: str) -> bool:
        return self.backend.exists(self._name(partition_id))

    def _probe(self, partition_id: str) -> tuple[str, int, memoryview]:
        """Blob name, stored size and leading bytes of one partition.

        ``size`` doubles as the existence check (it raises
        :class:`PartitionNotFoundError` itself), and the one head range
        serves both the format sniff and the v2 header decode.
        """
        name = self._name(partition_id)
        try:
            size = self.backend.size(name)
        except PartitionNotFoundError:
            raise PartitionNotFoundError(
                f"no partition {partition_id!r}"
            ) from None
        head = self.backend.read_range(name, 0, min(size, HEAD_PROBE_SIZE))
        return name, size, head

    def _open_v2(self, name: str, size: int, head: memoryview, verify: str,
                 logical_nbytes: int | None = None) -> PartitionV2View:
        return PartitionV2View(
            partial(self.backend.read_range, name),
            physical_size=size,
            verify=verify,
            corruption_cb=self.corruption_cb,
            head=head,
            logical_nbytes=logical_nbytes,
        )

    def open_partition(
        self, partition_id: str, logical_nbytes: int | None = None
    ) -> PartitionHandle:
        """Open a stored partition in whichever format it was written.

        v2 payloads come back as a lazy zero-copy view (header + directory
        parsed, payloads untouched); v1 payloads are fully deserialised.
        ``logical_nbytes`` is the partition's logical size when the caller
        tracks it (the DFS registry), sparing the view from deriving it.
        """
        name, size, head = self._probe(partition_id)
        if is_v2_payload(head):
            return self._open_v2(name, size, head, self.verify,
                                 logical_nbytes)
        # v1 payloads carry no checksums; typed decode failures are the
        # best integrity signal available (a flipped byte that still
        # decodes is undetectable in v1 — one of the reasons v2+checksums
        # is the default).
        try:
            return PartitionFile.from_bytes(
                bytes(self.backend.read_range(name, 0, size))
            )
        except StorageError:
            raise
        except Exception as err:
            if self.corruption_cb is not None:
                self.corruption_cb()
            raise PartitionCorruptError(
                f"partition {partition_id!r}: undecodable v1 payload ({err})"
            ) from err

    def read_cluster_ranges(
        self, partition_id: str, keys: Iterable[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated records of the requested clusters.

        For v2 partitions only the byte ranges covering ``keys`` are
        mapped; the v1 shim deserialises the partition and slices it.
        """
        return self.open_partition(partition_id).read_clusters(list(keys))

    # -- metadata ---------------------------------------------------------------

    def partition_meta(self, partition_id: str) -> PartitionMeta:
        """Logical size, record count and series length from headers alone.

        Legacy v1 payloads written before size metadata existed fall back
        to a full deserialisation (the migration path).
        """
        name, size, head = self._probe(partition_id)
        if is_v2_payload(head):
            # Metadata scans never touch payload sections, so eager
            # payload verification would be pure waste here; cap at
            # lazy (meta/directory CRCs still checked at open).
            view = self._open_v2(
                name, size, head, "off" if self.verify == "off" else "lazy"
            )
            return PartitionMeta(view.nbytes, view.record_count,
                                 view.series_length)
        if size < _V1_BLOB_LEN.size:
            raise StorageError(f"truncated partition payload {partition_id!r}")
        (meta_len,) = _V1_BLOB_LEN.unpack_from(head)
        if _V1_BLOB_LEN.size + meta_len > size:
            raise StorageError(f"truncated partition payload {partition_id!r}")
        meta = json_from_bytes(
            bytes(self.backend.read_range(name, _V1_BLOB_LEN.size, meta_len))
        )
        info = PartitionFile.stored_size_from_meta(meta)
        if info is None:  # legacy payload: no size metadata in the header
            part = PartitionFile.from_bytes(
                bytes(self.backend.read_range(name, 0, size))
            )
            return PartitionMeta(part.nbytes, part.record_count,
                                 part.series_length)
        return PartitionMeta(info[0], info[1], int(meta["series_length"]))

    def physical_nbytes(self, partition_id: str) -> int:
        """Stored payload size (format-dependent, unlike the logical size)."""
        name = self._name(partition_id)
        if not self.backend.exists(name):
            raise PartitionNotFoundError(f"no partition {partition_id!r}")
        return self.backend.size(name)

    # -- maintenance ------------------------------------------------------------

    def list_partitions(self) -> list[str]:
        """Ids of every stored partition, sorted."""
        n = len(self.SUFFIX)
        return sorted(
            name[:-n] for name in self.backend.list_names()
            if name.endswith(self.SUFFIX)
        )

    def delete_partition(self, partition_id: str) -> None:
        name = self._name(partition_id)
        if not self.backend.exists(name):
            raise PartitionNotFoundError(f"no partition {partition_id!r}")
        self.backend.delete(name)

    def close(self) -> None:
        """Release backend handles (open mmaps); stored data is untouched."""
        self.backend.close()
