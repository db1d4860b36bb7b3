"""The storage engine: checked partition access over a pluggable backend.

:class:`StorageEngine` owns the mapping from partition ids to stored blobs.
Writes encode through
:func:`~repro.storage.engine.format.encode_partition_v2_arrays`, always with
the four per-section checksums; an open returns a
:class:`~repro.storage.engine.format.PartitionV2View` that has checked all
four over the bytes of that open, and metadata scans read headers and
directories only.  A stored blob in any other encoding or header version is
refused with :class:`StorageError` by the header decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from repro.exceptions import PartitionNotFoundError
from repro.storage.engine.backend import StorageBackend
from repro.storage.engine.format import (
    PartitionV2View,
    decode_partition_head,
    encode_partition_v2_arrays,
)
from repro.storage.partition import PartitionFile, logical_partition_nbytes

__all__ = ["StorageEngine", "PartitionMeta"]


@dataclass(frozen=True)
class PartitionMeta:
    """Header-level partition metadata (no payload bytes read)."""

    logical_nbytes: int
    record_count: int
    series_length: int


class StorageEngine:
    """Write/read partitions through a :class:`StorageBackend`.

    Every partition is written with its four checksums and every open
    checks all four over the bytes it read (DESIGN.md D8, D12).

    Parameters
    ----------
    backend:
        The byte store (memory or mmap-backed local disk), possibly
        wrapped in a :class:`~repro.resilience.FaultInjector`.
    corruption_cb:
        Zero-argument callable invoked per detected corruption (the DFS
        counts ``dfs.corruption_detected`` through it).
    """

    SUFFIX = ".part"

    def __init__(self, backend: StorageBackend, corruption_cb=None) -> None:
        self.backend = backend
        self.corruption_cb = corruption_cb

    def _name(self, partition_id: str) -> str:
        return f"{partition_id}{self.SUFFIX}"

    def blob_name(self, partition_id: str) -> str:
        """The backend blob name a partition is stored under."""
        return self._name(partition_id)

    # -- write ------------------------------------------------------------------

    def write_partition(self, partition: PartitionFile) -> int:
        """Encode and store one partition; returns the physical byte count."""
        return self.write_payload(
            partition.partition_id,
            self.encode_arrays(partition.partition_id, partition.ids,
                               partition.values, partition.header),
        )

    def encode_arrays(
        self,
        partition_id: str,
        ids: np.ndarray,
        values: np.ndarray,
        header: dict[str, tuple[int, int]],
        rows: np.ndarray | None = None,
    ) -> bytes:
        """Encode cluster-sorted arrays without storing them.

        The arrays go straight into the columnar payload — no intermediate
        :class:`PartitionFile` — which is how the flat-trie builder encodes
        every partition.  With ``rows`` given, ``ids``/``values`` are
        source arrays and the stored records are ``ids[rows]``/
        ``values[rows]``, gathered directly into the payload buffer; the
        bytes are identical to encoding ``PartitionFile.from_clusters``
        over the same records.  A pure function of its arguments, safe to
        run on worker threads: the builder encodes payloads concurrently
        through here and stores them serially, in partition order, via
        :meth:`write_payload`.
        """
        return encode_partition_v2_arrays(partition_id, ids, values, header,
                                          rows=rows)

    def write_payload(self, partition_id: str, payload: bytes) -> int:
        """Store an already-encoded partition payload (see
        :meth:`encode_arrays`); returns the physical byte count."""
        self.backend.write(self._name(partition_id), payload)
        return len(payload)

    def write_payloads(self, payloads: Iterable[tuple[str, bytes]]) -> None:
        """Store a batch of ``(partition_id, payload)`` pairs encoded by
        :meth:`encode_arrays` in one backend call — all of them or none,
        and on disk one file for the lot (DESIGN.md D6)."""
        self.backend.write_many(
            [(self._name(pid), payload) for pid, payload in payloads]
        )

    # -- read -------------------------------------------------------------------

    def has_partition(self, partition_id: str) -> bool:
        return self.backend.exists(self._name(partition_id))

    def _reader(self, partition_id: str):
        """``(read_range, size)`` of a stored partition; the ``size`` is
        the existence check too."""
        name = self._name(partition_id)
        try:
            size = self.backend.size(name)
        except PartitionNotFoundError:
            raise PartitionNotFoundError(
                f"no partition {partition_id!r}"
            ) from None
        return partial(self.backend.read_range, name), size

    def open_partition(
        self, partition_id: str, logical_nbytes: int | None = None
    ) -> PartitionV2View:
        """Open a stored partition as a zero-copy view, all four checksums
        checked: a mismatch raises here, never on a later read.

        ``logical_nbytes`` is the partition's logical size when the caller
        tracks it (the DFS registry), sparing the view from deriving it.
        """
        read_range, size = self._reader(partition_id)
        return PartitionV2View(
            read_range,
            physical_size=size,
            corruption_cb=self.corruption_cb,
            logical_nbytes=logical_nbytes,
        )

    # -- metadata ---------------------------------------------------------------

    def partition_meta(self, partition_id: str) -> PartitionMeta:
        """Logical size, record count and series length from headers alone:
        the blob is mapped with one range read, as an open maps it, and
        decoded with the meta and directory checksums checked and no
        payload byte touched."""
        read_range, size = self._reader(partition_id)
        h, _, directory = decode_partition_head(read_range(0, size), size,
                                                self.corruption_cb)
        return PartitionMeta(
            logical_partition_nbytes(h.n_records, h.series_length, directory),
            h.n_records, h.series_length,
        )

    def physical_nbytes(self, partition_id: str) -> int:
        """Stored payload size (padding and checksum block included,
        unlike the logical size)."""
        return self._reader(partition_id)[1]

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
