"""The storage engine: checked partition access over a pluggable backend.

:class:`StorageEngine` owns the mapping from partition ids to stored blobs.
Partitions are encoded by
:func:`~repro.storage.engine.format.encode_partition_v2_arrays`, always
with each record's stored norm and the five per-section checksums, and
stored in batches, one backend ``write_many`` a batch — on disk, one
segment file (DESIGN.md D6, D18); an open returns a
:class:`~repro.storage.engine.format.PartitionV2View` that has checked all
five over the bytes of that open, and metadata scans read headers and
directories only.  A stored blob in any other encoding or header version
is refused with :class:`StorageError` by the header decode.
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

__all__ = ["StorageEngine", "PartitionMeta"]


@dataclass(frozen=True)
class PartitionMeta:
    """Header-level partition metadata (no payload bytes read)."""

    nbytes: int
    record_count: int
    series_length: int


class StorageEngine:
    """Store and read partitions through a :class:`StorageBackend`.

    Every partition is written with its five checksums and every open
    checks all five over the bytes it read (DESIGN.md D8, D12, D14).

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

    def blob_name(self, partition_id: str) -> str:
        """The backend blob name a partition is stored under."""
        return f"{partition_id}{self.SUFFIX}"

    # -- write ------------------------------------------------------------------

    def encode_arrays(
        self,
        partition_id: str,
        ids: np.ndarray,
        values: np.ndarray,
        header: dict[str, tuple[int, int]],
        rows: np.ndarray | None = None,
    ) -> bytes:
        """Encode one partition without storing it.

        The layout is sorted keys, each cluster contiguous: ``header``
        maps each key, in sorted order, to its ``(offset, count)`` in the
        records.  With ``rows`` given, ``ids``/``values`` are source
        arrays and the stored records are ``ids[rows]``/``values[rows]``,
        gathered directly into the payload buffer.  A pure function of its
        arguments, safe to run on worker threads: the builder encodes
        payloads concurrently through here and stores them, in partition
        order, through one :meth:`write_payloads` call.
        """
        return encode_partition_v2_arrays(partition_id, ids, values, header,
                                          rows=rows)

    def write_payloads(self, payloads: Iterable[tuple[str, bytes]]) -> None:
        """Store ``(partition_id, payload)`` pairs encoded by
        :meth:`encode_arrays` in one backend call — all of them or none,
        and on disk one file for the lot (DESIGN.md D6, D18).  ``payloads``
        may be a generator: each payload goes to the backend as it
        arrives."""
        self.backend.write_many(
            (self.blob_name(pid), payload) for pid, payload in payloads
        )

    # -- read -------------------------------------------------------------------

    def has_partition(self, partition_id: str) -> bool:
        return self.backend.exists(self.blob_name(partition_id))

    def _reader(self, partition_id: str):
        """``(read_range, size)`` of a stored partition; the ``size`` is
        the existence check too."""
        name = self.blob_name(partition_id)
        try:
            size = self.backend.size(name)
        except PartitionNotFoundError:
            raise PartitionNotFoundError(
                f"no partition {partition_id!r}"
            ) from None
        return partial(self.backend.read_range, name), size

    def open_partition(self, partition_id: str) -> PartitionV2View:
        """Open a stored partition as a zero-copy view, all five checksums
        checked: a mismatch raises here, never on a later read."""
        read_range, size = self._reader(partition_id)
        return PartitionV2View(read_range, physical_size=size,
                               corruption_cb=self.corruption_cb)

    # -- metadata ---------------------------------------------------------------

    def partition_meta(self, partition_id: str) -> PartitionMeta:
        """Size, record count and series length from headers alone: the
        blob is mapped with one range read, as an open maps it, and
        decoded with the meta and directory checksums checked and no
        payload byte touched."""
        read_range, size = self._reader(partition_id)
        h, _, _ = decode_partition_head(read_range(0, size), size,
                                        self.corruption_cb)
        return PartitionMeta(h.total_size, h.n_records, h.series_length)

    # -- maintenance ------------------------------------------------------------

    def list_partitions(self) -> list[str]:
        """Ids of every stored partition, sorted."""
        n = len(self.SUFFIX)
        return sorted(
            name[:-n] for name in self.backend.list_names()
            if name.endswith(self.SUFFIX)
        )

    def close(self) -> None:
        """Release backend handles (open mmaps); stored data is untouched."""
        self.backend.close()
