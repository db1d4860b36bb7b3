"""The partition model: trie-node clusters laid out contiguously.

Section VI ("Localized Record-Level Similarity within Identified
Partitions") specifies the layout CLIMBER relies on at query time:

    "The data records within each data partition are organized such that
     all data series objects belonging to a trie node are stored
     contiguously next to each other.  The start offset of each trie node
     cluster is maintained in a header section within the partition."

A :class:`PartitionFile` is that layout in memory: records grouped into
*clusters* (keyed by the trie-node path string), stored contiguously, with
a header mapping each cluster key to its (offset, count).  Baselines and
tests assemble partitions with it; the bytes a store holds are the one
binary format of :mod:`repro.storage.engine.format`, which encodes this
layout and serves it back as a zero-copy view with the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import StorageError

__all__ = ["PartitionFile"]


@dataclass
class PartitionFile:
    """One partition, assembled in memory.

    Build with :meth:`from_clusters`; the constructor trusts its inputs.
    """

    partition_id: str
    ids: np.ndarray
    values: np.ndarray
    header: dict[str, tuple[int, int]]

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_clusters(
        cls,
        partition_id: str,
        clusters: Mapping[str, tuple[np.ndarray, np.ndarray]],
    ) -> "PartitionFile":
        """Assemble a partition from ``{cluster_key: (ids, values)}``.

        Clusters are laid out in sorted key order, each contiguous.
        """
        if not clusters:
            raise StorageError(f"partition {partition_id!r} needs >= 1 cluster")
        keys = sorted(clusters)
        id_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        header: dict[str, tuple[int, int]] = {}
        offset = 0
        width = None
        for key in keys:
            cid, cval = clusters[key]
            cid = np.asarray(cid, dtype=np.int64)
            cval = np.asarray(cval, dtype=np.float64)
            if cval.ndim != 2 or cid.shape[0] != cval.shape[0]:
                raise StorageError(f"cluster {key!r} ids/values mismatch")
            if width is None:
                width = cval.shape[1]
            elif cval.shape[1] != width:
                raise StorageError("all clusters must share one series length")
            header[key] = (offset, cid.shape[0])
            offset += cid.shape[0]
            id_parts.append(cid)
            val_parts.append(cval)
        return cls(
            partition_id=partition_id,
            ids=np.concatenate(id_parts),
            values=np.vstack(val_parts),
            header=header,
        )

    # -- access ------------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return int(self.ids.shape[0])

    @property
    def series_length(self) -> int:
        return int(self.values.shape[1])

    def cluster_keys(self) -> list[str]:
        return list(self.header)

    def read_cluster(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        """Records of one trie-node cluster (a view, not a copy)."""
        if key not in self.header:
            raise StorageError(
                f"partition {self.partition_id!r} has no cluster {key!r}"
            )
        start, count = self.header[key]
        return self.ids[start : start + count], self.values[start : start + count]

    def read_clusters(
        self, keys: Iterable[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated records of several clusters."""
        ids_parts, val_parts = [], []
        for key in keys:
            cid, cval = self.read_cluster(key)
            ids_parts.append(cid)
            val_parts.append(cval)
        if not ids_parts:
            raise StorageError("read_clusters requires at least one key")
        return np.concatenate(ids_parts), np.vstack(val_parts)

    def read_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Every record in the partition."""
        return self.ids, self.values

    def cluster_sizes(self) -> dict[str, int]:
        return {k: count for k, (_, count) in self.header.items()}
