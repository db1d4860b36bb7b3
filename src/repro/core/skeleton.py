"""The CLIMBER-INX index skeleton (paper Fig. 5).

The skeleton is the small driver-resident structure produced by
construction Steps 1-3 and broadcast to every worker in Step 4: the list
of groups (each with its rank-insensitive centroid, its partition trie and
its default partition) plus the pivot matrix.  Its serialised size is the
"global index size (MB)" metric of Figures 8 and 12.

Every group's trie is held as pre-order arrays, index-wide: group ``g``'s
nodes are ``[node_offset[g], node_offset[g + 1])``, its root first and
children in ascending pivot order.  Per node there is the pivot on the
edge from its parent (``-1`` at a root), its estimated record count, the
end of its subtree (node ``i``'s subtree is ``[i, subtree_end[i])``, so
``i`` is a leaf iff that is ``i + 1``) and, at a leaf, the physical
partition it is packed into (``-1`` at internal nodes).  These arrays are
what the builder emits, what is persisted and what the routers read
(DESIGN.md D9).

Beside them the skeleton keeps three counts of the Step 1-3 sample that
the store cannot give back — rows sampled, distinct ranked signatures,
distinct rank-insensitive pivot sets — from which, with the stored
partitions, :func:`repro.evaluation.modeled_build_seconds` models the
build (DESIGN.md D10).  Counts, never seconds.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.exceptions import ConfigurationError, StorageError
from repro.storage.serialization import (
    array_from_bytes,
    array_to_bytes,
    json_from_bytes,
    json_to_bytes,
    read_blob,
    write_blob,
)

__all__ = [
    "DEFAULT_CLUSTER_SUFFIX",
    "GroupEntry",
    "IndexSkeleton",
    "SAMPLE_COUNTS",
    "SKELETON_VERSION",
    "SkeletonWithPivots",
    "cluster_key",
    "partition_name",
]

DEFAULT_CLUSTER_SUFFIX = "~"
"""Cluster-key suffix for records that cannot complete a root-to-leaf walk
and therefore live in the group's default partition (§V Step 3)."""

SKELETON_VERSION = 3
"""Version of the persisted skeleton.  Version 2 (no sample counts) and
the unversioned nested-JSON trie layout before it are refused, not
converted (DESIGN.md D9, D10)."""

SAMPLE_COUNTS = ("sample_records", "sample_signatures", "sample_pivot_sets")
"""The persisted sample counts; each a positive ``int``, in descending
order."""

_STORED_ARRAYS = {
    "centroids": np.int32,          # (n_groups - 1, prefix_length): G1, G2, ...
    "default_partition": np.int32,  # one per group
    "node_offset": np.int32,
    "node_pivot": np.int32,
    "node_count": np.float64,
    "subtree_end": np.int32,
    "leaf_pid": np.int32,
}
"""The persisted arrays and their dtypes, in stored order."""

_TRIE_ARRAYS = list(_STORED_ARRAYS)[2:]


def _check(ok, what: str) -> None:
    if not ok:
        raise StorageError(f"malformed skeleton payload: {what}")


def partition_name(pid: int) -> str:
    """DFS name of physical partition ``pid`` (beta_i in paper Fig. 5)."""
    return f"beta{pid}"


def cluster_key(group_id: int, path: tuple[int, ...] | None) -> str:
    """Header key of a trie node's record cluster inside a partition.

    ``path=None`` denotes the group's default cluster (records whose
    signature could not complete a root-to-leaf walk).
    """
    if path is None:
        return f"G{group_id}/{DEFAULT_CLUSTER_SUFFIX}"
    if not path:
        return f"G{group_id}"
    return f"G{group_id}/" + "/".join(str(p) for p in path)


@dataclass
class GroupEntry:
    """One first-level entry of the skeleton (a data series group)."""

    group_id: int
    centroid: tuple[int, ...]
    default_partition: int

    @property
    def is_fallback(self) -> bool:
        """True for the special group G0 with centroid ``<*,*,...>``."""
        return not self.centroid


@dataclass(eq=False)
class IndexSkeleton:
    """Groups + tries + partition directory; serialisable and broadcastable."""

    prefix_length: int
    n_pivots: int
    word_length: int
    series_length: int
    groups: list[GroupEntry]
    n_partitions: int
    node_offset: np.ndarray
    node_pivot: np.ndarray
    node_count: np.ndarray
    subtree_end: np.ndarray
    leaf_pid: np.ndarray
    sample_records: int
    sample_signatures: int
    sample_pivot_sets: int
    _flat_router: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in _TRIE_ARRAYS:
            setattr(self, name, np.asarray(getattr(self, name),
                                           dtype=_STORED_ARRAYS[name]))
        if self.groups and self.groups[0].centroid != ():
            raise ConfigurationError("group 0 must be the fall-back group")

    @property
    def centroids(self) -> list[tuple[int, ...]]:
        """Real centroids, in group order (excludes the fall-back G0)."""
        return [g.centroid for g in self.groups[1:]]

    def group(self, group_id: int) -> GroupEntry:
        if not 0 <= group_id < len(self.groups):
            raise ConfigurationError(f"no group {group_id}")
        return self.groups[group_id]

    def total_trie_nodes(self) -> int:
        return int(self.node_pivot.size)

    @cached_property
    def node_parent(self) -> np.ndarray:
        """Each node's parent (``-1`` at a group root); derived, not stored.

        One pass over the pre-order with a stack of open subtrees, which
        also checks what every reader of the arrays trusts: a group's root
        spans the group, and each subtree starts after its parent and ends
        within the parent's subtree.  ``node_offset`` must already be
        checked.
        """
        ends = self.subtree_end.tolist()
        offsets = self.node_offset.tolist()
        parent = [-1] * len(ends)
        for lo, hi in zip(offsets, offsets[1:]):
            _check(ends[lo] == hi, f"root {lo} does not span its group")
            open_nodes = [lo]
            for i in range(lo + 1, hi):
                while ends[open_nodes[-1]] <= i:
                    open_nodes.pop()
                _check(i < ends[i] <= ends[open_nodes[-1]],
                       f"subtree of node {i} is not nested in its parent's")
                parent[i] = open_nodes[-1]
                open_nodes.append(i)
        return np.asarray(parent, dtype=np.int64)

    def flat_router(self):
        """The flat trie router over this skeleton's groups.

        Derived lazily, once: the builder's bulk redistribution, the
        vectorised query routing table and :meth:`ClimberIndex.append` all
        share it.  The skeleton is frozen after construction (appends
        never rebalance), so the cache never goes stale.
        """
        if self._flat_router is None:
            from repro.core.trie_flat import FlatTrieRouter

            self._flat_router = FlatTrieRouter(self)
        return self._flat_router

    def fallback_mask(self) -> np.ndarray:
        """Boolean mask over groups, True at fall-back entries (routing)."""
        return np.array([g.is_fallback for g in self.groups], dtype=bool)

    # -- serialisation ----------------------------------------------------------
    #
    # One JSON blob of scalars (with the version and the sample counts),
    # then one array blob per _STORED_ARRAYS entry, in its order.

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        write_blob(buf, json_to_bytes({
            "version": SKELETON_VERSION,
            "prefix_length": self.prefix_length,
            "n_pivots": self.n_pivots,
            "word_length": self.word_length,
            "series_length": self.series_length,
            "n_partitions": self.n_partitions,
            **{name: getattr(self, name) for name in SAMPLE_COUNTS},
        }))
        arrays = {
            "centroids": np.asarray(self.centroids, dtype=np.int32)
                           .reshape(-1, self.prefix_length),
            "default_partition": np.asarray(
                [g.default_partition for g in self.groups], dtype=np.int32),
        }
        for name in _STORED_ARRAYS:
            arr = arrays[name] if name in arrays else getattr(self, name)
            write_blob(buf, array_to_bytes(arr))
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "IndexSkeleton":
        """Inverse of :meth:`to_bytes`; the bytes come from outside.

        Raises :class:`StorageError` — never a ``KeyError`` or
        ``ValueError`` — for a payload that is not a version-3 skeleton
        (version 2 and the JSON-tree layout before it included), for sample
        counts that are not ``int`` with records >= signatures >= pivot
        sets >= 1, and for one that parses but would misroute: positional
        lookups (``groups[gid]``, the flat tries, composite edge keys
        ``node * n_pivots + pivot``) trust what is checked here.
        """
        buf = io.BytesIO(data)
        try:
            meta = json_from_bytes(read_blob(buf))
            if (not isinstance(meta, dict)
                    or meta.get("version") != SKELETON_VERSION):
                raise StorageError(
                    f"not a version-{SKELETON_VERSION} global index (one "
                    "written before must be rebuilt)"
                )
            counts = [meta.get(name) for name in SAMPLE_COUNTS]
            _check(all(type(c) is int for c in counts)
                   and counts[0] >= counts[1] >= counts[2] >= 1,
                   f"sample counts {counts} are not integers with records "
                   ">= signatures >= pivot sets >= 1")
            arrays = {}
            for name, dtype in _STORED_ARRAYS.items():
                arrays[name] = arr = array_from_bytes(read_blob(buf))
                _check(arr.dtype == dtype, f"{name} has dtype {arr.dtype}")
            prefix_length = int(meta["prefix_length"])
            centroids = arrays.pop("centroids")
            defaults = arrays.pop("default_partition").tolist()
            _check(centroids.shape == (len(defaults) - 1, prefix_length),
                   f"centroids of shape {centroids.shape} for "
                   f"{len(defaults)} groups")
            skeleton = cls(
                prefix_length=prefix_length,
                n_pivots=int(meta["n_pivots"]),
                word_length=int(meta["word_length"]),
                series_length=int(meta["series_length"]),
                groups=[
                    GroupEntry(gid, tuple(centroid), default)
                    for gid, (centroid, default) in enumerate(
                        zip([[]] + centroids.tolist(), defaults)
                    )
                ],
                n_partitions=int(meta["n_partitions"]),
                **arrays,
                **dict(zip(SAMPLE_COUNTS, counts)),
            )
        except (KeyError, IndexError, TypeError, ValueError) as err:
            raise StorageError(f"malformed skeleton payload: {err!r}") from None
        skeleton._check_ranges()
        return skeleton

    def _check_ranges(self) -> None:
        """Refuse arrays a well-formed build cannot produce (see from_bytes)."""
        n = self.node_pivot.size
        offsets = self.node_offset
        _check(all(getattr(self, name).ndim == 1 for name in _TRIE_ARRAYS)
               and self.node_count.size == self.subtree_end.size
               == self.leaf_pid.size == n,
               "node arrays are not 1-D or differ in length")
        _check(offsets.size == len(self.groups) + 1 and offsets[0] == 0
               and offsets[-1] == n and (np.diff(offsets) > 0).all(),
               "group node offsets do not increase from 0 to the node count")
        _check(all(0 <= g.default_partition < self.n_partitions
                   for g in self.groups),
               "default partition out of range")
        _check(all(0 <= p < self.n_pivots for g in self.groups
                   for p in g.centroid),
               "centroid pivot out of range")
        count = self.node_count
        _check(np.isfinite(count).all() and (count >= 0).all(),
               "node count not finite and non-negative")
        parent = self.node_parent
        pivot = self.node_pivot
        child = np.flatnonzero(parent >= 0)
        _check((pivot[parent < 0] == -1).all()
               and ((pivot[child] >= 0) & (pivot[child] < self.n_pivots)).all(),
               "edge pivot out of range")
        # Siblings sit in id order under their parent: pivots must ascend.
        child = child[np.argsort(parent[child], kind="stable")]
        sibling = parent[child[1:]] == parent[child[:-1]]
        _check((pivot[child[1:]][sibling] > pivot[child[:-1]][sibling]).all(),
               "sibling pivots do not ascend")
        is_leaf = self.subtree_end == np.arange(1, n + 1)
        leaf_pid = self.leaf_pid
        _check(((leaf_pid[is_leaf] >= 0)
                & (leaf_pid[is_leaf] < self.n_partitions)).all()
               and (leaf_pid[~is_leaf] == -1).all(),
               "leaf partition id out of range, or set at an internal node")


@dataclass
class SkeletonWithPivots:
    """What actually gets broadcast in Step 4: skeleton + pivot matrix."""

    skeleton: IndexSkeleton
    pivots: np.ndarray

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        write_blob(buf, self.skeleton.to_bytes())
        write_blob(buf, array_to_bytes(self.pivots))
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SkeletonWithPivots":
        buf = io.BytesIO(data)
        skeleton = IndexSkeleton.from_bytes(read_blob(buf))
        pivots = array_from_bytes(read_blob(buf))
        return cls(skeleton, pivots)
