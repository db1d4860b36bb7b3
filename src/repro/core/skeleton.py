"""The CLIMBER-INX index skeleton (paper Fig. 5).

The skeleton is the small driver-resident structure produced by
construction Steps 1-3 and broadcast to every worker in Step 4: the list
of groups (each with its rank-insensitive centroid, its partition trie and
its default partition) plus the pivot matrix.  Its serialised size is the
"global index size (MB)" metric of Figures 8 and 12.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from repro.core.trie import DEFAULT_CLUSTER_SUFFIX, TrieNode
from repro.exceptions import ConfigurationError, StorageError
from repro.storage.serialization import (
    array_from_bytes,
    array_to_bytes,
    json_from_bytes,
    json_to_bytes,
    read_blob,
    write_blob,
)

__all__ = ["GroupEntry", "IndexSkeleton", "partition_name", "cluster_key"]


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
    trie: TrieNode
    default_partition: int
    est_size: float

    @property
    def is_fallback(self) -> bool:
        """True for the special group G0 with centroid ``<*,*,...>``."""
        return not self.centroid


@dataclass
class IndexSkeleton:
    """Groups + tries + partition directory; serialisable and broadcastable."""

    prefix_length: int
    n_pivots: int
    word_length: int
    groups: list[GroupEntry] = field(default_factory=list)
    n_partitions: int = 0
    _flat_router: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.groups:
            return
        if self.groups[0].centroid != ():
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
        return sum(g.trie.node_count() for g in self.groups)

    def flat_router(self, executor=None):
        """The CSR-compiled trie router over this skeleton's groups.

        Compiled lazily, once: the builder's bulk redistribution, the
        vectorised query routing table and :meth:`ClimberIndex.append` all
        share the same compile.  The skeleton's tries are frozen after
        construction (appends never rebalance), so the cache never goes
        stale.  ``executor`` (a :class:`repro.core.parallel.Executor`)
        parallelises the per-group compiles of a *first* call; a cached
        router is returned as-is.
        """
        if self._flat_router is None:
            from repro.core.trie_flat import FlatTrieRouter

            self._flat_router = FlatTrieRouter(self, executor=executor)
        return self._flat_router

    def fallback_mask(self) -> np.ndarray:
        """Boolean mask over groups, True at fall-back entries (routing)."""
        return np.array([g.is_fallback for g in self.groups], dtype=bool)

    def centroid_matrix(self) -> np.ndarray:
        """``(n_real, m)`` int64 matrix of non-fallback centroids, in group order.

        The array form the vectorised routing engine packs into bitsets;
        rows line up with ``fallback_mask() == False`` positions.
        """
        real = [g.centroid for g in self.groups if not g.is_fallback]
        if not real:
            return np.zeros((0, self.prefix_length), dtype=np.int64)
        return np.asarray(real, dtype=np.int64)

    # -- serialisation ----------------------------------------------------------
    #
    # Tries serialise to nested lists: [pivot, count, partition_ids_if_leaf,
    # [children...]].

    @staticmethod
    def _trie_to_obj(node: TrieNode) -> list:
        # Iterative, like every trie traversal: our own frames never bound
        # the representable depth (the JSON encoder's nesting limit is the
        # remaining ceiling, far beyond any real prefix length).
        def make(nd: TrieNode) -> list:
            pids = sorted(nd.partition_ids) if nd.is_leaf else []
            return [nd.pivot, round(nd.count, 3), pids, []]

        root_obj = make(node)
        stack = [(node, root_obj)]
        while stack:
            nd, obj = stack.pop()
            for pivot in sorted(nd.children):
                child_obj = make(nd.children[pivot])
                obj[3].append(child_obj)
                stack.append((nd.children[pivot], child_obj))
        return root_obj

    @staticmethod
    def _trie_from_obj(obj: list, path: tuple[int, ...]) -> TrieNode:
        pivot, count, pids, children = obj
        root = TrieNode(pivot, path, count)
        root.partition_ids = set(int(p) for p in pids)
        stack = [(root, children)]
        while stack:
            node, child_objs = stack.pop()
            for c_pivot, c_count, c_pids, c_children in child_objs:
                c_pivot = int(c_pivot)
                child = TrieNode(c_pivot, node.path + (c_pivot,), c_count)
                child.partition_ids = set(int(p) for p in c_pids)
                node.children[c_pivot] = child
                stack.append((child, c_children))
        return root

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        meta = {
            "prefix_length": self.prefix_length,
            "n_pivots": self.n_pivots,
            "word_length": self.word_length,
            "n_partitions": self.n_partitions,
            "groups": [
                {
                    "id": g.group_id,
                    "centroid": list(g.centroid),
                    "default": g.default_partition,
                    "est_size": round(g.est_size, 3),
                    "trie": self._trie_to_obj(g.trie),
                }
                for g in self.groups
            ],
        }
        write_blob(buf, json_to_bytes(meta))
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "IndexSkeleton":
        """Inverse of :meth:`to_bytes`; the bytes come from outside.

        Raises :class:`StorageError` — never a ``KeyError`` or
        ``ValueError`` — for a payload that is not a skeleton (missing
        key, wrong arity, wrong type) and for one that parses but would
        misroute: positional lookups (``groups[gid]``, the flat tries,
        composite edge keys ``node * n_pivots + pivot``) trust what is
        checked here.
        """
        buf = io.BytesIO(data)
        try:
            meta = json_from_bytes(read_blob(buf))
            skeleton = cls(
                prefix_length=int(meta["prefix_length"]),
                n_pivots=int(meta["n_pivots"]),
                word_length=int(meta["word_length"]),
                groups=[
                    GroupEntry(
                        group_id=int(g["id"]),
                        centroid=tuple(int(p) for p in g["centroid"]),
                        trie=cls._trie_from_obj(g["trie"], ()),
                        default_partition=int(g["default"]),
                        est_size=float(g["est_size"]),
                    )
                    for g in meta["groups"]
                ],
                n_partitions=int(meta["n_partitions"]),
            )
        except (KeyError, IndexError, TypeError, ValueError,
                ConfigurationError) as err:
            raise StorageError(f"malformed skeleton payload: {err!r}") from None
        skeleton._check_ranges()
        return skeleton

    def _check_ranges(self) -> None:
        """Refuse ids a well-formed build cannot produce (see from_bytes)."""
        def check(ok: bool, what: str) -> None:
            if not ok:
                raise StorageError(f"malformed skeleton payload: {what}")

        for position, g in enumerate(self.groups):
            check(g.group_id == position, "group ids are not 0..n-1 in order")
            check(0 <= g.default_partition < self.n_partitions,
                  f"group {position}: default partition out of range")
            stack = [g.trie]
            while stack:
                node = stack.pop()
                check(all(0 <= p < self.n_partitions
                          for p in node.partition_ids),
                      f"group {position}: leaf partition id out of range")
                check(all(0 <= p < self.n_pivots for p in node.children),
                      f"group {position}: edge pivot out of range")
                stack.extend(node.children.values())

    @property
    def nbytes(self) -> int:
        """Serialised size — the paper's "global index size" metric."""
        return len(self.to_bytes())


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


__all__.append("SkeletonWithPivots")
