"""Flattened CSR trie router: batch descend over numpy arrays.

The pointer-based :class:`~repro.core.trie.TrieNode` tries are the right
structure to *build* (§IV-D splits them incrementally), but walking them —
``descend`` during index construction Step 4, ``descend_path`` during query
routing — is per-record Python dict-chasing.  At build scale (every record
of the dataset is redistributed through a trie walk) that loop dominates
CLIMBER-INX construction, exactly the cost the parallel-indexing literature
(ParIS/MESSI) identifies as the adoption barrier for data-series indexes.

This module compiles each group's trie, once, into CSR-style arrays:

* a sorted **child-edge table** — one global ``edge_key`` array where the
  entry for edge ``parent --pivot--> child`` is ``parent * stride + pivot``.
  Nodes are numbered in pre-order (children in sorted pivot order), so the
  keys are globally sorted and one ``np.searchsorted`` resolves an entire
  batch of (node, pivot) lookups per trie level;
* per-node **leaf/partition metadata** (``is_leaf``, ``leaf_pid``, depth,
  counts) and pre-rendered cluster-key strings;
* **subtree ranges**: pre-order numbering makes every subtree a contiguous
  id interval, so the leaves (and therefore the covering partitions) of any
  node are a slice — no recursion at query time.

A compiled :class:`FlatTrie` keeps no node object: flat node ids are what
the query planner (:meth:`repro.core.routing.RoutingTable.plan`) trades
in.  :class:`FlatTrieRouter` stitches the per-group tries into the
whole-index batch walk used by the builder's bulk redistribution and by
:meth:`ClimberIndex.append`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.core.skeleton import IndexSkeleton, cluster_key
from repro.core.trie import TrieNode
from repro.exceptions import ConfigurationError

__all__ = ["FlatTrie", "FlatTrieRouter"]

_DENSE_EDGE_MAP_CAP = 1 << 22
"""Entry cap for the router's dense edge-lookup table (int32 entries, so
16 MB at the cap); bigger composite key spaces fall back to binary search
over the sorted CSR edge table."""


class FlatTrie:
    """CSR compile of one group's partition trie.

    Parameters
    ----------
    root:
        The group's trie root (packed: leaves carry their physical
        partition id).
    group_id:
        The owning group — baked into the pre-rendered cluster keys.
    n_pivots:
        Total pivot count ``r``; the stride of the composite edge keys.
        Any pivot id outside ``[0, n_pivots)`` misses by construction.

    Node id ``i`` is the ``i``-th node in pre-order (children in sorted
    pivot order; the root is 0), so ``s``'s subtree is the id interval
    ``[s, subtree_end[s])``.
    """

    def __init__(self, root: TrieNode, group_id: int, n_pivots: int) -> None:
        if n_pivots < 1:
            raise ConfigurationError("n_pivots must be >= 1")
        self.group_id = int(group_id)
        self.stride = int(n_pivots)
        # Pre-order traversal, children in sorted pivot order.  Parents
        # precede children, and every subtree occupies a contiguous id range.
        nodes: list[TrieNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            for pivot in sorted(node.children, reverse=True):
                stack.append(node.children[pivot])
        n = len(nodes)
        self.n_nodes = n
        index_of = {id(node): i for i, node in enumerate(nodes)}
        if self.stride <= max((p for nd in nodes for p in nd.children),
                              default=-1):
            raise ConfigurationError(
                "n_pivots must exceed every pivot id used by the trie"
            )
        # Per-node scalars the planner reads one at a time: plain lists.
        self.count = [nd.count for nd in nodes]
        self.is_leaf = [nd.is_leaf for nd in nodes]

        # Child-edge table (CSR): edges grouped by parent id (ascending),
        # pivots sorted within each parent -> edge_key globally sorted.
        edge_key: list[int] = []
        edge_child: list[int] = []
        for i, node in enumerate(nodes):
            for pivot in sorted(node.children):
                edge_key.append(i * self.stride + pivot)
                edge_child.append(index_of[id(node.children[pivot])])
        self.edge_key = np.asarray(edge_key, dtype=np.int64)
        self.edge_child = np.asarray(edge_child, dtype=np.int64)
        self._edge_lookup = dict(zip(edge_key, edge_child))
        self.max_depth = max(nd.depth for nd in nodes)

        # Subtree ranges: with pre-order ids, node i's subtree is
        # [i, subtree_end[i]).  Computed leaf-to-root (reverse order): an
        # internal node ends where its last (largest-pivot) child ends.
        subtree_end = [0] * n
        for i in range(n - 1, -1, -1):
            node = nodes[i]
            if node.is_leaf:
                subtree_end[i] = i + 1
            else:
                last = node.children[max(node.children)]
                subtree_end[i] = subtree_end[index_of[id(last)]]
        self.subtree_end = subtree_end

        # Leaf tables, in pre-order: a subtree's leaves are the slice
        # [_leaves_before[s], _leaves_before[subtree_end[s]]) of each.
        self.leaf_positions = np.flatnonzero(self.is_leaf)
        leaves = [nodes[i] for i in self.leaf_positions]
        self.leaf_pids = [
            min(leaf.partition_ids) if leaf.partition_ids else -1
            for leaf in leaves
        ]
        self.leaf_keys = [cluster_key(self.group_id, leaf.path) for leaf in leaves]
        self._leaves_before = [0, *accumulate(map(int, self.is_leaf))]
        self.default_key = cluster_key(self.group_id, None)

    @property
    def n_edges(self) -> int:
        return int(self.edge_key.size)

    def descend_path_ids(self, ranked_sig: Sequence[int]) -> list[int]:
        """Node ids visited by one signature's walk, root first.

        A flat dict over composite edge keys, no per-node object hops; a
        node's depth is its position.  Matches ``TrieNode.descend_path``
        node for node.
        """
        lookup = self._edge_lookup
        stride = self.stride
        node = 0
        out = [0]
        for pivot in ranked_sig:
            nxt = lookup.get(node * stride + int(pivot))
            if nxt is None:
                break
            node = nxt
            out.append(node)
        return out

    def subtree(self, node_id: int) -> tuple[list[int], list[str]]:
        """Covering partition ids (sorted) and leaf cluster keys of a subtree.

        One slice of the leaf tables serves both: they equal
        ``sorted(node.subtree_partition_ids())`` and
        ``[cluster_key(gid, leaf.path) for leaf in node.leaves()]`` of the
        pointer node — no tree walk, no string formatting per query.
        """
        lo = self._leaves_before[node_id]
        hi = self._leaves_before[self.subtree_end[node_id]]
        pids = {pid for pid in self.leaf_pids[lo:hi] if pid >= 0}
        return sorted(pids), self.leaf_keys[lo:hi]


class FlatTrieRouter:
    """All of a skeleton's tries compiled flat, plus whole-index routing.

    Per-group :class:`FlatTrie` compiles serve the query planner; for the
    bulk build/append path the router additionally fuses every group into
    **one global CSR trie**: node ids are offset per group (group ``g``'s
    nodes occupy ``[offset[g], offset[g+1])``), the per-group edge tables
    concatenate into a single sorted composite-key table, and a batch walk
    starts each record at its group's root — so redistributing the whole
    dataset is ``prefix_length`` ``searchsorted`` sweeps total, independent
    of the group count.

    Every node maps to a *cluster id* (``kid``): the leaf's own cluster
    when a completed walk reaches a packed leaf, else the group's default
    cluster ``G<gid>/~``.  Each kid belongs to exactly one physical
    partition (``kid_pid``), and ``kid_rank`` pre-orders kids by
    ``(partition id, cluster key string)`` — so one stable integer argsort
    over ``kid_rank[kid_of]`` lands every record in exactly the layout
    :meth:`PartitionFile.from_clusters` builds from a key-sorted mapping.
    """

    def __init__(self, skeleton: IndexSkeleton, executor=None) -> None:
        self.skeleton = skeleton
        self.stride = int(skeleton.n_pivots)
        if executor is not None and executor.n_workers > 1:
            # Per-group compiles are independent pure-Python traversals, so
            # a thread pool overlaps them; map preserves group order, and
            # each FlatTrie depends only on its own group, so the result is
            # identical to the serial loop.
            self.tries = executor.map(
                lambda g: FlatTrie(g.trie, g.group_id, skeleton.n_pivots),
                skeleton.groups,
            )
        else:
            self.tries = [
                FlatTrie(g.trie, g.group_id, skeleton.n_pivots)
                for g in skeleton.groups
            ]
        n_groups = len(self.tries)
        offsets = np.zeros(n_groups + 1, dtype=np.int64)
        kid_keys: list[str] = []
        kid_pid: list[int] = []
        node_kid_parts: list[np.ndarray] = []
        edge_key_parts: list[np.ndarray] = []
        edge_child_parts: list[np.ndarray] = []
        for g, (entry, ft) in enumerate(zip(skeleton.groups, self.tries)):
            off = offsets[g]
            offsets[g + 1] = off + ft.n_nodes
            default_kid = len(kid_keys)
            kid_keys.append(ft.default_key)
            kid_pid.append(int(entry.default_partition))
            kid = np.full(ft.n_nodes, default_kid, dtype=np.int64)
            leaf_pids = np.asarray(ft.leaf_pids, dtype=np.int64)
            leaf_kids = np.arange(len(ft.leaf_keys), dtype=np.int64) \
                + len(kid_keys)
            kid_keys.extend(ft.leaf_keys)
            kid_pid.extend(ft.leaf_pids)
            # A record routes to the leaf's own cluster only when the leaf
            # is actually packed (has a partition id); an unpacked leaf
            # behaves like a stalled walk (append semantics).
            routable = leaf_pids >= 0
            kid[ft.leaf_positions[routable]] = leaf_kids[routable]
            node_kid_parts.append(kid)
            # Global edge keys: local key = local_node * stride + pivot,
            # so offsetting the node id adds off * stride.  Group blocks
            # are disjoint ascending ranges -> global table stays sorted.
            edge_key_parts.append(ft.edge_key + off * self.stride)
            edge_child_parts.append(ft.edge_child + off)
        self.node_offset = offsets
        self.root_of = offsets[:-1]
        self.node_kid = (
            np.concatenate(node_kid_parts) if node_kid_parts
            else np.zeros(0, dtype=np.int64)
        )
        self.edge_key = (
            np.concatenate(edge_key_parts) if edge_key_parts
            else np.zeros(0, dtype=np.int64)
        )
        self.edge_child = (
            np.concatenate(edge_child_parts) if edge_child_parts
            else np.zeros(0, dtype=np.int64)
        )
        self.max_depth = max((ft.max_depth for ft in self.tries), default=0)
        # Dense O(1) edge lookup: the composite key space is
        # n_nodes * stride entries, tiny for real skeletons (a few hundred
        # KB), so the batch walk can replace per-level binary searches with
        # one flat gather.  Falls back to searchsorted past the cap.
        n_nodes_total = int(offsets[-1])
        self._dense_keys = n_nodes_total * self.stride
        if 0 < self._dense_keys <= _DENSE_EDGE_MAP_CAP and self.edge_key.size:
            edge_map = np.full(self._dense_keys, -1, dtype=np.int32)
            edge_map[self.edge_key] = self.edge_child.astype(np.int32)
            self.edge_map: np.ndarray | None = edge_map
        else:
            self.edge_map = None
        self.cluster_keys = kid_keys
        self.kid_pid = np.asarray(kid_pid, dtype=np.int64)
        # Rank kids by (partition id, key string): records sorted by
        # kid_rank are grouped by ascending partition, clusters inside a
        # partition in lexicographic key order.
        key_order = np.argsort(np.asarray(kid_keys))
        key_rank = np.empty(len(kid_keys), dtype=np.int64)
        key_rank[key_order] = np.arange(len(kid_keys))
        order = np.lexsort((key_rank, self.kid_pid))
        rank = np.empty(len(kid_keys), dtype=np.int64)
        rank[order] = np.arange(len(kid_keys))
        self.kid_rank = rank

    @property
    def n_groups(self) -> int:
        return len(self.tries)

    def route(
        self, ranked: np.ndarray, group_indices: np.ndarray
    ) -> np.ndarray:
        """Resolve every record to its cluster id in one global batch walk.

        The whole-dataset replacement for the per-record ``trie.descend``
        loop of construction Step 4 / ``append``: records start at their
        group's root in the fused trie and the lockstep level walk resolves
        all still-active records with a single ``searchsorted`` per prefix
        position.  Returns ``kid_of``; partitions follow as
        ``kid_pid[kid_of]``.
        """
        arr = np.asarray(ranked, dtype=np.int64)
        gids = np.asarray(group_indices, dtype=np.int64)
        if arr.ndim != 2 or gids.ndim != 1 or arr.shape[0] != gids.shape[0]:
            raise ConfigurationError("ranked and group_indices disagree")
        if gids.size and (gids.min() < 0 or gids.max() >= self.n_groups):
            raise ConfigurationError("group index out of range")
        node = self.root_of[gids]
        q = arr.shape[0]
        if q == 0 or self.edge_key.size == 0:
            return self.node_kid[node] if q else np.zeros(0, dtype=np.int64)
        active = np.arange(q)
        n_edges = self.edge_key.size
        stride = self.stride
        edge_map = self.edge_map
        for level in range(min(arr.shape[1], self.max_depth)):
            piv = arr[active, level]
            valid = (piv >= 0) & (piv < stride)
            key = node[active] * stride + np.where(valid, piv, 0)
            if edge_map is not None:
                child = edge_map[key]
                hit = valid & (child >= 0)
                if not hit.any():
                    break
                active = active[hit]
                node[active] = child[hit]
            else:
                pos = np.searchsorted(self.edge_key, key)
                pos_c = np.minimum(pos, n_edges - 1)
                hit = valid & (self.edge_key[pos_c] == key)
                if not hit.any():
                    break
                active = active[hit]
                node[active] = self.edge_child[pos_c[hit]]
        return self.node_kid[node]

    def partition_layout(
        self, kid_of: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[int, int, int, dict[str, tuple[int, int]]]]]:
        """Sort-based grouping of routed records into partition layouts.

        Returns ``(order, parts)``: ``order`` permutes record rows into
        final storage order (ascending partition id, clusters in sorted key
        order within each partition, arrival order within each cluster —
        one stable integer argsort over the precomputed ``kid_rank``
        reproduces a per-record dict-of-lists grouping byte for byte), and
        ``parts`` lists ``(pid, start, end, header)`` per partition, with
        ``header`` mapping cluster keys to partition-relative
        ``(offset, count)``.
        """
        order = np.argsort(self.kid_rank[kid_of], kind="stable")
        n = order.size
        parts: list[tuple[int, int, int, dict[str, tuple[int, int]]]] = []
        if n == 0:
            return order, parts
        sorted_kid = kid_of[order]
        # A kid determines its partition, so cluster runs and partition
        # boundaries both fall out of kid changes alone.
        change = np.flatnonzero(sorted_kid[1:] != sorted_kid[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [n]))
        run_kid = sorted_kid[starts]
        run_pid = self.kid_pid[run_kid]
        part_first = np.flatnonzero(
            np.concatenate(([True], run_pid[1:] != run_pid[:-1]))
        )
        part_last = np.concatenate((part_first[1:], [run_pid.size]))
        keys = self.cluster_keys
        for f, l in zip(part_first, part_last):
            pstart = int(starts[f])
            header: dict[str, tuple[int, int]] = {}
            for r in range(f, l):
                s, e = int(starts[r]), int(ends[r])
                header[keys[int(run_kid[r])]] = (s - pstart, e - s)
            parts.append((int(run_pid[f]), pstart, int(ends[l - 1]), header))
        return order, parts
