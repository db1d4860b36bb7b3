"""Flat trie routing over the skeleton's pre-order arrays.

The skeleton holds every group's partition trie as index-wide pre-order
arrays (:mod:`repro.core.skeleton`).  This module derives, once per
skeleton and with no per-node object, the lookup tables routing reads:

* a sorted **child-edge table** — one global ``edge_key`` array where the
  entry for edge ``parent --pivot--> child`` is ``parent * stride + pivot``,
  so one ``np.searchsorted`` (or one gather from a dense map) resolves an
  entire batch of (node, pivot) lookups per trie level;
* per-node **cluster ids** and pre-rendered cluster-key strings;
* **subtree ranges**: pre-order numbering makes every subtree a contiguous
  id interval, so the leaves (and therefore the covering partitions) of any
  node are a slice — no recursion at query time.

A :class:`FlatTrie` is one group's slice in group-local ids, the currency
of the query planner (:meth:`repro.core.routing.RoutingTable.plan`).
:class:`FlatTrieRouter` holds them all plus the whole-index batch walk used
by the builder's bulk redistribution and by :meth:`ClimberIndex.append`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.core.skeleton import IndexSkeleton, cluster_key
from repro.exceptions import ConfigurationError

__all__ = ["FlatTrie", "FlatTrieRouter"]

_DENSE_EDGE_MAP_CAP = 1 << 22
"""Entry cap for the router's dense edge-lookup table (int32 entries, so
16 MB at the cap); bigger composite key spaces fall back to binary search
over the sorted CSR edge table."""


class FlatTrie:
    """One group's partition trie in local pre-order ids (the root is 0).

    Node ``s``'s subtree is the id interval ``[s, subtree_end[s])``;
    ``count``, ``subtree_end`` and ``is_leaf`` are per-node lists, and the
    leaf tables (``leaf_pids``, ``leaf_keys``) list the leaves in
    pre-order.  Built by :class:`FlatTrieRouter` from slices of its
    index-wide tables.
    """

    def __init__(
        self,
        group_id: int,
        stride: int,
        count: list[float],
        subtree_end: list[int],
        edges: dict[int, int],
        leaf_pids: list[int],
        leaf_keys: list[str],
    ) -> None:
        self.stride = stride
        self.count = count
        self.subtree_end = subtree_end
        self.n_nodes = len(count)
        self.is_leaf = [end == i + 1 for i, end in enumerate(subtree_end)]
        self._edge_lookup = edges
        self.leaf_pids = leaf_pids
        self.leaf_keys = leaf_keys
        # A subtree's leaves are the slice
        # [_leaves_before[s], _leaves_before[subtree_end[s]]) of each table.
        self._leaves_before = [0, *accumulate(self.is_leaf)]
        self.default_key = cluster_key(group_id, None)

    def descend_path_ids(self, ranked_sig: Sequence[int]) -> list[int]:
        """Node ids visited by one signature's walk, root first.

        A flat dict over composite edge keys, no per-node object hops; a
        node's depth is its position.
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

        One slice of the leaf tables serves both — no tree walk, no string
        formatting per query.
        """
        lo = self._leaves_before[node_id]
        hi = self._leaves_before[self.subtree_end[node_id]]
        return sorted(set(self.leaf_pids[lo:hi])), self.leaf_keys[lo:hi]


class FlatTrieRouter:
    """Every group's :class:`FlatTrie`, plus whole-index routing.

    The per-group tries serve the query planner; for the bulk build/append
    path the router walks the skeleton's **global** node ids directly
    (group ``g``'s nodes occupy ``[node_offset[g], node_offset[g+1])``):
    one sorted composite-key edge table over all groups, and a batch walk
    that starts each record at its group's root — so redistributing the
    whole dataset is ``prefix_length`` ``searchsorted`` sweeps total,
    independent of the group count.

    Every node maps to a *cluster id* (``kid``): the leaf's own cluster
    when a completed walk reaches a leaf, else the group's default
    cluster ``G<gid>/~``.  Each kid belongs to exactly one physical
    partition (``kid_pid``), and ``kid_rank`` pre-orders kids by
    ``(partition id, cluster key string)`` — so one stable integer argsort
    over ``kid_rank[kid_of]`` lands every record in the partition layout:
    sorted keys, each cluster contiguous.
    """

    def __init__(self, skeleton: IndexSkeleton) -> None:
        self.skeleton = skeleton
        stride = self.stride = int(skeleton.n_pivots)
        offsets = skeleton.node_offset.astype(np.int64)
        pivot = skeleton.node_pivot.astype(np.int64)
        end = skeleton.subtree_end.astype(np.int64)
        parent = skeleton.node_parent
        n_nodes = end.size
        n_groups = offsets.size - 1
        self.root_of = offsets[:-1]
        group_of = np.repeat(np.arange(n_groups), np.diff(offsets))

        # Child-edge table: one composite key per non-root node, sorted —
        # grouped by parent (so by group), pivots ascending within.
        child = np.flatnonzero(parent >= 0)
        key = parent[child] * stride + pivot[child]
        order = np.argsort(key)
        self.edge_key = key[order]
        self.edge_child = child[order]

        # Cluster keys: a node's is its parent's plus "/<pivot>" — parents
        # precede children in pre-order.
        names: list[str] = []
        for g, p, pv in zip(group_of.tolist(), parent.tolist(), pivot.tolist()):
            names.append(f"G{g}" if p < 0 else f"{names[p]}/{pv}")

        # Cluster ids, group by group: the default cluster, then the
        # group's leaves in pre-order.
        is_leaf = end == np.arange(1, n_nodes + 1)
        leaves = np.flatnonzero(is_leaf)
        leaves_before = np.concatenate(([0], np.cumsum(is_leaf)))
        default_kid = leaves_before[offsets[:-1]] + np.arange(n_groups)
        self.node_kid = default_kid[group_of]
        self.node_kid[leaves] = np.arange(leaves.size) + group_of[leaves] + 1
        leaf_pid = skeleton.leaf_pid[leaves].tolist()
        leaf_keys = [names[i] for i in leaves.tolist()]

        # Per-group tries in local ids and the per-kid tables, group by
        # group: slices of the tables above.
        count = skeleton.node_count.tolist()
        ends = end.tolist()
        bounds = offsets.tolist()
        edge_bounds = np.searchsorted(self.edge_key, offsets * stride).tolist()
        leaf_bounds = leaves_before[offsets].tolist()
        self.tries, self.cluster_keys, kid_pid = [], [], []
        for g, entry in enumerate(skeleton.groups):
            lo, hi = bounds[g], bounds[g + 1]
            e_lo, e_hi = edge_bounds[g], edge_bounds[g + 1]
            l_lo, l_hi = leaf_bounds[g], leaf_bounds[g + 1]
            self.tries.append(FlatTrie(
                g, stride, count[lo:hi], [e - lo for e in ends[lo:hi]],
                dict(zip((self.edge_key[e_lo:e_hi] - lo * stride).tolist(),
                         (self.edge_child[e_lo:e_hi] - lo).tolist())),
                leaf_pid[l_lo:l_hi], leaf_keys[l_lo:l_hi],
            ))
            self.cluster_keys += [cluster_key(g, None), *leaf_keys[l_lo:l_hi]]
            kid_pid += [entry.default_partition, *leaf_pid[l_lo:l_hi]]
        self.kid_pid = np.asarray(kid_pid, dtype=np.int64)
        n_kids = len(kid_pid)

        # Dense O(1) edge lookup: the composite key space is
        # n_nodes * stride entries, tiny for real skeletons (a few hundred
        # KB), so the batch walk can replace per-level binary searches with
        # one flat gather.  Falls back to searchsorted past the cap.
        self._dense_keys = n_nodes * stride
        if 0 < self._dense_keys <= _DENSE_EDGE_MAP_CAP and self.edge_key.size:
            edge_map = np.full(self._dense_keys, -1, dtype=np.int32)
            edge_map[self.edge_key] = self.edge_child.astype(np.int32)
            self.edge_map: np.ndarray | None = edge_map
        else:
            self.edge_map = None
        # Rank kids by (partition id, key string): records sorted by
        # kid_rank are grouped by ascending partition, clusters inside a
        # partition in lexicographic key order.
        key_order = np.argsort(np.asarray(self.cluster_keys))
        key_rank = np.empty(n_kids, dtype=np.int64)
        key_rank[key_order] = np.arange(n_kids)
        order = np.lexsort((key_rank, self.kid_pid))
        rank = np.empty(n_kids, dtype=np.int64)
        rank[order] = np.arange(n_kids)
        self.kid_rank = rank

    @property
    def n_groups(self) -> int:
        return len(self.tries)

    def route(
        self, ranked: np.ndarray, group_indices: np.ndarray
    ) -> np.ndarray:
        """Resolve every record to its cluster id in one global batch walk.

        Records start at their group's root and the lockstep level walk
        resolves all still-active records with a single ``searchsorted``
        (or dense-map gather) per prefix position.  Returns ``kid_of``;
        partitions follow as ``kid_pid[kid_of]``.
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
        for level in range(arr.shape[1]):
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
