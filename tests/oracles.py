"""Reference implementations only tests call (DESIGN.md D4, D9).

Each is an independent, slower way to compute what an optimised path in
``repro`` computes, kept so parity suites compare two implementations
instead of one against itself:

* the pointer-based partition trie (:class:`TrieNode`,
  :func:`build_group_trie`) against the builder's flat group split and the
  flat routers, with :func:`pointer_trie` rebuilding a skeleton's group as
  pointer nodes by its own walk of the stored arrays;
* :func:`scalar_group_candidates`, the per-group Python-set routing;
* the seed kernels of group assignment (:func:`assign_reference`), centroid
  selection (:func:`compute_centroids_reference`), batch OD/WD and top-m
  pivot selection, and a per-row sort for signature prefixes
  (:func:`permutation_prefixes_reference`).  The OD/WD kernels keep the
  seed's packed uint64 bitsets behind a packer of their own
  (:func:`pack_pivot_sets`), a representation ``repro`` no longer has: it
  counts overlaps by gathering a membership table (DESIGN.md D13);
* the partition section checksum as a plain loop over 8-byte chunks
  (:func:`word_sum_reference`), against the format's NumPy kernel;
* the §VI partition layout assembled one cluster at a time
  (:func:`layout_from_clusters`), against the builder's one argsort.

Nothing under ``src/repro`` imports this module
(``tests/test_public_api.py`` checks it).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.assignment import AssignmentResult
from repro.core.centroids import _descending_order, _validate
from repro.core.packing import first_fit_decreasing
from repro.core.routing import GroupCandidate
from repro.core.skeleton import GroupEntry, IndexSkeleton
from repro.exceptions import ConfigurationError
from repro.pivots import (
    overlap_distance,
    rank_insensitive,
    total_weight,
    weight_distance,
)


# ---------------------------------------------------------------------------
# The pointer trie (§IV-D, paper Fig. 5)
# ---------------------------------------------------------------------------

class TrieNode:
    """One node of a group's partition trie.

    Attributes
    ----------
    pivot:
        The pivot id on the edge from the parent (``None`` at the root).
    path:
        Pivot ids from the root to this node — the node's permutation
        prefix.
    count:
        Estimated number of records (full-data scale) in this subtree.
    children:
        ``pivot id -> TrieNode``; empty for leaves.
    partition_ids:
        The physical partition a packed *leaf* lives in (a single id); empty
        at internal nodes, whose covering set (paper Fig. 5) is the union
        :meth:`subtree_partition_ids` computes.
    """

    __slots__ = ("pivot", "path", "count", "children", "partition_ids")

    def __init__(
        self, pivot: int | None, path: tuple[int, ...], count: float
    ) -> None:
        self.pivot = pivot
        self.path = path
        self.count = float(count)
        self.children: dict[int, TrieNode] = {}
        self.partition_ids: set[int] = set()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def depth(self) -> int:
        return len(self.path)

    def leaves(self) -> Iterator["TrieNode"]:
        """Yield leaves of this subtree in sorted pivot order.

        Iterative (like every traversal here): tries can be as deep as the
        signature prefix, beyond Python's recursion limit at large ``m``.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
                continue
            for pivot in sorted(node.children, reverse=True):
                stack.append(node.children[pivot])

    def descend(self, ranked_sig: Sequence[int]) -> "TrieNode":
        """Deepest node reachable by following the signature (Algorithm 3 L11)."""
        node = self
        for pivot in ranked_sig:
            child = node.children.get(int(pivot))
            if child is None:
                return node
            node = child
        return node

    def descend_path(self, ranked_sig: Sequence[int]) -> list["TrieNode"]:
        """All nodes visited on the walk, root first, deepest last."""
        nodes = [self]
        node = self
        for pivot in ranked_sig:
            child = node.children.get(int(pivot))
            if child is None:
                break
            node = child
            nodes.append(node)
        return nodes

    def subtree_partition_ids(self) -> set[int]:
        """Union of the subtree's leaf partition ids — its covering set."""
        out: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out |= node.partition_ids
            else:
                stack.extend(node.children.values())
        return out

    def node_count(self) -> int:
        total = 0
        stack = [self]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children.values())
        return total

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"{len(self.children)} children"
        return f"TrieNode(path={self.path}, count={self.count:.0f}, {kind})"


def build_group_trie(
    signatures: Sequence[tuple[int, ...]],
    counts: Sequence[float],
    capacity: float,
) -> TrieNode:
    """Build the partition trie of one group (paper Fig. 5).

    Parameters
    ----------
    signatures:
        Distinct rank-sensitive signatures of the group's (sampled) members.
    counts:
        Estimated full-scale record count per signature.
    capacity:
        Capacity constraint ``c`` (records).  Nodes above it keep splitting
        while signature positions remain.

    Returns
    -------
    TrieNode
        The group's trie root.  A group within capacity yields a root-leaf.
    """
    if len(signatures) != len(counts):
        raise ConfigurationError("signatures and counts length mismatch")
    if capacity <= 0:
        raise ConfigurationError("capacity must be positive")
    total = float(sum(counts))
    root = TrieNode(None, (), total)
    if not signatures:
        return root
    prefix_len = len(signatures[0])
    _split(root, list(zip(signatures, (float(c) for c in counts))), capacity, prefix_len)
    return root


def _split(
    node: TrieNode,
    members: list[tuple[tuple[int, ...], float]],
    capacity: float,
    prefix_len: int,
) -> None:
    """Split ``node`` while it exceeds capacity (Fig. 5).

    Iterative with an explicit work stack: a trie can be as deep as the
    signature prefix, and at large ``m`` a recursive formulation walks off
    Python's recursion limit long before the prefix is exhausted.
    """
    stack: list[tuple[TrieNode, list[tuple[tuple[int, ...], float]]]] = [
        (node, members)
    ]
    while stack:
        node, members = stack.pop()
        if node.count <= capacity or node.depth >= prefix_len:
            continue
        buckets: dict[int, list[tuple[tuple[int, ...], float]]] = {}
        for sig, cnt in members:
            buckets.setdefault(int(sig[node.depth]), []).append((sig, cnt))
        for pivot in sorted(buckets):
            subset = buckets[pivot]
            child = TrieNode(
                pivot, node.path + (pivot,), sum(c for _, c in subset)
            )
            node.children[pivot] = child
            stack.append((child, subset))


def pack_leaves(root: TrieNode, capacity: float, first_pid: int) -> int:
    """FFD-pack a trie's leaves into partitions ``first_pid, ...`` (Def. 13),
    the way construction Step 3 packed pointer tries; returns the group's
    default partition, the least loaded bin's."""
    leaves = list(root.leaves())
    bins = first_fit_decreasing(
        [(leaf.path, leaf.count) for leaf in leaves], capacity
    )
    leaf_by_path = {leaf.path: leaf for leaf in leaves}
    bin_loads: list[float] = []
    for pid, bin_paths in enumerate(bins, start=first_pid):
        load = 0.0
        for path in bin_paths:
            leaf = leaf_by_path[path]
            leaf.partition_ids = {pid}
            load += leaf.count
        bin_loads.append(load)
    return first_pid + int(np.argmin(bin_loads))


def preorder(node: TrieNode) -> Iterator[TrieNode]:
    """A pointer trie's nodes in pre-order, children by ascending pivot:
    position ``i`` is the node the flat arrays call ``i``."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for pivot in sorted(node.children, reverse=True):
            stack.append(node.children[pivot])


def trie_arrays(root: TrieNode) -> tuple[list[int], list[float], list[int], list[int]]:
    """A pointer trie as the skeleton stores a group: pre-order edge pivots
    (``-1`` at the root), counts, subtree ends and leaf partitions (``-1``
    where there is none), in group-local ids."""
    nodes = list(preorder(root))
    index_of = {id(node): i for i, node in enumerate(nodes)}
    end = list(range(1, len(nodes) + 1))
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        if not node.is_leaf:
            end[i] = end[index_of[id(node.children[max(node.children)])]]
    return (
        [-1 if node.pivot is None else node.pivot for node in nodes],
        [node.count for node in nodes],
        end,
        [min(node.partition_ids) if node.is_leaf and node.partition_ids
         else -1 for node in nodes],
    )


def skeleton_of(
    groups: Sequence[tuple[tuple[int, ...], TrieNode, int]],
    prefix_length: int,
    n_pivots: int,
    n_partitions: int,
    word_length: int = 8,
    series_length: int = 64,
) -> IndexSkeleton:
    """An :class:`IndexSkeleton` over hand-made ``(centroid, packed pointer
    trie, default partition)`` groups, group 0 first."""
    offsets, pivot, count, end, leaf_pid = [0], [], [], [], []
    for _, trie, _ in groups:
        p, c, e, l = trie_arrays(trie)
        end += [x + offsets[-1] for x in e]
        pivot += p
        count += c
        leaf_pid += l
        offsets.append(offsets[-1] + len(p))
    return IndexSkeleton(
        prefix_length=prefix_length, n_pivots=n_pivots,
        word_length=word_length, series_length=series_length,
        groups=[GroupEntry(gid, tuple(centroid), default)
                for gid, (centroid, _, default) in enumerate(groups)],
        n_partitions=n_partitions, node_offset=offsets, node_pivot=pivot,
        node_count=count, subtree_end=end, leaf_pid=leaf_pid,
        # No sample lies behind a hand-made skeleton: the least valid counts.
        sample_records=1, sample_signatures=1, sample_pivot_sets=1,
    )


@lru_cache(maxsize=16)
def pointer_tries(skeleton: IndexSkeleton) -> tuple[TrieNode, ...]:
    """Every group of ``skeleton`` as a pointer trie, rebuilt by walking the
    stored pre-order arrays with a stack of open subtrees — none of the
    routers' tables."""
    pivot = skeleton.node_pivot.tolist()
    count = skeleton.node_count.tolist()
    end = skeleton.subtree_end.tolist()
    leaf_pid = skeleton.leaf_pid.tolist()
    offsets = skeleton.node_offset.tolist()
    roots = []
    for lo, hi in zip(offsets, offsets[1:]):
        root = TrieNode(None, (), count[lo])
        open_nodes = [(root, end[lo])]
        for i in range(lo, hi):
            if i > lo:
                while open_nodes[-1][1] <= i:
                    open_nodes.pop()
                parent = open_nodes[-1][0]
                node = TrieNode(pivot[i], parent.path + (pivot[i],), count[i])
                parent.children[pivot[i]] = node
                open_nodes.append((node, end[i]))
            else:
                node = root
            if leaf_pid[i] >= 0:
                node.partition_ids = {leaf_pid[i]}
        roots.append(root)
    return tuple(roots)


def pointer_trie(skeleton: IndexSkeleton, group_id: int) -> TrieNode:
    """Group ``group_id`` of ``skeleton`` as a pointer trie."""
    return pointer_tries(skeleton)[group_id]


# ---------------------------------------------------------------------------
# Scalar routing (the pre-vectorisation seed path)
# ---------------------------------------------------------------------------

def scalar_group_candidates(
    index, ranked_sig: np.ndarray, od_slack: int = 0
) -> list[GroupCandidate]:
    """Per-group Python-set routing — the pre-vectorisation reference.

    Walks the pointer tries and numbers the nodes it visits by its own
    pre-order count (a child's id is its parent's, plus one, plus the
    sizes of the siblings sorted before it), never from a flat table.
    """
    sig = tuple(int(p) for p in ranked_sig)
    unranked = tuple(sorted(sig))
    m = index.config.prefix_length
    skeleton = index.skeleton
    weights = index.routing.weights
    ods = [
        overlap_distance(unranked, g.centroid) if not g.is_fallback else m
        for g in skeleton.groups
    ]
    best = min(ods[1:]) if len(ods) > 1 else m
    if best >= m:
        chosen = [(skeleton.groups[0], m)]
    else:
        limit = min(best + od_slack, m - 1)
        chosen = [
            (g, od) for g, od in zip(skeleton.groups, ods)
            if od <= limit and not g.is_fallback
        ]
    out = []
    for g, od in chosen:
        wd = (
            weight_distance(sig, g.centroid, weights)
            if g.centroid
            else float(np.sum(weights))
        )
        nodes = pointer_trie(skeleton, g.group_id).descend_path(sig)
        ids = [0]
        for parent, child in zip(nodes, nodes[1:]):
            ids.append(ids[-1] + 1 + sum(
                sibling.node_count()
                for pivot, sibling in parent.children.items()
                if pivot < child.pivot
            ))
        out.append(GroupCandidate(g, od, wd, tuple(ids), nodes[-1].count))
    out.sort(key=lambda c: (c.od, c.wd, c.entry.group_id))
    return out


# ---------------------------------------------------------------------------
# Seed kernels of the conversion pipeline
# ---------------------------------------------------------------------------

def assign_reference(assigner, ranked: np.ndarray) -> AssignmentResult:
    """The retained seed implementation of ``GroupAssigner.assign``: per-row
    WD tie-break loop.

    A faithful transcription of the pre-vectorisation ``assign`` —
    rank-insensitive sort before packing, the seed 3-D broadcast OD
    kernel (:func:`overlap_distance_matrix_reference`), the full-width
    WD matrix through the seed :func:`weight_distance_matrix_reference`
    kernel, and a Python loop with per-row ``flatnonzero`` +
    ``rng.choice`` draws on ``assigner.rng`` (only the WD tie tolerance
    follows the relative-tolerance fix).  Keeping the seed kernels makes
    the parity suite adversarial: two independent implementations must
    agree bit for bit — group indices, tie counters and RNG stream
    consumption.
    """
    ranked = np.asarray(ranked, dtype=np.int64)
    if ranked.ndim != 2 or ranked.shape[1] != assigner.prefix_length:
        raise ConfigurationError(
            f"expected (d, {assigner.prefix_length}) ranked signatures"
        )
    m = assigner.prefix_length
    unranked = rank_insensitive(ranked)
    packed = pack_pivot_sets(unranked, assigner.n_pivots)
    packed_centroids = pack_pivot_sets(
        np.asarray(assigner.centroids, dtype=np.int64), assigner.n_pivots
    )
    od = overlap_distance_matrix_reference(packed, packed_centroids, m)

    best_od = od.min(axis=1)
    out = np.zeros(ranked.shape[0], dtype=np.int64)

    # Lines 3-5: zero overlap with every centroid -> fall-back group 0.
    fallback = best_od == m
    # Lines 6-7: unique smallest OD.
    is_best = od == best_od[:, None]
    n_best = is_best.sum(axis=1)
    unique = (~fallback) & (n_best == 1)
    out[unique] = od[unique].argmin(axis=1) + 1

    # Lines 8-14: OD ties -> Weight Distance, then random.
    tied = (~fallback) & (n_best > 1)
    od_ties = int(tied.sum())
    wd_ties = 0
    if od_ties:
        rows = np.flatnonzero(tied)
        wd = weight_distance_matrix_reference(
            ranked[rows], packed_centroids, assigner.n_pivots,
            assigner.weights,
        )
        # Restrict to the OD-tied centroids per row.
        wd = np.where(is_best[rows], wd, np.inf)
        best_wd = wd.min(axis=1)
        wd_best = wd <= best_wd[:, None] + assigner._wd_tol
        n_wd_best = wd_best.sum(axis=1)
        for local, row in enumerate(rows):
            candidates = np.flatnonzero(wd_best[local])
            if n_wd_best[local] == 1:
                out[row] = candidates[0] + 1
            else:
                wd_ties += 1
                out[row] = int(assigner.rng.choice(candidates)) + 1
    return AssignmentResult(out, od_ties, wd_ties)


def compute_centroids_reference(
    signatures: Sequence[tuple[int, ...]],
    frequencies: Sequence[int],
    *,
    sample_fraction: float,
    capacity: int,
    epsilon: int,
    max_centroids: int | None = None,
) -> list[tuple[int, ...]]:
    """The retained tuple-wise Algorithm 2 (parity oracle / baseline).

    Semantics-identical to ``compute_centroids``; the epsilon scan is
    the original O(candidates x selected) ``overlap_distance`` loop.
    """
    _validate(signatures, frequencies, sample_fraction, capacity)
    if not signatures:
        return []
    sigs, freqs, total_freq = _descending_order(signatures, frequencies)

    selected: list[tuple[int, ...]] = [sigs[0]]  # line 3
    selected_freq = freqs[0]
    size_threshold = sample_fraction * capacity  # line 12: alpha * c

    for i in range(1, len(sigs)):
        if max_centroids is not None and len(selected) >= max_centroids:
            break  # lines 15-16
        # Lines 5-9: skip candidates too close to an existing centroid.
        if any(overlap_distance(sigs[i], c) < epsilon for c in selected):
            continue
        # Lines 10-12: estimate the candidate group's size assuming the
        # remaining (non-centroid) mass spreads uniformly over the groups.
        remaining = total_freq - selected_freq - freqs[i]
        size_est = freqs[i] + remaining / (len(selected) + 1)
        if size_est < size_threshold:
            break  # line 13: later candidates are rarer still
        selected.append(sigs[i])  # line 14
        selected_freq += freqs[i]
    return selected


def words_for(n_pivots: int) -> int:
    """Number of uint64 words needed to hold a set over ``n_pivots`` bits."""
    if n_pivots < 1:
        raise ConfigurationError("n_pivots must be >= 1")
    return (n_pivots + 63) // 64


def pack_pivot_sets(signatures: np.ndarray, n_pivots: int) -> np.ndarray:
    """The seed kernels' bitset encoding: ``(d, m)`` pivot-id rows as
    ``(d, words_for(n_pivots))`` uint64 bitsets.

    Order within a row is irrelevant (a set encoding); ids must lie in
    ``[0, n_pivots)``.
    """
    arr = np.asarray(signatures, dtype=np.int64)
    if arr.ndim != 2:
        raise ConfigurationError("signatures must be a (d, m) matrix")
    if arr.size and (arr.min() < 0 or arr.max() >= n_pivots):
        raise ConfigurationError(
            f"pivot id out of range [0, {n_pivots}) in signature matrix"
        )
    out = np.zeros((arr.shape[0], words_for(n_pivots)), dtype=np.uint64)
    word_idx = arr >> 6
    bit = np.uint64(1) << (arr & 63).astype(np.uint64)
    rows = np.arange(arr.shape[0])
    for j in range(arr.shape[1]):
        out[rows, word_idx[:, j]] |= bit[:, j]
    return out


def overlap_distance_matrix_reference(
    packed_objects: np.ndarray, packed_centroids: np.ndarray, prefix_length: int
) -> np.ndarray:
    """The seed batch-OD kernel.

    One ``(d, k, words)`` 3-D broadcast AND + popcount + word-axis sum —
    the same integers as ``m - repro.pivots.overlap_counts``.
    """
    a = np.asarray(packed_objects, dtype=np.uint64)
    b = np.asarray(packed_centroids, dtype=np.uint64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ConfigurationError("packed signature word counts differ")
    inter = np.bitwise_count(a[:, None, :] & b[None, :, :]).sum(
        axis=2, dtype=np.uint16
    )
    return (np.uint16(prefix_length) - inter).astype(np.uint16)


def weight_distance_matrix_reference(
    ranked: np.ndarray,
    centroid_sets: np.ndarray,
    n_pivots: int,
    weights: np.ndarray,
) -> np.ndarray:
    """The seed batch-WD kernel.

    Chunked uint64 shift/popcount extraction with rank-sequential
    accumulation — bit-identical to the scalar ``weight_distance`` and to
    the Weight Distances ``GroupAssigner`` gathers from its membership
    table.
    """
    arr = np.asarray(ranked, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != w.shape[0]:
        raise ConfigurationError("ranked shape does not match weights length")
    cs = np.asarray(centroid_sets)
    if cs.dtype != np.uint64:
        cs = pack_pivot_sets(cs, n_pivots)
    if cs.shape[1] != words_for(n_pivots):
        raise ConfigurationError("packed centroid width does not match n_pivots")
    tw = total_weight(w)
    d, m = arr.shape
    k = cs.shape[0]
    matched = np.zeros((d, k), dtype=np.float64)
    one = np.uint64(1)
    chunk = max(1, (1 << 22) // max(1, k * m))
    for start in range(0, d, chunk):
        rows = arr[start:start + chunk]
        words = cs[:, rows >> 6]  # (k, chunk, m)
        bits = (words >> (rows & 63).astype(np.uint64)) & one
        contrib = bits.astype(np.float64) * w  # (k, chunk, m)
        ranks = contrib.transpose(2, 1, 0)  # (m, chunk, k) view
        out = matched[start:start + chunk]
        for rank in range(m):
            out += ranks[rank]
    return tw - matched


def permutation_prefixes_reference(d2: np.ndarray, m: int) -> np.ndarray:
    """The ``m`` nearest pivot ids of each row of a ``(d, r)`` distance
    matrix, one ``lexsort`` per row: ascending distance, then ascending
    pivot id — the order Def. 5's signatures are defined by."""
    ids = np.arange(d2.shape[1])
    return np.array(
        [np.lexsort((ids, row))[:m] for row in d2], dtype=np.int64
    ).reshape(d2.shape[0], m)


def _topm_ranked_reference(d2: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The seed one-shot top-m pass of ``permutation_prefixes``.

    One full-width ``argpartition`` + gather + ``lexsort`` over the whole
    matrix — bit-identical to the blocked ``_topm_ranked`` and the
    baseline its tile sizing was measured against.
    """
    part = np.argpartition(d2, m, axis=1)[:, : m + 1]
    vals = np.take_along_axis(d2, part, axis=1)
    order = np.lexsort((part, vals), axis=1)
    ranked = np.take_along_axis(part, order, axis=1)[:, :m]
    vboundary = np.take_along_axis(vals, order[:, m - 1:], axis=1)
    return ranked, vboundary[:, 1] <= vboundary[:, 0]


# ---------------------------------------------------------------------------
# The partition section checksum (DESIGN.md D12)
# ---------------------------------------------------------------------------

def word_sum_reference(data: bytes) -> int:
    """The v4 section checksum, one Python integer at a time: the sum of
    ``data``'s little-endian 64-bit words, the last zero-padded to eight
    bytes, mod 2**64."""
    total = 0
    for start in range(0, len(data), 8):
        total += int.from_bytes(data[start:start + 8].ljust(8, b"\0"),
                                "little")
    return total % 2**64


# ---------------------------------------------------------------------------
# The partition layout (§VI)
# ---------------------------------------------------------------------------

class Layout(NamedTuple):
    """One partition's records and cluster directory: the arguments
    ``SimulatedDFS.write_partition_arrays(pid, *layout)`` takes."""

    ids: np.ndarray
    values: np.ndarray
    header: dict[str, tuple[int, int]]

    def records(self, keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, values)`` of the clusters ``keys``, in that order."""
        rows = np.concatenate([np.arange(start, start + count)
                               for start, count in map(self.header.get, keys)])
        return self.ids[rows], self.values[rows]


def layout_from_clusters(
    mapping: dict[str, tuple[np.ndarray, np.ndarray]],
) -> Layout:
    """The records of ``{cluster_key: (ids, values)}`` in the paper's §VI
    layout, one cluster at a time: sorted keys, each cluster contiguous;
    ``header`` maps each key, in sorted order, to its ``(offset, count)``
    in the records."""
    ids_parts, value_parts = [], []
    header: dict[str, tuple[int, int]] = {}
    offset = 0
    for key in sorted(mapping):
        ids, values = mapping[key]
        ids = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        assert values.ndim == 2 and ids.shape == (values.shape[0],), key
        header[key] = (offset, ids.shape[0])
        offset += ids.shape[0]
        ids_parts.append(ids)
        value_parts.append(values)
    return Layout(np.concatenate(ids_parts), np.vstack(value_parts), header)
