"""Trie-based partition formation within a data series group (§IV-D).

A group bigger than the capacity constraint ``c`` is split by the *first*
pivot of its members' rank-sensitive signatures; any child still over
capacity splits again by the second pivot, and so on (paper Fig. 5).  The
resulting leaves are Voronoi-style partitions: a leaf's root-to-leaf path
is the pivot-permutation prefix shared by everything stored under it.

Counts here are *estimates* at full-data scale (sample frequency divided by
the sampling fraction), since the skeleton is built from a sample.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.exceptions import ConfigurationError

__all__ = ["TrieNode", "build_group_trie", "DEFAULT_CLUSTER_SUFFIX"]

DEFAULT_CLUSTER_SUFFIX = "~"
"""Cluster-key suffix for records that cannot complete a root-to-leaf walk
and therefore live in the group's default partition (§V Step 3)."""


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
