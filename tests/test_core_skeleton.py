"""Tests for the index skeleton: structure, naming, serialisation."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import build_group_trie, pack_leaves, pointer_trie, skeleton_of
from repro.core import (
    IndexSkeleton,
    SkeletonWithPivots,
    cluster_key,
    partition_name,
)
from repro.exceptions import ConfigurationError

TRIE_ARRAYS = ("node_offset", "node_pivot", "node_count", "subtree_end",
               "leaf_pid")


def make_groups() -> list:
    fallback_trie = build_group_trie([], [], capacity=100.0)
    fallback_trie.partition_ids = {0}
    g1_trie = build_group_trie(
        [(6, 2, 1), (6, 7, 3), (4, 1, 2)], [120.0, 90.0, 60.0], capacity=100.0
    )
    for i, leaf in enumerate(g1_trie.leaves()):
        leaf.partition_ids = {i + 1}
    return [((), fallback_trie, 0), ((2, 4, 6), g1_trie, 1)]


def make_skeleton(groups=None, n_partitions: int = 4) -> IndexSkeleton:
    return skeleton_of(groups or make_groups(), prefix_length=3, n_pivots=16,
                       n_partitions=n_partitions)


class TestNaming:
    def test_partition_name(self):
        assert partition_name(7) == "beta7"

    def test_cluster_key_leaf(self):
        assert cluster_key(3, (4, 6)) == "G3/4/6"

    def test_cluster_key_root(self):
        assert cluster_key(3, ()) == "G3"

    def test_cluster_key_default(self):
        assert cluster_key(3, None) == "G3/~"

    def test_keys_unambiguous_across_groups(self):
        assert not cluster_key(1, (0,)).startswith(cluster_key(11, ()))


class TestSkeleton:
    def test_requires_fallback_first(self):
        trie = build_group_trie([], [], capacity=10.0)
        trie.partition_ids = {0}
        with pytest.raises(ConfigurationError):
            skeleton_of([((1, 2, 3), trie, 0)], 3, 16, n_partitions=1)

    def test_centroids_exclude_fallback(self):
        sk = make_skeleton()
        assert sk.centroids == [(2, 4, 6)]

    def test_group_lookup(self):
        sk = make_skeleton()
        assert sk.group(1).centroid == (2, 4, 6)
        with pytest.raises(ConfigurationError):
            sk.group(5)

    def test_is_fallback(self):
        sk = make_skeleton()
        assert sk.group(0).is_fallback
        assert not sk.group(1).is_fallback

    def test_total_trie_nodes(self):
        sk = make_skeleton()
        assert sk.total_trie_nodes() == sum(
            trie.node_count() for _, trie, _ in make_groups()
        )

    def test_arrays_are_preorder(self):
        """Each group's root, then children by ascending pivot, each
        subtree a contiguous id range: G1 splits 6 -> 6/2 -> 6/2/1."""
        sk = make_skeleton()
        assert sk.node_offset.tolist() == [0, 1, 7]
        assert sk.node_pivot.tolist() == [-1, -1, 4, 6, 2, 1, 7]
        assert sk.subtree_end.tolist() == [1, 7, 3, 7, 6, 6, 7]
        assert sk.leaf_pid.tolist() == [0, -1, 1, -1, -1, 2, 3]
        assert sk.node_parent.tolist() == [-1, -1, 1, 1, 3, 4, 3]
        assert sk.node_count.tolist() == [
            0.0, 270.0, 60.0, 210.0, 120.0, 120.0, 90.0
        ]


class TestSerialisation:
    def test_roundtrip_structure(self):
        sk = make_skeleton()
        out = IndexSkeleton.from_bytes(sk.to_bytes())
        assert out.prefix_length == 3
        assert out.n_pivots == 16
        assert out.n_partitions == 4
        assert out.series_length == sk.series_length
        assert len(out.groups) == 2
        assert out.groups[1].centroid == (2, 4, 6)
        assert out.groups[1].default_partition == 1

    def test_roundtrip_arrays_bit_for_bit(self):
        sk = make_skeleton()
        blob = sk.to_bytes()
        out = IndexSkeleton.from_bytes(blob)
        for name in TRIE_ARRAYS:
            before, after = getattr(sk, name), getattr(out, name)
            assert after.dtype == before.dtype
            assert after.tobytes() == before.tobytes()
        assert out.to_bytes() == blob

    def test_roundtrip_trie_shape(self):
        sk = make_skeleton()
        out = IndexSkeleton.from_bytes(sk.to_bytes())
        a = pointer_trie(sk, 1)
        b = pointer_trie(out, 1)
        assert sorted(l.path for l in a.leaves()) == sorted(
            l.path for l in b.leaves()
        )
        assert b.count == a.count

    def test_roundtrip_partition_unions(self):
        sk = make_skeleton()
        out = IndexSkeleton.from_bytes(sk.to_bytes())
        before, after = pointer_trie(sk, 1), pointer_trie(out, 1)
        assert after.subtree_partition_ids() == {1, 2, 3}
        for pivot, child in before.children.items():
            assert (after.children[pivot].subtree_partition_ids()
                    == child.subtree_partition_ids())

    def test_nbytes_positive_and_grows(self):
        """The serialised size — the paper's global index size — counts
        every group's trie."""
        small = len(make_skeleton().to_bytes())
        extra = build_group_trie([(1, 3, 5)], [10.0], 100.0)
        pack_leaves(extra, 100.0, 4)
        bigger = make_skeleton(make_groups() + [((1, 3, 5), extra, 4)], 5)
        assert len(bigger.to_bytes()) > small > 0

    def test_skeleton_with_pivots_roundtrip(self):
        sk = make_skeleton()
        pivots = np.arange(16.0 * 8).reshape(16, 8)
        blob = SkeletonWithPivots(sk, pivots).to_bytes()
        out = SkeletonWithPivots.from_bytes(blob)
        np.testing.assert_array_equal(out.pivots, pivots)
        assert out.skeleton.n_partitions == 4

    def test_descend_after_roundtrip(self):
        """A deserialised skeleton must route signatures identically."""
        sk = make_skeleton()
        out = IndexSkeleton.from_bytes(sk.to_bytes())
        for sig in [(6, 2, 1), (6, 7, 3), (4, 1, 2), (9, 9, 9)]:
            assert (out.flat_router().tries[1].descend_path_ids(sig)
                    == sk.flat_router().tries[1].descend_path_ids(sig))
            assert (pointer_trie(out, 1).descend(sig).path
                    == pointer_trie(sk, 1).descend(sig).path)


class TestDeepTrieSerialisationObjects:
    def test_trie_obj_conversion_is_iterative(self):
        """A trie far deeper than the recursion limit round-trips through
        the skeleton bytes and routes: checking, deriving parents and
        flattening are all loops, and arrays have no nesting limit."""
        import sys

        depth = sys.getrecursionlimit() + 500
        shared = tuple(range(depth - 1))
        root = build_group_trie(
            [shared + (depth,), shared + (depth + 1,)],
            [60.0, 60.0], capacity=100.0,
        )
        for leaf, pid in zip(root.leaves(), (0, 1)):
            leaf.partition_ids = {pid}
        sk = skeleton_of([((), root, 0)], prefix_length=depth,
                         n_pivots=depth + 2, n_partitions=2)
        rebuilt = IndexSkeleton.from_bytes(sk.to_bytes())
        assert rebuilt.total_trie_nodes() == root.node_count()
        trie = pointer_trie(rebuilt, 0)
        assert [l.path for l in trie.leaves()] == [
            l.path for l in root.leaves()
        ]
        # A subtree's covering set survives serialisation, at any depth.
        ft = rebuilt.flat_router().tries[0]
        path = ft.descend_path_ids(shared)
        assert len(path) == depth
        assert ft.subtree(path[-1])[0] == [0, 1]
