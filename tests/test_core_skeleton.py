"""Tests for the index skeleton: structure, naming, serialisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GroupEntry,
    IndexSkeleton,
    SkeletonWithPivots,
    build_group_trie,
    cluster_key,
    partition_name,
)
from repro.exceptions import ConfigurationError


def make_skeleton() -> IndexSkeleton:
    fallback_trie = build_group_trie([], [], capacity=100.0)
    fallback_trie.partition_ids = {0}
    g1_trie = build_group_trie(
        [(6, 2, 1), (6, 7, 3), (4, 1, 2)], [120.0, 90.0, 60.0], capacity=100.0
    )
    for i, leaf in enumerate(g1_trie.leaves()):
        leaf.partition_ids = {i + 1}
    groups = [
        GroupEntry(0, (), fallback_trie, 0, 0.0),
        GroupEntry(1, (2, 4, 6), g1_trie, 1, 270.0),
    ]
    return IndexSkeleton(
        prefix_length=3, n_pivots=16, word_length=8,
        groups=groups, n_partitions=4,
    )


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
        with pytest.raises(ConfigurationError):
            IndexSkeleton(3, 16, 8, [GroupEntry(0, (1, 2, 3), trie, 0, 1.0)], 1)

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
            g.trie.node_count() for g in sk.groups
        )


class TestSerialisation:
    def test_roundtrip_structure(self):
        sk = make_skeleton()
        out = IndexSkeleton.from_bytes(sk.to_bytes())
        assert out.prefix_length == 3
        assert out.n_pivots == 16
        assert out.n_partitions == 4
        assert len(out.groups) == 2
        assert out.groups[1].centroid == (2, 4, 6)
        assert out.groups[1].default_partition == 1

    def test_roundtrip_trie_shape(self):
        sk = make_skeleton()
        out = IndexSkeleton.from_bytes(sk.to_bytes())
        a = sk.groups[1].trie
        b = out.groups[1].trie
        assert sorted(l.path for l in a.leaves()) == sorted(
            l.path for l in b.leaves()
        )
        assert b.count == pytest.approx(a.count)

    def test_roundtrip_partition_unions(self):
        sk = make_skeleton()
        out = IndexSkeleton.from_bytes(sk.to_bytes())
        before, after = sk.groups[1].trie, out.groups[1].trie
        assert after.subtree_partition_ids() == {1, 2, 3}
        for pivot, child in before.children.items():
            assert (after.children[pivot].subtree_partition_ids()
                    == child.subtree_partition_ids())

    def test_nbytes_positive_and_grows(self):
        sk = make_skeleton()
        small = sk.nbytes
        sk.groups.append(
            GroupEntry(2, (1, 3, 5), build_group_trie([(1, 3, 5)], [10.0], 100.0), 3, 10.0)
        )
        assert sk.nbytes > small > 0

    def test_skeleton_with_pivots_roundtrip(self):
        sk = make_skeleton()
        pivots = np.arange(16.0 * 8).reshape(16, 8)
        blob = SkeletonWithPivots(sk, pivots).to_bytes()
        out = SkeletonWithPivots.from_bytes(blob)
        np.testing.assert_array_equal(out.pivots, pivots)
        assert out.skeleton.n_partitions == 4

    def test_descend_after_roundtrip(self):
        """A deserialised trie must route signatures identically."""
        sk = make_skeleton()
        out = IndexSkeleton.from_bytes(sk.to_bytes())
        for sig in [(6, 2, 1), (6, 7, 3), (4, 1, 2), (9, 9, 9)]:
            assert (
                out.groups[1].trie.descend(sig).path
                == sk.groups[1].trie.descend(sig).path
            )


class TestDeepTrieSerialisationObjects:
    def test_trie_obj_conversion_is_iterative(self):
        """_trie_to_obj/_trie_from_obj must handle tries far deeper than
        the recursion limit (the JSON encoder's nesting ceiling is the
        only remaining bound on full to_bytes round-trips)."""
        import sys

        from repro.core import build_group_trie
        from repro.core.skeleton import IndexSkeleton

        depth = sys.getrecursionlimit() + 500
        shared = tuple(range(depth - 1))
        root = build_group_trie(
            [shared + (depth,), shared + (depth + 1,)],
            [60.0, 60.0], capacity=100.0,
        )
        for leaf, pid in zip(root.leaves(), (0, 1)):
            leaf.partition_ids = {pid}
        obj = IndexSkeleton._trie_to_obj(root)
        rebuilt = IndexSkeleton._trie_from_obj(obj, ())
        assert rebuilt.node_count() == root.node_count()
        assert [l.path for l in rebuilt.leaves()] == [
            l.path for l in root.leaves()
        ]
        # A subtree's covering set survives serialisation, at any depth.
        assert rebuilt.subtree_partition_ids() == {0, 1}
        deepest = rebuilt.descend(shared)
        assert deepest.depth == depth - 1
        assert deepest.subtree_partition_ids() == {0, 1}
