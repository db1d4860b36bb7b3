"""The group partition trie (§IV-D, paper Fig. 5): the pointer oracle and
the builder's flat split against it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_group_trie, pack_leaves, trie_arrays
from repro.core.builder import split_group
from repro.exceptions import ConfigurationError


def paper_figure5_group():
    """A group shaped like the paper's G3 example: 5 250 records, c=3 000."""
    sigs = [
        (6, 2, 1), (6, 2, 5), (6, 7, 1), (6, 7, 3),
        (4, 1, 2), (5, 3, 2), (1, 2, 6),
    ]
    counts = [1200.0, 900.0, 800.0, 800.0, 900.0, 400.0, 250.0]
    return build_group_trie(sigs, counts, capacity=3000.0)


class TestBuildTrie:
    def test_total_count(self):
        root = paper_figure5_group()
        assert root.count == pytest.approx(5250.0)

    def test_root_splits_on_first_pivot(self):
        root = paper_figure5_group()
        assert set(root.children) == {6, 4, 5, 1}
        assert root.children[6].count == pytest.approx(3700.0)
        assert root.children[4].count == pytest.approx(900.0)

    def test_oversized_child_splits_recursively(self):
        """Pivot-6 child (3 700 > 3 000) must split by second pivot."""
        root = paper_figure5_group()
        six = root.children[6]
        assert not six.is_leaf
        assert set(six.children) == {2, 7}
        assert six.children[2].count == pytest.approx(2100.0)
        assert six.children[7].count == pytest.approx(1600.0)

    def test_within_capacity_children_stay_leaves(self):
        root = paper_figure5_group()
        assert root.children[4].is_leaf
        assert root.children[5].is_leaf

    def test_small_group_is_single_leaf(self):
        root = build_group_trie([(1, 2, 3)], [10.0], capacity=100.0)
        assert root.is_leaf
        assert root.count == 10.0

    def test_empty_group(self):
        root = build_group_trie([], [], capacity=100.0)
        assert root.is_leaf
        assert root.count == 0.0

    def test_leaf_counts_sum_to_total(self):
        rng = np.random.default_rng(4)
        sigs = [tuple(rng.choice(20, size=4, replace=False)) for _ in range(150)]
        counts = rng.integers(1, 500, size=150).astype(float).tolist()
        root = build_group_trie(sigs, counts, capacity=800.0)
        assert sum(l.count for l in root.leaves()) == pytest.approx(sum(counts))

    def test_split_stops_at_prefix_exhaustion(self):
        """Identical signatures cannot split further even above capacity."""
        root = build_group_trie([(1, 2)], [1e6], capacity=10.0)
        node = root.descend((1, 2))
        assert node.is_leaf
        assert node.depth == 2
        assert node.count == 1e6

    def test_mismatched_inputs(self):
        with pytest.raises(ConfigurationError):
            build_group_trie([(1, 2)], [1.0, 2.0], capacity=10.0)

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            build_group_trie([(1, 2)], [1.0], capacity=0.0)


class TestDescend:
    def test_full_path(self):
        root = paper_figure5_group()
        node = root.descend((6, 2, 1))
        assert node.path == (6, 2)  # leaf at depth 2 (2 100 <= 3 000)

    def test_paper_example2_stops_at_internal_node(self):
        """Query <6,2,7>: lands on the pivot-6/2 subtree of G3."""
        root = paper_figure5_group()
        node = root.descend((6, 2, 7))
        assert node.path == (6, 2)

    def test_unknown_first_pivot_returns_root(self):
        root = paper_figure5_group()
        assert root.descend((9, 9, 9)) is root

    def test_descend_path_lists_all_nodes(self):
        root = paper_figure5_group()
        nodes = root.descend_path((6, 2, 1))
        assert [n.path for n in nodes] == [(), (6,), (6, 2)]

    def test_descend_on_leaf_root(self):
        root = build_group_trie([(1, 2)], [5.0], capacity=10.0)
        assert root.descend((1, 2)) is root


class TestPartitionBookkeeping:
    def test_finalize_propagates_unions(self):
        root = paper_figure5_group()
        for i, leaf in enumerate(root.leaves()):
            leaf.partition_ids = {i % 2}
        assert root.subtree_partition_ids() == {0, 1}
        six = root.children[6]
        assert six.subtree_partition_ids() == set().union(
            *(leaf.partition_ids for leaf in six.leaves())
        )
        # Unions are computed on demand, never stored on internal nodes.
        assert root.partition_ids == six.partition_ids == set()

    def test_node_count(self):
        root = paper_figure5_group()
        leaves = sum(1 for _ in root.leaves())
        assert root.node_count() >= leaves
        single = build_group_trie([(1, 2)], [1.0], capacity=10.0)
        assert single.node_count() == 1

    def test_repr_smoke(self):
        assert "TrieNode" in repr(paper_figure5_group())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_trie_invariants_property(data):
    """Properties: disjoint leaf coverage, capacity respected where splittable."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(2, 5))
    n_sigs = data.draw(st.integers(1, 60))
    capacity = data.draw(st.floats(1.0, 500.0))
    sigs = [tuple(rng.choice(12, size=m, replace=False)) for _ in range(n_sigs)]
    # Deduplicate (build_group_trie expects distinct signatures with counts).
    uniq = {}
    for s in sigs:
        uniq[s] = uniq.get(s, 0.0) + float(rng.integers(1, 50))
    root = build_group_trie(list(uniq), list(uniq.values()), capacity)

    # (1) Leaves partition the mass.
    assert sum(l.count for l in root.leaves()) == pytest.approx(sum(uniq.values()))
    # (2) Every signature routes to exactly one leaf, consistent with prefix.
    for sig in uniq:
        node = root.descend(sig)
        assert node.path == sig[: node.depth]
    # (3) A leaf above capacity can exist only once its prefix is exhausted
    #     (capacity is a soft constraint, §V).
    for leaf in root.leaves():
        if leaf.count > capacity:
            assert leaf.depth == m


class TestDeepTrieIteration:
    def test_deep_trie_beyond_recursion_limit(self):
        """Splitting is iterative: a trie as deep as the prefix must build
        even when the prefix far exceeds Python's recursion limit."""
        import sys

        depth = sys.getrecursionlimit() + 500
        shared = tuple(range(depth - 1))
        sig_a = shared + (depth,)
        sig_b = shared + (depth + 1,)
        # Both signatures share a depth-1 prefix and jointly exceed the
        # capacity at every level, so the trie splits all the way down.
        root = build_group_trie([sig_a, sig_b], [60.0, 60.0], capacity=100.0)
        leaves = list(root.leaves())
        assert len(leaves) == 2
        assert sorted(leaf.path for leaf in leaves) == sorted([sig_a, sig_b])
        assert all(leaf.depth == depth for leaf in leaves)
        # Walks are iterative too.
        assert root.descend(sig_a).path == sig_a
        assert root.node_count() == depth + 2


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_builder_split_matches_pointer_trie(data):
    """Construction Step 3's flat split against the pointer oracle on the
    same group: the same nodes in the same pre-order, the same edge pivots
    and subtree ends, counts equal bit for bit, and the same FFD partition
    per leaf and default partition."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(1, 5))
    r = data.draw(st.integers(m, 12))
    n_sigs = data.draw(st.integers(0, 80))
    # Estimated counts as the builder makes them: frequency / alpha.
    alpha = data.draw(st.floats(0.01, 1.0))
    capacity = data.draw(st.floats(0.5, 400.0))
    first_pid = data.draw(st.integers(0, 50))
    sigs = sorted({tuple(int(p) for p in rng.choice(r, size=m, replace=False))
                   for _ in range(n_sigs)})
    counts = [int(f) / alpha for f in rng.integers(1, 60, size=len(sigs))]

    root = build_group_trie(sigs, counts, capacity)
    default = pack_leaves(root, capacity, first_pid)
    pivot, count, end, leaf_pid = trie_arrays(root)
    got = split_group(sigs, counts, capacity, first_pid)
    assert got[0] == pivot
    assert np.array(got[1]).tobytes() == np.array(count).tobytes()
    assert got[2] == end
    assert got[3] == leaf_pid
    assert got[4] == default


def test_builder_split_beyond_recursion_limit():
    """The builder's split is a loop too: a group as deep as a prefix far
    beyond Python's recursion limit splits all the way down."""
    import sys

    depth = sys.getrecursionlimit() + 500
    shared = tuple(range(depth - 1))
    sigs = [shared + (depth,), shared + (depth + 1,)]
    pivot, count, end, leaf_pid, default = split_group(
        sigs, [60.0, 60.0], 100.0, 0
    )
    assert len(pivot) == depth + 2
    assert pivot[:3] == [-1, 0, 1] and pivot[-2:] == [depth, depth + 1]
    assert end[0] == len(pivot)
    assert leaf_pid[-2:] == [0, 1] and default == 0
