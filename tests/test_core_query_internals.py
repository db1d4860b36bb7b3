"""Unit tests for the query-side internals of ClimberIndex."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import pointer_trie, preorder
from repro.core import (
    ClimberConfig,
    ClimberIndex,
    GroupCandidate,
    cluster_key,
    partition_name,
)
from repro.core.routing import select_primary
from repro.datasets import random_walk_dataset


@pytest.fixture(scope="module")
def built(std_index_dataset, built_index):
    # Query-internal checks are read-only: ride the shared session index.
    return std_index_dataset, built_index


class TestGroupCandidatesSlack:
    def test_slack_widens_candidate_pool(self, built):
        ds, idx = built
        sig = idx.query_signature(ds.values[3])
        strict = idx.group_candidates(sig, od_slack=0)
        slack = idx.group_candidates(sig, od_slack=2)
        assert len(slack) >= len(strict)
        # The strict set is a prefix of the slack set in OD order.
        assert {c.entry.group_id for c in strict} <= {
            c.entry.group_id for c in slack
        }

    def test_slack_never_includes_no_overlap_groups(self, built, std_index_config):
        ds, idx = built
        sig = idx.query_signature(ds.values[7])
        m = std_index_config.prefix_length
        for c in idx.group_candidates(sig, od_slack=m):
            assert c.od < m or c.entry.is_fallback

    def test_primary_always_at_min_od(self, built):
        ds, idx = built
        for i in (1, 50, 400, 2000):
            sig = idx.query_signature(ds.values[i])
            cands = idx.group_candidates(sig, od_slack=2)
            primary = idx.select_primary(cands)
            assert primary.od == min(c.od for c in cands)


def as_candidate(skeleton, gid, path=(0,), od=1, wd=0.0) -> GroupCandidate:
    """A hand-made candidate ending at flat node ``path[-1]`` of group
    ``gid``."""
    node = list(preorder(pointer_trie(skeleton, gid)))[path[-1]]
    return GroupCandidate(skeleton.groups[gid], od, wd, tuple(path),
                          node.count)


class TestCovered:
    def test_node_inside_selected_subtree(self, built):
        """A node under an already-selected subtree is never selected again;
        its ancestor, selected later, replaces it."""
        _, idx = built
        if pointer_trie(idx.skeleton, 1).is_leaf:
            pytest.skip("group 1 trie has no children in this build")
        child_id = 1  # pre-order: the root's smallest-pivot child
        down = as_candidate(idx.skeleton, 1, (0, child_id))
        # Primary at the root: the child is inside it and adds nothing.
        at_root = as_candidate(idx.skeleton, 1, (0,))
        assert idx.routing._expand_adaptive(
            at_root, [down], 10 ** 9, 10 ** 6
        ) == [(1, 0)]
        # Primary at the child: the root is not inside it, and takes over.
        assert idx.routing._expand_adaptive(
            down, [down], 10 ** 9, 10 ** 6
        ) == [(1, 0)]

    def test_different_groups_never_cover(self, built):
        """Node ids are per trie: group 2's root is not inside group 1's."""
        _, idx = built
        a = as_candidate(idx.skeleton, 1)
        b = as_candidate(idx.skeleton, 2, wd=1.0)
        assert idx.routing._expand_adaptive(
            a, [a, b], 10 ** 9, 10 ** 6
        ) == [(1, 0), (2, 0)]


class TestTargetKeys:
    def test_root_selection_includes_default_cluster(self, built):
        _, idx = built
        entry = idx.skeleton.groups[1]
        cand = as_candidate(idx.skeleton, 1)
        _, reads = idx.routing.plan("od-smallest", cand, [cand], 5, 1)
        assert partition_name(entry.default_partition) in reads
        for keys in reads.values():
            assert cluster_key(entry.group_id, None) in keys

    def test_leaf_selection_is_single_key(self, built):
        _, idx = built
        entry = idx.skeleton.groups[1]
        trie = pointer_trie(idx.skeleton, 1)
        nodes = list(preorder(trie))
        leaf_id = next(i for i, node in enumerate(nodes) if node.is_leaf)
        if leaf_id == 0:
            pytest.skip("group 1 trie is a single leaf")
        leaf = nodes[leaf_id]
        path = tuple(nodes.index(n) for n in trie.descend_path(leaf.path))
        cand = as_candidate(idx.skeleton, 1, path)
        n_selected, reads = idx.routing.plan("knn", cand, [cand], 5, 1)
        assert n_selected == 1
        assert reads == {
            partition_name(pid): [cluster_key(entry.group_id, leaf.path)]
            for pid in leaf.partition_ids
        }


# -- the planner against an oracle that shares no table with it --------------
#
# Everything below recomputes a plan from pointer tries (`descend_path`,
# `leaves`, `subtree_partition_ids`), which `oracles.pointer_trie` rebuilds
# from the skeleton's stored arrays by its own walk, and plain set algebra
# on centroids; the only things taken from the planner are its answers.

DEEP_CONFIG = ClimberConfig(
    word_length=8, n_pivots=32, prefix_length=6, capacity=25,
    sample_fraction=0.5, n_input_partitions=8, seed=5,
)


@pytest.fixture(scope="module")
def deep():
    """A second index whose tries have internal nodes several levels down."""
    ds = random_walk_dataset(2500, 64, seed=13)
    idx = ClimberIndex.build(ds, DEEP_CONFIG)
    assert max(n.depth for g in idx.skeleton.groups
               for n in preorder(pointer_trie(idx.skeleton, g.group_id))) >= 4
    return ds, idx


@pytest.fixture(scope="module", params=["shared", "deep"])
def planned(request, built, deep):
    """``(index, [(signature, candidates, primary), ...])`` over a sample of
    perturbed members; candidates carry the adaptive variant's slack."""
    ds, idx = built if request.param == "shared" else deep
    gen = np.random.default_rng(21)
    rows = gen.choice(ds.count, size=60, replace=False)
    queries = ds.values[rows] + gen.normal(scale=0.05, size=(60, ds.length))
    routed = []
    for q in queries:
        sig = tuple(int(p) for p in idx.query_signature(q))
        cands = idx.group_candidates(np.array(sig), od_slack=1)
        # A private RNG: the shared session index keeps its stream.
        primary = select_primary(cands, np.random.default_rng(0))
        routed.append((sig, cands, primary))
    return idx, routed


def oracle_reads(selected) -> dict[str, set[str]]:
    """What a selection of ``(entry, TrieNode)`` must read, from the tries."""
    reads: dict[str, set[str]] = {}
    for entry, node in selected:
        pids = set(node.subtree_partition_ids())
        keys = {cluster_key(entry.group_id, leaf.path) for leaf in node.leaves()}
        if not node.is_leaf or node.depth == 0:
            pids.add(entry.default_partition)
            keys.add(cluster_key(entry.group_id, None))
        for pid in pids:
            reads.setdefault(partition_name(pid), set()).update(keys)
    return reads


def trie_of(idx, cand: GroupCandidate):
    return pointer_trie(idx.skeleton, cand.entry.group_id)


def as_sets(reads: dict[str, list[str]]) -> dict[str, set[str]]:
    return {name: set(keys) for name, keys in reads.items()}


def pairs_of(selected) -> set[tuple[int, int]]:
    return {(entry.group_id, pid) for entry, node in selected
            for pid in node.subtree_partition_ids()}


class TestPlannerOracle:
    def test_knn_plans_exactly_gn(self, planned):
        idx, routed = planned
        internal = 0
        for sig, cands, primary in routed:
            gn = trie_of(idx, primary).descend_path(sig)[-1]
            internal += not gn.is_leaf
            n_selected, reads = idx.routing.plan("knn", primary, cands, 10, 4)
            assert n_selected == 1
            assert as_sets(reads) == oracle_reads([(primary.entry, gn)])
        if idx.config is DEEP_CONFIG:
            assert internal, "sample never stalls at an internal node"

    def test_od_smallest_plans_every_best_group_from_its_root(self, planned):
        idx, routed = planned
        m = idx.config.prefix_length
        groups = idx.skeleton.groups
        for sig, _, _ in routed:
            ods = {g.group_id: m - len(set(sig) & set(g.centroid))
                   for g in groups if not g.is_fallback}
            best = min(ods.values())
            chosen = ([groups[0]] if best >= m else
                      [groups[gid] for gid, od in ods.items() if od == best])
            cands = idx.group_candidates(np.array(sig), od_slack=0)
            primary = select_primary(cands, np.random.default_rng(0))
            n_selected, reads = idx.routing.plan(
                "od-smallest", primary, cands, 10, 4
            )
            assert n_selected == len(chosen)
            assert as_sets(reads) == oracle_reads(
                [(g, pointer_trie(idx.skeleton, g.group_id)) for g in chosen]
            )

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    @pytest.mark.parametrize("k", [120, 300, 800])
    def test_adaptive_selection_invariants(self, planned, k, factor):
        idx, routed = planned
        expanded = 0
        for sig, cands, primary in routed:
            gn = trie_of(idx, primary).descend_path(sig)[-1]
            n_selected, reads = idx.routing.plan(
                "adaptive", primary, cands, k, factor
            )
            if gn.count >= k:
                assert n_selected == 1
                assert as_sets(reads) == oracle_reads([(primary.entry, gn)])
                continue
            selected = [
                (idx.skeleton.groups[gid], list(preorder(
                    pointer_trie(idx.skeleton, gid)))[node])
                for gid, node in idx.routing._expand_adaptive(
                    primary, cands, k, factor)
            ]
            expanded += len(selected) > 1
            assert n_selected == len(selected)
            assert as_sets(reads) == oracle_reads(selected)
            # Selected subtrees are pairwise disjoint, and GN is under one.
            for i, (ea, a) in enumerate(selected):
                for eb, b in selected[i + 1:]:
                    shorter = min(a.depth, b.depth)
                    assert (ea.group_id != eb.group_id
                            or a.path[:shorter] != b.path[:shorter])
            assert any(e is primary.entry and gn.path[:n.depth] == n.path
                       for e, n in selected)
            # The partition budget, counted in distinct (group, partition).
            gn_pairs = pairs_of([(primary.entry, gn)])
            budget = factor * max(1, len(gn_pairs))
            pairs = pairs_of(selected)
            assert len(pairs) <= budget
            if factor == 1 and gn_pairs:
                assert pairs == gn_pairs  # no partition CLIMBER-kNN would not cover
            # Short of k only when nothing more could be added: every pool
            # node is inside a selected subtree or would break the budget.
            # (One record of slack for the float sums.)
            if sum(node.count for _, node in selected) < k - 1:
                for cand in cands:
                    for node in trie_of(idx, cand).descend_path(sig):
                        covered = any(
                            e is cand.entry and node.path[:n.depth] == n.path
                            for e, n in selected
                        )
                        assert covered or len(
                            pairs | pairs_of([(cand.entry, node)])
                        ) > budget
        if idx.config is DEEP_CONFIG and factor >= 4:
            assert expanded, "sample never selects more than one node"


class TestKnnBatch:
    def test_batch_matches_singles(self, built):
        ds, idx = built
        batch = idx.knn_batch(ds.values[:4], 5, variant="knn")
        assert len(batch) == 4
        for i, res in enumerate(batch):
            single = idx.knn(ds.values[i], 5, variant="knn")
            np.testing.assert_array_equal(res.ids, single.ids)

    def test_single_row_input(self, built):
        ds, idx = built
        out = idx.knn_batch(ds.values[0], 3)
        assert len(out) == 1
        assert len(out[0].ids) == 3


class TestAdaptiveBudget:
    def test_expansion_subsumes_descendants(self, built):
        """Selecting an ancestor must remove its selected descendants."""
        ds, idx = built
        # Force heavy expansion with a large k.
        res = idx.knn(ds.values[11], 800, variant="adaptive", adaptive_factor=8)
        assert len(res.ids) == 800 or res.stats.records_examined >= len(res.ids)

    def test_factor_one_equals_knn_partitions(self, built):
        ds, idx = built
        for i in (5, 25, 125):
            a = idx.knn(ds.values[i], 300, variant="adaptive", adaptive_factor=1)
            b = idx.knn(ds.values[i], 300, variant="knn")
            assert a.stats.n_partitions <= max(1, b.stats.n_partitions) + 1

    def test_larger_factor_never_fewer_partitions(self, built):
        ds, idx = built
        for i in (9, 99, 999):
            small = idx.knn(ds.values[i], 600, variant="adaptive", adaptive_factor=2)
            large = idx.knn(ds.values[i], 600, variant="adaptive", adaptive_factor=6)
            assert large.stats.n_partitions >= small.stats.n_partitions
