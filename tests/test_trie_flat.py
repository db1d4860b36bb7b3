"""Parity suite for the flat trie router (core/trie_flat.py).

Every claim the flat subsystem makes is checked against the pointer-based
``oracles.TrieNode`` reference on randomized tries: the batch walk
(``FlatTrieRouter.route``) against per-record ``descend``,
``descend_path_ids`` against ``descend_path``, ``subtree`` against the
reference leaf walks, and the router's bulk ``route``/``partition_layout``
against the legacy per-record redistribution grouping.  Flat ids are
mapped to pointer nodes by the tests' own pre-order enumeration
(``oracles.preorder``), never by a table the router keeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    TrieNode,
    build_group_trie,
    pack_leaves,
    pointer_trie,
    preorder,
    skeleton_of,
)
from repro.core import ClimberConfig, ClimberIndex, FlatTrieRouter
from repro.core.skeleton import cluster_key
from repro.datasets import make_dataset
from repro.exceptions import ConfigurationError

N_PIVOTS = 24
PREFIX = 6


def lone_group_router(trie, n_pivots: int = N_PIVOTS, default_partition: int = 0):
    """A router over a skeleton holding just ``trie`` (as group 0)."""
    n_partitions = max(trie.subtree_partition_ids() | {default_partition}) + 1
    return FlatTrieRouter(skeleton_of(
        [((), trie, default_partition)], PREFIX, n_pivots, n_partitions
    ))


def flat_trie(trie, group_id: int, n_pivots: int = N_PIVOTS):
    """``trie`` flattened as group ``group_id`` of a skeleton whose other
    groups are single packed leaves."""
    spare = max(trie.subtree_partition_ids(), default=-1) + 1
    groups = []
    for gid in range(group_id):
        leaf = TrieNode(None, (), 0.0)
        leaf.partition_ids = {spare}
        groups.append(((gid,) if gid else (), leaf, spare))
    groups.append(((group_id,) if group_id else (), trie, spare))
    router = FlatTrieRouter(
        skeleton_of(groups, PREFIX, n_pivots, n_partitions=spare + 1)
    )
    return router.tries[group_id]


def random_group_trie(rng: np.random.Generator, next_pid: int = 0):
    """A packed group trie like builder Step 3 produces."""
    n_sigs = int(rng.integers(1, 120))
    sigs = set()
    while len(sigs) < n_sigs:
        sigs.add(tuple(int(p) for p in rng.permutation(N_PIVOTS)[:PREFIX]))
    sigs = sorted(sigs)
    counts = rng.uniform(1.0, 120.0, size=len(sigs)).tolist()
    capacity = float(rng.uniform(30.0, 400.0))
    trie = build_group_trie(sigs, counts, capacity)
    pack_leaves(trie, capacity, next_pid)
    pids = sorted(trie.subtree_partition_ids())
    return trie, sigs, pids, pids[-1] + 1


def random_queries(rng: np.random.Generator, sigs, n: int) -> np.ndarray:
    """A mix of member signatures and fresh random permutations."""
    rows = []
    for _ in range(n):
        if sigs and rng.random() < 0.5:
            rows.append(sigs[int(rng.integers(0, len(sigs)))])
        else:
            rows.append(tuple(int(p) for p in rng.permutation(N_PIVOTS)[:PREFIX]))
    return np.asarray(rows, dtype=np.int64)


class TestFlatTrieParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_descend_many_matches_descend(self, seed):
        rng = np.random.default_rng(seed)
        trie, sigs, pids, _ = random_group_trie(rng)
        router = lone_group_router(trie, default_partition=pids[0])
        queries = random_queries(rng, sigs, 200)
        kids = router.route(queries, np.zeros(200, dtype=np.int64))
        for row, kid in zip(queries, kids):
            node = trie.descend(row)
            assert router.cluster_keys[int(kid)] == cluster_key(
                0, node.path if node.is_leaf else None
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_descend_path_matches(self, seed):
        rng = np.random.default_rng(100 + seed)
        trie, sigs, _, _ = random_group_trie(rng)
        ft = flat_trie(trie, group_id=3)
        nodes = list(preorder(trie))
        for row in random_queries(rng, sigs, 100):
            sig = tuple(int(p) for p in row)
            ref = trie.descend_path(sig)
            got = [nodes[i] for i in ft.descend_path_ids(sig)]
            assert [id(n) for n in got] == [id(n) for n in ref]

    @pytest.mark.parametrize("seed", range(8))
    def test_covering_partitions_and_subtree_keys(self, seed):
        rng = np.random.default_rng(200 + seed)
        trie, _, _, _ = random_group_trie(rng)
        gid = int(rng.integers(0, 9))
        ft = flat_trie(trie, group_id=gid)
        nodes = list(preorder(trie))
        assert ft.n_nodes == len(nodes)
        for nid, node in enumerate(nodes):
            pids, keys = ft.subtree(nid)
            assert pids == sorted(node.subtree_partition_ids())
            assert keys == [
                cluster_key(gid, leaf.path) for leaf in node.leaves()
            ]
            assert ft.subtree_end[nid] - nid == node.node_count()
            assert ft.is_leaf[nid] == node.is_leaf
            assert ft.count[nid] == node.count

    def test_single_leaf_group(self):
        trie = build_group_trie([(1, 2, 3)], [10.0], capacity=100.0)
        trie.partition_ids = {7}
        ft = flat_trie(trie, group_id=2, n_pivots=8)
        assert ft.n_nodes == 1
        assert ft.descend_path_ids((1, 2, 3)) == [0]
        assert ft.subtree(0) == ([7], ["G2"])
        router = lone_group_router(trie, n_pivots=8, default_partition=7)
        kid = int(router.route(np.array([[1, 2, 3]]), np.array([0]))[0])
        assert router.cluster_keys[kid] == "G0"  # the root leaf's own cluster
        assert int(router.kid_pid[kid]) == 7

    def test_empty_group(self):
        """An empty group is one root leaf, packed like any leaf (Step 3
        packs every leaf): records of the group land in its cluster."""
        trie = build_group_trie([], [], capacity=10.0)
        assert pack_leaves(trie, 10.0, 0) == 0
        ft = flat_trie(trie, group_id=0, n_pivots=8)
        assert ft.n_nodes == 1 and ft.descend_path_ids((0, 1, 2)) == [0]
        assert ft.subtree(0) == ([0], ["G0"])
        router = lone_group_router(trie, n_pivots=8)
        kids = router.route(np.zeros((4, 3), dtype=np.int64),
                            np.zeros(4, dtype=np.int64))
        assert [router.cluster_keys[int(kid)] for kid in kids] == ["G0"] * 4
        assert router.kid_pid[kids].tolist() == [0] * 4

    def test_out_of_range_pivot_misses(self):
        trie = build_group_trie(
            [(0, 1), (1, 0)], [50.0, 50.0], capacity=60.0
        )
        for leaf in trie.leaves():
            leaf.partition_ids = {1}
        # pivot 5 exceeds the stride (and -1 precedes it): the walk must
        # stall at the root, not alias another node's composite key.
        for searchsorted in (False, True):
            router = lone_group_router(trie, n_pivots=2, default_partition=1)
            if searchsorted:
                router.edge_map = None
            kids = router.route(np.array([[5, 0], [-1, 0], [0, 1]]),
                                np.zeros(3, dtype=np.int64))
            assert [router.cluster_keys[int(kid)] for kid in kids] == [
                "G0/~", "G0/~", "G0/0",
            ]


def build_random_skeleton(rng: np.random.Generator):
    """A multi-group skeleton with packed tries and default partitions,
    and the pointer tries it was made from."""
    n_groups = int(rng.integers(2, 6))
    groups = []
    next_pid = 0
    for gid in range(n_groups):
        trie, sigs, pids, next_pid = random_group_trie(rng, next_pid)
        centroid = () if gid == 0 else tuple(
            sorted(int(p) for p in rng.permutation(N_PIVOTS)[:PREFIX])
        )
        groups.append((centroid, trie, pids[int(rng.integers(0, len(pids)))]))
    skeleton = skeleton_of(groups, PREFIX, N_PIVOTS, n_partitions=next_pid)
    return skeleton, [trie for _, trie, _ in groups]


def reference_route(skeleton, tries, ranked, gids):
    """The legacy per-record routing loop (builder Step 4 semantics)."""
    out = []
    for row, gid in zip(ranked, gids):
        entry = skeleton.groups[int(gid)]
        node = tries[int(gid)].descend(row)
        if node.is_leaf and node.partition_ids:
            out.append((min(node.partition_ids),
                        cluster_key(entry.group_id, node.path)))
        else:
            out.append((entry.default_partition,
                        cluster_key(entry.group_id, None)))
    return out


class TestFlatTrieRouter:
    @pytest.mark.parametrize("seed", range(6))
    def test_route_matches_per_record_walks(self, seed):
        rng = np.random.default_rng(300 + seed)
        skeleton, tries = build_random_skeleton(rng)
        router = FlatTrieRouter(skeleton)
        n = 400
        ranked = random_queries(rng, [], n)
        gids = rng.integers(0, len(skeleton.groups), size=n)
        kid_of = router.route(ranked, gids)
        ref = reference_route(skeleton, tries, ranked, gids)
        for kid, (pid, key) in zip(kid_of, ref):
            assert int(router.kid_pid[int(kid)]) == pid
            assert router.cluster_keys[int(kid)] == key

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_layout_matches_from_clusters_grouping(self, seed):
        """The sort-based grouping equals the legacy dict-of-lists layout."""
        rng = np.random.default_rng(400 + seed)
        skeleton, tries = build_random_skeleton(rng)
        router = FlatTrieRouter(skeleton)
        n = 300
        ranked = random_queries(rng, [], n)
        gids = rng.integers(0, len(skeleton.groups), size=n)
        kid_of = router.route(ranked, gids)
        order, parts = router.partition_layout(kid_of)

        # Legacy grouping: pid -> key -> arrival-ordered record rows.
        clusters: dict[int, dict[str, list[int]]] = {}
        for row, (pid, key) in enumerate(
            reference_route(skeleton, tries, ranked, gids)
        ):
            clusters.setdefault(pid, {}).setdefault(key, []).append(row)

        assert [p[0] for p in parts] == sorted(clusters)
        for pid, start, end, header in parts:
            ref_keys = sorted(clusters[pid])
            assert list(header) == ref_keys
            offset = 0
            for key in ref_keys:
                rows = clusters[pid][key]
                assert header[key] == (offset, len(rows))
                got = order[start + offset:start + offset + len(rows)]
                assert got.tolist() == rows  # stable sort: arrival order
                offset += len(rows)
            assert end - start == offset

    def test_searchsorted_fallback_matches_dense(self, monkeypatch):
        import repro.core.trie_flat as tf

        rng = np.random.default_rng(77)
        skeleton, _ = build_random_skeleton(rng)
        dense = FlatTrieRouter(skeleton)
        assert dense.edge_map is not None
        monkeypatch.setattr(tf, "_DENSE_EDGE_MAP_CAP", 0)
        sparse = FlatTrieRouter(skeleton)
        assert sparse.edge_map is None
        ranked = random_queries(rng, [], 500)
        gids = rng.integers(0, len(skeleton.groups), size=500)
        assert np.array_equal(
            dense.route(ranked, gids), sparse.route(ranked, gids)
        )

    def test_route_validates_inputs(self):
        rng = np.random.default_rng(5)
        skeleton, _ = build_random_skeleton(rng)
        router = FlatTrieRouter(skeleton)
        with pytest.raises(ConfigurationError):
            router.route(np.zeros((3, PREFIX), dtype=np.int64),
                         np.zeros(2, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            router.route(np.zeros((1, PREFIX), dtype=np.int64),
                         np.array([len(skeleton.groups)]))


class TestQueryPathUsesFlat:
    def test_index_candidates_walk_flat_arrays(self):
        dataset = make_dataset("RandomWalk", 1200, length=32, seed=4)
        index = ClimberIndex.build(
            dataset,
            ClimberConfig(word_length=8, n_pivots=32, prefix_length=6,
                          capacity=120, sample_fraction=0.2,
                          n_input_partitions=8, seed=1),
        )
        flat = index.routing.flat
        assert flat is index.skeleton.flat_router()  # one shared router
        sig = index.query_signature(dataset.values[0])
        for cand in index.group_candidates(sig):
            trie = pointer_trie(index.skeleton, cand.entry.group_id)
            nodes = list(preorder(trie))
            ref = trie.descend_path(tuple(int(p) for p in sig))
            # candidates carry flat ids, not node objects
            assert all(type(n) is int for n in cand.path)
            assert [id(nodes[n]) for n in cand.path] == [id(n) for n in ref]
            assert cand.gn_count == ref[-1].count
