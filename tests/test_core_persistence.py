"""Tests for index persistence: save_global_index / reopen."""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.core.skeleton import SkeletonWithPivots
from repro.datasets import random_walk_dataset
from repro.exceptions import ConfigurationError, StorageError
from repro.storage import SimulatedDFS
from repro.storage.serialization import json_to_bytes, read_blob, write_blob


CFG = ClimberConfig(word_length=8, n_pivots=24, prefix_length=5,
                    capacity=120, sample_fraction=0.25,
                    n_input_partitions=12, seed=4)


@pytest.fixture(scope="module")
def built():
    ds = random_walk_dataset(1500, 48, seed=3)
    dfs = SimulatedDFS()
    index = ClimberIndex.build(ds, CFG, dfs=dfs)
    return ds, dfs, index


class TestPersistence:
    def test_global_index_roundtrips(self, built):
        _, dfs, index = built
        blob = index.save_global_index()
        reopened = ClimberIndex.reopen(blob, dfs, CFG)
        assert reopened.n_groups == index.n_groups
        assert reopened.n_partitions == index.n_partitions
        np.testing.assert_array_equal(reopened.pivots, index.pivots)

    def test_reopened_index_answers_identically(self, built):
        ds, dfs, index = built
        reopened = ClimberIndex.reopen(index.save_global_index(), dfs, CFG)
        for i in (0, 77, 512, 1400):
            a = index.knn(ds.values[i], 10, variant="knn")
            b = reopened.knn(ds.values[i], 10, variant="knn")
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_allclose(a.distances, b.distances, atol=1e-12)

    def test_reopened_adaptive_variant_works(self, built):
        ds, dfs, index = built
        reopened = ClimberIndex.reopen(index.save_global_index(), dfs, CFG)
        res = reopened.knn(ds.values[9], 200, variant="adaptive")
        assert len(res.ids) > 0

    def test_reopen_counts_records(self, built):
        ds, dfs, index = built
        reopened = ClimberIndex.reopen(index.save_global_index(), dfs, CFG)
        assert reopened.n_records == ds.count

    def test_reopen_rejects_mismatched_prefix(self, built):
        _, dfs, index = built
        bad = ClimberConfig(word_length=8, n_pivots=24, prefix_length=6,
                            capacity=120, sample_fraction=0.25)
        with pytest.raises(ConfigurationError):
            ClimberIndex.reopen(index.save_global_index(), dfs, bad)

    @pytest.mark.parametrize("field, value", [
        ("n_pivots", 32),
        ("word_length", 6),
    ])
    def test_reopen_rejects_mismatched_pivot_geometry(self, built, field,
                                                      value):
        """A config that disagrees with the persisted pivot count or word
        length is refused by ``reopen`` itself, before any query."""
        _, dfs, index = built
        bad = dataclasses.replace(CFG, **{field: value})
        before = dfs.counters
        with pytest.raises(ConfigurationError, match=field):
            ClimberIndex.reopen(index.save_global_index(), dfs, bad)
        assert dfs.counters == before

    def test_reopen_rejects_pivot_matrix_of_another_shape(self, built):
        """The pivot matrix itself is checked, not only the skeleton's
        record of it: the signature kernel reads the matrix."""
        _, dfs, index = built
        narrower = SkeletonWithPivots(index.skeleton, index.pivots[:, :6])
        with pytest.raises(ConfigurationError, match="pivot matrix"):
            ClimberIndex.reopen(narrower.to_bytes(), dfs, CFG)

    def test_disk_backed_end_to_end(self, tmp_path):
        """Build on a disk-backed DFS, reopen, query — fully persistent."""
        ds = random_walk_dataset(800, 32, seed=6)
        cfg = ClimberConfig(word_length=8, n_pivots=16, prefix_length=4,
                            capacity=100, sample_fraction=0.3,
                            n_input_partitions=8, seed=1)
        dfs = SimulatedDFS(backing_dir=tmp_path / "dfs")
        index = ClimberIndex.build(ds, cfg, dfs=dfs)
        blob = index.save_global_index()
        (tmp_path / "global.idx").write_bytes(blob)

        # A fresh process would do exactly this:
        dfs2 = SimulatedDFS(backing_dir=tmp_path / "dfs")
        assert dfs2.attach() == len(dfs)
        reopened = ClimberIndex.reopen(
            (tmp_path / "global.idx").read_bytes(), dfs2, cfg
        )
        res = reopened.knn(ds.values[5], 5)
        assert res.ids[0] == ds.ids[5]


# -- a malformed global index fails typed, at reopen --------------------------


def with_skeleton(global_index: bytes, rewrite) -> bytes:
    """``global_index`` with its skeleton JSON replaced by ``rewrite(meta)``,
    framed exactly as ``save_global_index`` frames it."""
    frames = io.BytesIO(global_index)
    skeleton, pivots = read_blob(frames), read_blob(frames)
    meta = json.loads(read_blob(io.BytesIO(skeleton)))
    inner, outer = io.BytesIO(), io.BytesIO()
    write_blob(inner, json_to_bytes(rewrite(meta)))
    write_blob(outer, inner.getvalue())
    write_blob(outer, pivots)
    return outer.getvalue()


def edited(edit):
    """A rewrite that applies ``edit(meta)`` in place."""
    def rewrite(meta):
        edit(meta)
        return meta
    return rewrite


def split_trie(meta) -> list:
    """The first group trie ``[pivot, count, pids, children]`` with children."""
    return next(g["trie"] for g in meta["groups"] if g["trie"][3])


def first_leaf(meta) -> list:
    node = split_trie(meta)
    while node[3]:
        node = node[3][0]
    return node


def swap_group_ids(meta):
    meta["groups"][1]["id"], meta["groups"][2]["id"] = 2, 1


HOSTILE_SKELETONS = {
    # structure: missing key, wrong arity, wrong type
    "not-an-object": lambda meta: [meta],
    "no-groups": edited(lambda meta: meta.pop("groups")),
    "group-without-trie": edited(lambda meta: meta["groups"][1].pop("trie")),
    "group-not-an-object": edited(
        lambda meta: meta["groups"].__setitem__(1, 7)),
    "root-of-arity-2": edited(
        lambda meta: meta["groups"][1].update(trie=[None, 1.0])),
    "child-of-arity-2": edited(
        lambda meta: split_trie(meta)[3].append([3, 1.0])),
    "children-not-a-list": edited(
        lambda meta: split_trie(meta).__setitem__(3, 7)),
    "pids-not-a-list": edited(lambda meta: first_leaf(meta).__setitem__(2, 7)),
    "count-not-a-number": edited(
        lambda meta: first_leaf(meta).__setitem__(1, "x")),
    "n-partitions-not-a-number": edited(
        lambda meta: meta.update(n_partitions="a")),
    "group-0-with-a-centroid": edited(
        lambda meta: meta["groups"][0].update(centroid=[1, 2, 3, 4, 5])),
    # well-formed, but positional lookups would trust a lie
    "group-ids-swapped": edited(swap_group_ids),
    "group-id-repeated": edited(lambda meta: meta["groups"][2].update(id=1)),
    "negative-edge-pivot": edited(
        lambda meta: split_trie(meta)[3][0].__setitem__(0, -1)),
    "edge-pivot-at-n-pivots": edited(
        lambda meta: split_trie(meta)[3][0].__setitem__(0, CFG.n_pivots)),
    "leaf-partition-beyond-range": edited(
        lambda meta: first_leaf(meta).__setitem__(2, [meta["n_partitions"]])),
    "leaf-partition-negative": edited(
        lambda meta: first_leaf(meta).__setitem__(2, [-1])),
    "default-partition-beyond-range": edited(
        lambda meta: meta["groups"][1].update(default=10 ** 6)),
    "default-partition-negative": edited(
        lambda meta: meta["groups"][1].update(default=-1)),
}


class TestHostileSkeleton:
    def test_untouched_blob_round_trips_byte_for_byte(self, built):
        _, dfs, index = built
        blob = index.save_global_index()
        assert with_skeleton(blob, lambda meta: meta) == blob
        assert ClimberIndex.reopen(blob, dfs, CFG).save_global_index() == blob

    @pytest.mark.parametrize("mutation", sorted(HOSTILE_SKELETONS))
    def test_reopen_refuses_with_storage_error(self, built, mutation):
        """Correctly framed, wrong inside: ``StorageError`` and nothing
        else, before anything is read from the DFS."""
        _, dfs, index = built
        blob = with_skeleton(index.save_global_index(),
                             HOSTILE_SKELETONS[mutation])
        before = dfs.counters
        with pytest.raises(StorageError):
            ClimberIndex.reopen(blob, dfs, CFG)
        assert dfs.counters == before
