"""Tests for index persistence: save_global_index / reopen."""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.core.skeleton import (
    SAMPLE_COUNTS,
    SKELETON_VERSION,
    SkeletonWithPivots,
)
from repro.datasets import random_walk_dataset
from repro.evaluation import modeled_build_seconds
from repro.exceptions import ConfigurationError, StorageError
from repro.series import SeriesDataset
from repro.storage import SimulatedDFS
from repro.storage.serialization import (
    array_from_bytes,
    array_to_bytes,
    json_to_bytes,
    read_blob,
    write_blob,
)


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

    def test_reopened_skeleton_is_the_built_one_bit_for_bit(self, built):
        """Counts are stored as float64, not rounded: the reopened trie
        arrays are the built ones to the bit, so routing ties and the
        adaptive budget read the same numbers."""
        _, dfs, index = built
        blob = index.save_global_index()
        reopened = ClimberIndex.reopen(blob, dfs, CFG)
        for name in SKELETON_ARRAYS[2:]:
            before = getattr(index.skeleton, name)
            after = getattr(reopened.skeleton, name)
            assert after.dtype == before.dtype
            assert after.tobytes() == before.tobytes()
        assert reopened.series_length == index.series_length == 48
        assert reopened.save_global_index() == blob
        assert reopened.global_index_nbytes == len(blob)

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

    @pytest.mark.parametrize("store", ["memory", "backing_dir"])
    def test_reopened_index_models_the_same_build(self, tmp_path, store):
        """The modelled build is a function of what persists — the
        skeleton's sample counts and the base partitions — so an
        ``append``, a save and a reopen (from the files alone, for a
        disk store) leave it equal to the bit."""
        ds = random_walk_dataset(1500, 48, seed=3)
        backing_dir = tmp_path / "dfs" if store == "backing_dir" else None
        dfs = SimulatedDFS(backing_dir=backing_dir)
        index = ClimberIndex.build(ds, CFG, dfs=dfs)
        built = modeled_build_seconds(index)
        extra = random_walk_dataset(300, 48, seed=8)
        index.append(SeriesDataset(extra.values, extra.ids + ds.count))
        assert modeled_build_seconds(index) == built
        if backing_dir is not None:
            dfs = SimulatedDFS(backing_dir=backing_dir)
            dfs.attach()
        reopened = ClimberIndex.reopen(index.save_global_index(), dfs, CFG)
        assert reopened.n_records == ds.count + extra.count
        assert modeled_build_seconds(reopened) == built
        assert all(seconds > 0 for seconds in built.values())


# -- a malformed global index fails typed, at reopen --------------------------

#: The skeleton's documented layout (DESIGN.md D9): one JSON blob of
#: scalars, then one array blob per name, in this order.
SKELETON_ARRAYS = ("centroids", "default_partition", "node_offset",
                   "node_pivot", "node_count", "subtree_end", "leaf_pid")


def with_skeleton(global_index: bytes, rewrite) -> bytes:
    """``global_index`` with its skeleton replaced by what ``rewrite(meta,
    arrays)`` returns, framed exactly as ``save_global_index`` frames it.
    ``arrays`` maps names to arrays; a name ``rewrite`` deletes drops its
    blob, and ``bytes`` in place of an array are stored as they are."""
    frames = io.BytesIO(global_index)
    skeleton, pivots = read_blob(frames), read_blob(frames)
    blobs = io.BytesIO(skeleton)
    meta = json.loads(read_blob(blobs))
    arrays = {name: array_from_bytes(read_blob(blobs))
              for name in SKELETON_ARRAYS}
    meta = rewrite(meta, arrays)
    inner, outer = io.BytesIO(), io.BytesIO()
    write_blob(inner, json_to_bytes(meta))
    for name in SKELETON_ARRAYS:
        if name in arrays:
            value = arrays[name]
            write_blob(inner, value if isinstance(value, bytes)
                       else array_to_bytes(value))
    write_blob(outer, inner.getvalue())
    write_blob(outer, pivots)
    return outer.getvalue()


def edited(edit):
    """A rewrite that applies ``edit(meta, arrays)`` in place."""
    def rewrite(meta, arrays):
        edit(meta, arrays)
        return meta
    return rewrite


def on_array(name, edit):
    """A rewrite that applies ``edit(array, arrays)`` to one array in place."""
    return edited(lambda meta, arrays: edit(arrays[name], arrays))


def set_array(name, make):
    """A rewrite that replaces one array by ``make(array)``."""
    return edited(lambda meta, arrays: arrays.update({name: make(arrays[name])}))


def drop(*names):
    return edited(lambda meta, arrays: [arrays.pop(n) for n in names])


def parent_of(arrays, node: int) -> int:
    """The nearest node before ``node`` whose subtree holds it."""
    end = arrays["subtree_end"]
    return max(i for i in range(node) if end[i] > node)


def non_roots(arrays) -> list[tuple[int, int, int]]:
    """``(node, parent, end of its group)`` for every non-root node."""
    offsets = arrays["node_offset"].tolist()
    return [(i, parent_of(arrays, i), hi)
            for lo, hi in zip(offsets, offsets[1:]) for i in range(lo + 1, hi)]


def first_leaf(arrays) -> int:
    """A leaf below a group root."""
    end = arrays["subtree_end"]
    return next(i for i, _, _ in non_roots(arrays) if end[i] == i + 1)


def first_internal(arrays) -> int:
    """A node with children."""
    end = arrays["subtree_end"]
    return next(i for i in range(end.size) if end[i] > i + 1)


def empty_subtree(_, arrays):
    child = non_roots(arrays)[0][0]
    arrays["subtree_end"][child] = child


def subtree_not_nested(_, arrays):
    end = arrays["subtree_end"]
    child, parent = next((i, p) for i, p, hi in non_roots(arrays)
                         if p != group_root(arrays, i) and end[p] < hi)
    end[child] = end[parent] + 1


def group_root(arrays, node: int) -> int:
    """The root of ``node``'s group."""
    offsets = arrays["node_offset"]
    return int(offsets[np.searchsorted(offsets, node, side="right") - 1])


def subtree_past_group(_, arrays):
    hi = int(arrays["node_offset"][2])
    arrays["subtree_end"][hi - 1] = hi + 1


def repeated_sibling_pivot(_, arrays):
    end, pivot = arrays["subtree_end"], arrays["node_pivot"]
    node = next(i for i, p, _ in non_roots(arrays) if end[i] < end[p])
    pivot[end[node]] = pivot[node]


def swap_group_offsets(_, arrays):
    offsets = arrays["node_offset"]
    offsets[1], offsets[2] = offsets[2], offsets[1]


def version_2_skeleton(meta, arrays):
    """The layout before the sample counts: version 2, arrays as now."""
    meta["version"] = 2
    for name in SAMPLE_COUNTS:
        del meta[name]


def set_count(name, value):
    """A rewrite that sets one sample count, or drops it for ``None``."""
    def edit(meta, arrays):
        if value is None:
            del meta[name]
        else:
            meta[name] = value
    return edited(edit)


def count_above(name, bound):
    """A rewrite that sets sample count ``name`` one above count ``bound``."""
    return edited(lambda meta, arrays: meta.update({name: meta[bound] + 1}))


def json_tree_skeleton(meta, arrays):
    """The layout before version 2: one JSON blob of nested-list tries."""
    groups = [
        {"id": gid, "centroid": list(centroid), "default": int(default),
         "est_size": 0.0, "trie": [None, 0.0, [int(default)], []]}
        for gid, (centroid, default) in enumerate(zip(
            [[]] + arrays["centroids"].tolist(), arrays["default_partition"]))
    ]
    arrays.clear()
    return {key: meta[key] for key in (
        "prefix_length", "n_pivots", "word_length", "n_partitions")} | {
        "groups": groups}


HOSTILE_SKELETONS = {
    # not this format
    "pre-change-json-blob": json_tree_skeleton,
    "version-2-blob": edited(version_2_skeleton),
    "version-from-the-future": edited(
        lambda meta, arrays: meta.update(version=SKELETON_VERSION + 1)),
    # the sample counts the modelled build reads: present, ints, ordered
    "sample-records-missing": set_count("sample_records", None),
    "sample-signatures-missing": set_count("sample_signatures", None),
    "sample-pivot-sets-missing": set_count("sample_pivot_sets", None),
    "sample-records-negative": set_count("sample_records", -1),
    "sample-signatures-negative": set_count("sample_signatures", -1),
    "sample-pivot-sets-negative": set_count("sample_pivot_sets", -1),
    "sample-records-a-float": set_count("sample_records", 375.5),
    "sample-signatures-a-string": set_count("sample_signatures", "12"),
    "sample-pivot-sets-a-boolean": set_count("sample_pivot_sets", True),
    "sample-pivot-sets-zero": set_count("sample_pivot_sets", 0),
    "more-signatures-than-records": count_above("sample_signatures",
                                                "sample_records"),
    "more-pivot-sets-than-signatures": count_above("sample_pivot_sets",
                                                   "sample_signatures"),
    # structure: missing blob, wrong arity, wrong type
    "not-an-object": lambda meta, arrays: [meta],
    "no-groups": drop("centroids", "default_partition"),
    "group-without-trie": drop("node_offset", "node_pivot", "node_count",
                               "subtree_end", "leaf_pid"),
    "group-not-an-object": edited(
        lambda meta, arrays: arrays.update(default_partition=b"7")),
    "root-of-arity-2": on_array(
        "node_pivot", lambda a, arrays: a.__setitem__(
            int(arrays["node_offset"][1]), 3)),
    "child-of-arity-2": edited(empty_subtree),
    "children-not-a-list": edited(subtree_not_nested),
    "subtree-past-its-group": edited(subtree_past_group),
    "node-arrays-of-unequal-length": set_array("node_count", lambda a: a[:-1]),
    "pids-not-a-list": set_array("leaf_pid", lambda a: a.astype(np.float64)),
    "pivot-of-float-dtype": set_array(
        "node_pivot", lambda a: a.astype(np.float64)),
    "count-of-int-dtype": set_array("node_count", lambda a: a.astype(np.int64)),
    "count-of-complex-dtype": set_array(
        "node_count", lambda a: a.astype(np.complex128)),
    "count-not-a-number": on_array(
        "node_count", lambda a, arrays: a.__setitem__(first_leaf(arrays),
                                                      np.nan)),
    "count-infinite": on_array(
        "node_count", lambda a, arrays: a.__setitem__(0, np.inf)),
    "count-negative": on_array(
        "node_count", lambda a, arrays: a.__setitem__(first_leaf(arrays),
                                                      -1.0)),
    "n-partitions-not-a-number": edited(
        lambda meta, arrays: meta.update(n_partitions="a")),
    "series-length-not-a-number": edited(
        lambda meta, arrays: meta.update(series_length=[48])),
    "group-0-with-a-centroid": set_array(
        "centroids", lambda a: np.vstack([a[:1], a])),
    "centroid-pivot-out-of-range": on_array(
        "centroids", lambda a, arrays: a.__setitem__((0, 0), CFG.n_pivots)),
    # well-formed, but positional lookups would trust a lie
    "group-ids-swapped": edited(swap_group_offsets),
    "group-id-repeated": on_array(
        "node_offset", lambda a, arrays: a.__setitem__(2, a[1])),
    "group-offsets-past-the-nodes": on_array(
        "node_offset", lambda a, arrays: a.__setitem__(-1, a[-1] + 1)),
    "negative-edge-pivot": on_array(
        "node_pivot", lambda a, arrays: a.__setitem__(first_leaf(arrays), -1)),
    "edge-pivot-at-n-pivots": on_array(
        "node_pivot", lambda a, arrays: a.__setitem__(first_leaf(arrays),
                                                      CFG.n_pivots)),
    "sibling-pivot-repeated": edited(repeated_sibling_pivot),
    "leaf-partition-beyond-range": edited(
        lambda meta, arrays: arrays["leaf_pid"].__setitem__(
            first_leaf(arrays), meta["n_partitions"])),
    "leaf-partition-negative": on_array(
        "leaf_pid", lambda a, arrays: a.__setitem__(first_leaf(arrays), -1)),
    "internal-node-with-a-partition": on_array(
        "leaf_pid", lambda a, arrays: a.__setitem__(first_internal(arrays), 0)),
    "default-partition-beyond-range": on_array(
        "default_partition", lambda a, arrays: a.__setitem__(1, 10 ** 6)),
    "default-partition-negative": on_array(
        "default_partition", lambda a, arrays: a.__setitem__(1, -1)),
}


class TestHostileSkeleton:
    def test_untouched_blob_round_trips_byte_for_byte(self, built):
        _, dfs, index = built
        blob = index.save_global_index()
        assert with_skeleton(blob, lambda meta, arrays: meta) == blob
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
