"""Construction Step 4 against a placement oracle that shares no code with it.

The builder converts, routes and writes every record in bulk
(``GroupAssigner.assign`` -> ``FlatTrieRouter`` -> one encode per
partition).  The oracle here re-derives where each record *may* lie from
the paper's rules alone — scalar Overlap/Weight Distance to every centroid
(Algorithm 1), a pointer-trie walk (Algorithm 3 L11), the §VI layout — and
checks the store against it record by record.  It is tie-agnostic: where
Algorithm 1 breaks a Weight Distance tie by a random draw, every tied
group is an admissible home, so no RNG stream has to be replayed.
Appends through the batch route are checked against a per-record
reference clustering the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import layout_from_clusters, pointer_trie
from repro.core import ClimberConfig, ClimberIndex
from repro.core.builder import build_index_artifacts
from repro.core.skeleton import cluster_key, partition_name
from repro.datasets import make_dataset
from repro.pivots import (
    decay_weights,
    overlap_distance,
    permutation_prefixes,
    total_weight,
    wd_tie_tolerance,
    weight_distance,
)
from repro.series import paa_transform
from repro.storage import SimulatedDFS

CONFIG = dict(word_length=8, n_pivots=48, prefix_length=6, capacity=150,
              sample_fraction=0.2, n_input_partitions=32, seed=9)


class TestBuilderParity:
    @pytest.fixture(scope="class")
    def built(self):
        dataset = make_dataset("RandomWalk", 3000, length=48, seed=5)
        artifacts = build_index_artifacts(
            dataset, ClimberConfig(**CONFIG), dfs=SimulatedDFS()
        )
        return dataset, artifacts

    @pytest.fixture(scope="class")
    def stored(self, built):
        """``{record id: (partition, cluster key, stored row)}`` as read
        back from the store; a record met twice fails here."""
        _, artifacts = built
        where = {}
        for pid in artifacts.dfs.list_partitions():
            part = artifacts.dfs.read_partition(pid)
            ids, values = part.read_clusters(part.cluster_keys())
            for key, (offset, count) in part.header.items():
                for row in range(offset, offset + count):
                    rid = int(ids[row])
                    assert rid not in where, f"record {rid} stored twice"
                    where[rid] = (pid, key, values[row])
        return where

    def test_every_record_stored_once_with_its_raw_values(self, built, stored):
        dataset, artifacts = built
        assert len(artifacts.dfs.list_partitions()) > 5
        assert sorted(stored) == sorted(dataset.ids.tolist())
        for rid, raw in zip(dataset.ids.tolist(), dataset.values):
            assert stored[rid][2].tobytes() == raw.tobytes()

    def test_cluster_directories_are_sorted_and_tile_the_partition(self, built):
        _, artifacts = built
        for pid in artifacts.dfs.list_partitions():
            part = artifacts.dfs.read_partition(pid)
            keys = part.cluster_keys()
            assert keys == sorted(keys)
            end = 0
            for key in keys:
                offset, count = part.header[key]
                assert offset == end and count > 0
                end += count
            assert end == part.record_count

    def test_every_record_lies_where_the_paper_rules_allow(self, built, stored):
        dataset, artifacts = built
        cfg = ClimberConfig(**CONFIG)
        skeleton = artifacts.skeleton
        m = cfg.prefix_length
        weights = decay_weights(m, cfg.decay, cfg.decay_rate)
        tolerance = wd_tie_tolerance(total_weight(weights))
        ranked = permutation_prefixes(
            paa_transform(dataset.values, cfg.word_length), artifacts.pivots, m
        )
        centroids = skeleton.centroids
        n_multi_group_ties = 0
        for rid, sig in zip(dataset.ids.tolist(), ranked.tolist()):
            ods = [overlap_distance(sig, c) for c in centroids]
            best_od = min(ods)
            if best_od == m:  # overlaps no centroid: the fall-back group
                admissible = [0]
            else:
                tied = [i for i, od in enumerate(ods) if od == best_od]
                wds = [weight_distance(sig, centroids[i], weights)
                       for i in tied]
                best_wd = min(wds)
                admissible = [i + 1 for i, wd in zip(tied, wds)
                              if wd <= best_wd + tolerance]
            n_multi_group_ties += len(admissible) > 1
            homes = set()
            for gid in admissible:
                entry = skeleton.group(gid)
                node = pointer_trie(skeleton, gid).descend(sig)
                if node.is_leaf and node.partition_ids:
                    (pid,) = node.partition_ids
                    homes.add((partition_name(pid),
                               cluster_key(gid, node.path)))
                else:
                    homes.add((partition_name(entry.default_partition),
                               cluster_key(gid, None)))
            assert stored[rid][:2] in homes, (rid, stored[rid][:2], homes)
        # The tie-agnostic branch must be exercised, not vacuous.
        assert n_multi_group_ties > 0


class TestAppendParity:
    def test_append_matches_legacy_clustering(self):
        """Delta partitions equal the legacy per-record append layout."""
        dataset = make_dataset("RandomWalk", 2000, length=48, seed=5)
        cfg = ClimberConfig(**CONFIG)
        index = ClimberIndex.build(dataset, cfg)
        batch = make_dataset("RandomWalk", 500, length=48, seed=77)

        # Reference clustering: the seed per-record append loop.
        paa = paa_transform(batch.values, cfg.word_length)
        ranked = permutation_prefixes(paa, index.pivots, cfg.prefix_length)
        gids = index._art.assigner.assign(ranked).group_indices
        clusters: dict[int, dict[str, list[int]]] = {}
        for local in range(batch.count):
            gid = int(gids[local])
            entry = index.skeleton.group(gid)
            node = pointer_trie(index.skeleton, gid).descend(ranked[local])
            if node.is_leaf and node.partition_ids:
                pid = next(iter(node.partition_ids))
                key = cluster_key(gid, node.path)
            else:
                pid = entry.default_partition
                key = cluster_key(gid, None)
            clusters.setdefault(pid, {}).setdefault(key, []).append(local)

        # assigner.assign consumes RNG draws on ties: rebuild the index so
        # the real append sees the same stream state the reference saw.
        index = ClimberIndex.build(dataset, cfg)
        summary = index.append(batch)
        assert summary["records_appended"] == batch.count
        expected = {
            f"{partition_name(pid)}.d0": {
                key: (batch.ids[rows], batch.values[rows])
                for key, rows in clusters[pid].items()
                for rows in [np.asarray(rows, dtype=np.int64)]
            }
            for pid in clusters
        }
        assert sorted(summary["delta_partitions"]) == sorted(expected)
        for delta_id, mapping in expected.items():
            ref_ids, ref_values, ref_header = layout_from_clusters(mapping)
            got = index.dfs.read_partition(delta_id)
            ids, values = got.read_clusters(got.cluster_keys())
            assert got.cluster_keys() == list(ref_header)
            assert np.array_equal(ids, ref_ids)
            assert np.array_equal(values, ref_values)
            assert dict(got.header) == ref_header
