"""Integration tests for index construction and the three query variants."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from conftest import all_records

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.evaluation import modeled_build_seconds, modeled_query_seconds
from repro.exceptions import ConfigurationError
from repro.series import knn_bruteforce
from repro.storage import SimulatedDFS


# The module rides the shared session-scoped index (``built_index`` in
# conftest): same geometry the old module-local SMALL_CFG used, built
# once for the whole suite; its config arrives via ``std_index_config``.


@pytest.fixture(scope="module")
def built(std_index_dataset, built_index):
    return std_index_dataset, built_index


class TestConfig:
    def test_paper_defaults_valid(self):
        from repro.core import PAPER_DEFAULTS

        assert PAPER_DEFAULTS.n_pivots == 200
        assert PAPER_DEFAULTS.prefix_length == 10

    def test_epsilon_default_is_half_prefix(self):
        assert ClimberConfig(prefix_length=10).epsilon == 5
        assert ClimberConfig(prefix_length=7).epsilon == 4

    def test_epsilon_override(self):
        cfg = ClimberConfig(prefix_length=10, min_centroid_separation=2)
        assert cfg.epsilon == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClimberConfig(prefix_length=0)
        with pytest.raises(ConfigurationError):
            ClimberConfig(n_pivots=4, prefix_length=5)
        with pytest.raises(ConfigurationError):
            ClimberConfig(sample_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ClimberConfig(adaptive_factor=0)
        with pytest.raises(ConfigurationError):
            ClimberConfig(cost_scale=0.0)


class TestBuild:
    def test_every_record_stored_exactly_once(self, built):
        ds, idx = built
        seen = []
        for pname in idx.dfs.list_partitions():
            part = idx.dfs.read_partition(pname)
            seen.extend(all_records(part)[0].tolist())
        assert sorted(seen) == sorted(ds.ids.tolist())

    def test_fallback_group_is_group_zero(self, built):
        _, idx = built
        assert idx.skeleton.groups[0].is_fallback

    def test_partitions_respect_soft_capacity(self, built, std_index_config):
        """Partition record counts should be near c; hard violations only via
        oversized leaves (soft constraint)."""
        _, idx = built
        cap = std_index_config.capacity
        for pname in idx.dfs.list_partitions():
            part = idx.dfs.read_partition(pname)
            assert part.record_count <= 3 * cap

    def test_cluster_keys_belong_to_registered_groups(self, built):
        _, idx = built
        valid_groups = {g.group_id for g in idx.skeleton.groups}
        for pname in idx.dfs.list_partitions():
            part = idx.dfs.read_partition(pname)
            for key in part.cluster_keys():
                gid = int(key.split("/")[0][1:])
                assert gid in valid_groups

    def test_leaf_records_match_leaf_path(self, built, std_index_config):
        """Records in a leaf cluster must carry signatures matching the path."""
        from repro.pivots import permutation_prefixes
        from repro.series import paa_transform

        ds, idx = built
        pname = idx.dfs.list_partitions()[0]
        part = idx.dfs.read_partition(pname)
        for key in part.cluster_keys()[:5]:
            parts = key.split("/")
            if parts[-1] == "~" or len(parts) == 1:
                continue
            path = tuple(int(p) for p in parts[1:])
            _, vals = part.read_clusters([key])
            paa = paa_transform(vals, std_index_config.word_length)
            ranked = permutation_prefixes(
                paa, idx.pivots, std_index_config.prefix_length
            )
            for row in ranked:
                assert tuple(row[: len(path)]) == path

    def test_global_index_small(self, built):
        """Paper Fig. 8(b): the skeleton is tiny relative to the data."""
        ds, idx = built
        assert idx.global_index_nbytes < 0.05 * ds.nbytes

    def test_build_report_phases(self, built):
        """The modelled build (Fig. 10(a)) is a function of the index: each
        phase at least the model's per-stage launch overhead, and the same
        on every call — nothing about it is held as seconds."""
        _, idx = built
        phases = modeled_build_seconds(idx)
        assert set(phases) == {"skeleton", "conversion", "redistribution"}
        assert all(v >= idx.model.stage_overhead_s for v in phases.values())
        assert modeled_build_seconds(idx) == phases

    def test_backing_dir_build_holds_no_copy_of_the_dataset(self, tmp_path):
        """Step 1's input partitions are views and only the sample is
        gathered, so a build allocates well under one dataset's worth
        beyond the dataset it is handed."""
        ds = random_walk_dataset(20_000, 64, seed=3)
        cfg = ClimberConfig(word_length=8, n_pivots=48, prefix_length=6,
                            capacity=300, sample_fraction=0.05,
                            n_input_partitions=16, seed=3)
        dfs = SimulatedDFS(backing_dir=tmp_path / "dfs")
        tracemalloc.start()
        try:
            ClimberIndex.build(ds, cfg, dfs=dfs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * ds.values.nbytes

    def test_deterministic_rebuild(self):
        ds = random_walk_dataset(1000, 32, seed=1)
        cfg = ClimberConfig(word_length=8, n_pivots=16, prefix_length=4,
                            capacity=100, sample_fraction=0.3,
                            n_input_partitions=8, seed=5)
        a = ClimberIndex.build(ds, cfg)
        b = ClimberIndex.build(ds, cfg)
        assert a.skeleton.to_bytes() == b.skeleton.to_bytes()
        assert a.dfs.list_partitions() == b.dfs.list_partitions()

    def test_rejects_word_longer_than_series(self):
        ds = random_walk_dataset(100, 16, seed=1)
        cfg = ClimberConfig(word_length=32, n_pivots=8, prefix_length=4,
                            capacity=50, sample_fraction=0.5)
        with pytest.raises(ConfigurationError):
            ClimberIndex.build(ds, cfg)

    def test_rejects_pivots_exceeding_sample(self):
        ds = random_walk_dataset(100, 32, seed=1)
        cfg = ClimberConfig(word_length=8, n_pivots=90, prefix_length=4,
                            capacity=50, sample_fraction=0.05,
                            n_input_partitions=20)
        with pytest.raises(ConfigurationError):
            ClimberIndex.build(ds, cfg)

    def test_custom_dfs_used(self):
        ds = random_walk_dataset(500, 32, seed=2)
        dfs = SimulatedDFS()
        cfg = ClimberConfig(word_length=8, n_pivots=16, prefix_length=4,
                            capacity=100, sample_fraction=0.3,
                            n_input_partitions=8)
        idx = ClimberIndex.build(ds, cfg, dfs=dfs)
        assert idx.dfs is dfs
        assert len(dfs) > 0


class TestQueryRouting:
    def test_signature_matches_pivot_machinery(self, built, std_index_config):
        from repro.pivots import permutation_prefixes
        from repro.series import paa_transform

        ds, idx = built
        q = ds.values[17]
        sig = idx.query_signature(q)
        paa = paa_transform(q.reshape(1, -1), std_index_config.word_length)
        expect = permutation_prefixes(
            paa, idx.pivots, std_index_config.prefix_length
        )[0]
        np.testing.assert_array_equal(sig, expect)

    def test_candidates_share_smallest_od(self, built):
        ds, idx = built
        cands = idx.group_candidates(idx.query_signature(ds.values[5]))
        assert len(cands) >= 1
        ods = {c.od for c in cands}
        assert len(ods) == 1

    def test_candidates_sorted_by_wd(self, built):
        ds, idx = built
        cands = idx.group_candidates(idx.query_signature(ds.values[9]))
        wds = [c.wd for c in cands]
        assert wds == sorted(wds)

    def test_primary_selection_prefers_deeper_node(self, built):
        ds, idx = built
        cands = idx.group_candidates(idx.query_signature(ds.values[3]))
        primary = idx.select_primary(cands)
        best_wd = min(c.wd for c in cands)
        tied = [c for c in cands if c.wd <= best_wd + 1e-12]
        assert primary.path_len == max(c.path_len for c in tied)


class TestQueryVariants:
    def test_result_shapes(self, built):
        ds, idx = built
        res = idx.knn(ds.values[0], 10)
        assert res.ids.shape == (10,)
        assert res.distances.shape == (10,)
        assert np.all(np.diff(res.distances) >= 0)

    def test_query_finds_itself(self, built):
        """A dataset member queried against the index returns itself first."""
        ds, idx = built
        hits = 0
        for i in (0, 100, 500, 999, 1500, 2999):
            res = idx.knn(ds.values[i], 5)
            if res.ids[0] == ds.ids[i] and res.distances[0] < 1e-9:
                hits += 1
        assert hits >= 5  # signature routing is exact for seen objects

    def test_knn_single_node_partitions(self, built):
        ds, idx = built
        res = idx.knn(ds.values[42], 10, variant="knn")
        assert res.stats.n_partitions >= 1
        assert res.stats.variant == "knn"

    def test_adaptive_equals_knn_for_small_k(self, built):
        """Paper Fig. 9: with small K the adaptive variants match CLIMBER-kNN."""
        ds, idx = built
        for i in (7, 77, 777):
            a = idx.knn(ds.values[i], 5, variant="knn")
            b = idx.knn(ds.values[i], 5, variant="adaptive")
            if a.stats.gn_size >= 5:
                np.testing.assert_array_equal(a.ids, b.ids)

    def test_adaptive_expands_for_large_k(self, built):
        ds, idx = built
        expanded = 0
        for i in range(0, 300, 20):
            a = idx.knn(ds.values[i], 200, variant="knn")
            b = idx.knn(ds.values[i], 200, variant="adaptive")
            if b.stats.n_partitions > a.stats.n_partitions:
                expanded += 1
        assert expanded > 0

    def test_adaptive_respects_partition_budget(self, built):
        ds, idx = built
        for i in range(0, 200, 25):
            knn = idx.knn(ds.values[i], 400, variant="knn")
            for factor in (2, 4):
                res = idx.knn(ds.values[i], 400, variant="adaptive",
                              adaptive_factor=factor)
                assert res.stats.n_partitions <= max(
                    factor * max(1, knn.stats.n_partitions), 1
                )

    def test_od_smallest_reads_most_data(self, built):
        """Fig. 11(b): OD-Smallest accesses more data than the variants."""
        ds, idx = built
        q = ds.values[8]
        knn_bytes = idx.knn(q, 10, variant="knn").stats.data_bytes
        od_bytes = idx.knn(q, 10, variant="od-smallest").stats.data_bytes
        assert od_bytes >= knn_bytes

    def test_recall_ordering_across_variants(self, built):
        """OD-Smallest >= Adaptive >= kNN - tolerance, averaged over queries."""
        ds, idx = built
        qs = sample_queries(ds, 15, seed=5)
        k = 50

        def mean_recall(variant):
            total = 0.0
            for q in qs.values:
                exact, _ = knn_bruteforce(q, ds.values, ds.ids, k)
                got = idx.knn(q, k, variant=variant)
                total += len(set(got.ids) & set(exact)) / k
            return total / qs.count

        r_knn = mean_recall("knn")
        r_adp = mean_recall("adaptive")
        r_ods = mean_recall("od-smallest")
        assert r_ods >= r_adp - 0.02
        assert r_adp >= r_knn - 0.02
        assert r_adp > 0.3  # sanity: far better than random

    def test_invalid_inputs(self, built):
        ds, idx = built
        with pytest.raises(ConfigurationError):
            idx.knn(ds.values[0], 0)
        with pytest.raises(ConfigurationError):
            idx.knn(ds.values[0], 5, variant="magic")

    def test_stats_wall_and_modeled_seconds_positive(self, built):
        ds, idx = built
        res = idx.knn(ds.values[1], 5)
        assert modeled_query_seconds(idx, res.stats) > 0
        assert res.stats.wall_seconds > 0
        assert res.stats.records_examined >= len(res.ids)

    def test_stats_partitions_exist_in_dfs(self, built):
        ds, idx = built
        res = idx.knn(ds.values[2], 5)
        for pname in res.stats.partitions_loaded:
            assert idx.dfs.has_partition(pname)


class TestSmallIndexEdges:
    """Satellite edges: ``k`` exceeding the record count, and the
    zero-denominator coverage guard, exercised through the real query
    paths rather than synthetic stats."""

    @pytest.fixture(scope="class")
    def tiny(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((12, 32))
        cfg = ClimberConfig(
            word_length=8, n_pivots=8, prefix_length=3, capacity=8,
            sample_fraction=1.0, seed=5, n_input_partitions=1,
        )
        from repro.series import SeriesDataset

        dataset = SeriesDataset(values)
        return dataset, ClimberIndex.build(dataset, cfg)

    def test_knn_k_exceeds_records(self, tiny):
        ds, idx = tiny
        res = idx.knn(ds.values[0], 50)
        assert res.ids.shape[0] <= 12
        assert res.ids.shape[0] == res.distances.shape[0]
        assert len(set(res.ids.tolist())) == res.ids.shape[0]
        assert res.stats.coverage == 1.0
        assert res.stats.visit_coverage == 1.0
        assert not res.stats.degraded
        # Everything reachable was examined: the answer is the exact
        # brute-force answer over the whole dataset.
        exact_ids, exact_d = knn_bruteforce(
            ds.values[0], ds.values, ds.ids, 50
        )
        assert set(res.ids.tolist()) <= set(exact_ids.tolist())

    def test_knn_batch_k_exceeds_records(self, tiny):
        ds, idx = tiny
        results = idx.knn_batch(ds.values[:4], 50)
        assert len(results) == 4
        for res in results:
            assert 0 < res.ids.shape[0] <= 12
            assert res.stats.coverage == 1.0

    def test_explain_k_exceeds_records(self, tiny):
        ds, idx = tiny
        out = idx.explain_query(ds.values[:3], 50)
        assert out["mode"] == "knn_batch"
        # Satellite 1 regression: the aggregate coverage must survive
        # whatever denominators tiny plans produce.
        assert 0.0 < out["totals"]["coverage"] <= 1.0
        for entry in out["queries"]:
            assert len(entry["ids"]) <= 12
