"""Tests for DPiSAX, TARDIS, Odyssey, and HNSW."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import all_records

from repro.baselines import (
    DpisaxConfig,
    DpisaxIndex,
    HnswConfig,
    HnswIndex,
    OdysseyConfig,
    OdysseyIndex,
    TardisConfig,
    TardisIndex,
)
from repro.cluster import CostModel
from repro.datasets import random_walk_dataset, sample_queries
from repro.exceptions import ConfigurationError, MemoryBudgetExceeded
from repro.series import knn_bruteforce


@pytest.fixture(scope="module")
def ds():
    return random_walk_dataset(2000, 64, seed=9)


@pytest.fixture(scope="module")
def queries(ds):
    return sample_queries(ds, 10, seed=2)


def mean_recall(ds, queries, knn_fn, k=20):
    total = 0.0
    for q in queries.values:
        exact, _ = knn_bruteforce(q, ds.values, ds.ids, k)
        res = knn_fn(q, k)
        total += len(set(res.ids) & set(exact)) / k
    return total / queries.count


@pytest.fixture(scope="module")
def dpisax(ds):
    return DpisaxIndex.build(
        ds, DpisaxConfig(word_length=8, max_bits=6, capacity=120,
                         sample_fraction=0.25, seed=3)
    )


@pytest.fixture(scope="module")
def tardis(ds):
    return TardisIndex.build(
        ds, TardisConfig(word_length=8, max_bits=6, capacity=120,
                         sample_fraction=0.25, seed=3)
    )


class TestDpisax:
    def test_every_record_stored_once(self, ds, dpisax):
        seen = []
        for pname in dpisax.dfs.list_partitions():
            seen.extend(all_records(dpisax.dfs.read_partition(pname))[0].tolist())
        assert sorted(seen) == sorted(ds.ids.tolist())

    def test_single_partition_per_query(self, ds, dpisax):
        res = dpisax.knn(ds.values[4], 10)
        assert res.stats.n_partitions == 1

    def test_recall_above_random_below_exact(self, ds, queries, dpisax):
        r = mean_recall(ds, queries, dpisax.knn)
        assert 0.02 < r < 0.95

    def test_returns_k_results(self, ds, dpisax):
        res = dpisax.knn(ds.values[0], 15)
        assert len(res.ids) == 15
        assert np.all(np.diff(res.distances) >= 0)

    def test_global_index_is_small(self, ds, dpisax):
        assert dpisax.global_index_nbytes < 0.01 * ds.nbytes

    def test_build_sim_positive(self, dpisax):
        assert dpisax.build_sim_seconds > 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DpisaxConfig(word_length=0)
        with pytest.raises(ConfigurationError):
            DpisaxConfig(sample_fraction=0.0)
        with pytest.raises(ConfigurationError):
            DpisaxConfig(leaf_capacity=0)

    def test_rejects_bad_k(self, ds, dpisax):
        with pytest.raises(ConfigurationError):
            dpisax.knn(ds.values[0], 0)


class TestTardis:
    def test_every_record_stored_once(self, ds, tardis):
        seen = []
        for pname in tardis.dfs.list_partitions():
            seen.extend(all_records(tardis.dfs.read_partition(pname))[0].tolist())
        assert sorted(seen) == sorted(ds.ids.tolist())

    def test_single_partition_per_query(self, ds, tardis):
        res = tardis.knn(ds.values[4], 10)
        assert res.stats.n_partitions == 1

    def test_recall_above_random_below_exact(self, ds, queries, tardis):
        r = mean_recall(ds, queries, tardis.knn)
        assert 0.02 < r < 0.95

    def test_returns_k_sorted(self, ds, tardis):
        res = tardis.knn(ds.values[1], 12)
        assert len(res.ids) == 12
        assert np.all(np.diff(res.distances) >= 0)

    def test_sigtree_wider_than_dpisax_table(self, tardis, dpisax):
        """Paper Fig. 8(b): TARDIS's n-ary sigTree is the larger global index."""
        assert tardis.global_index_nbytes > dpisax.global_index_nbytes

    def test_build_faster_than_dpisax(self, tardis, dpisax):
        """Paper Fig. 8(a): DPiSAX has the slowest construction."""
        assert tardis.build_sim_seconds < dpisax.build_sim_seconds

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TardisConfig(max_bits=0)


class TestOdyssey:
    @pytest.fixture(scope="class")
    def odyssey(self, ds):
        return OdysseyIndex.build(
            ds, OdysseyConfig(word_length=8, max_bits=6, leaf_capacity=64)
        )

    def test_exact_recall(self, ds, queries, odyssey):
        assert mean_recall(ds, queries, odyssey.knn) == pytest.approx(1.0)

    def test_memory_budget_enforced(self, ds):
        tiny = CostModel(memory_per_node_gb=0.0001)
        with pytest.raises(MemoryBudgetExceeded):
            OdysseyIndex.build(ds, OdysseyConfig(), model=tiny)

    def test_memory_budget_scales_with_cost_scale(self, ds):
        model = CostModel()  # 1 TB cluster memory
        # Scaled to ~1.2 TB-equivalent the build must fail.
        scale = 1.3e12 / ds.nbytes
        with pytest.raises(MemoryBudgetExceeded):
            OdysseyIndex.build(ds, OdysseyConfig(cost_scale=scale), model=model)

    def test_query_faster_than_distributed(self, ds, odyssey):
        res = odyssey.knn(ds.values[0], 10)
        assert res.stats.sim_seconds < 5.0

    def test_build_sim_positive(self, odyssey):
        assert odyssey.build_sim_seconds > 0

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            OdysseyConfig(memory_usable_fraction=0.0)


class TestHnsw:
    @pytest.fixture(scope="class")
    def hnsw(self, ds):
        return HnswIndex.build(
            ds, HnswConfig(m=8, ef_construction=48, ef_search=48, seed=1)
        )

    def test_high_recall(self, ds, queries, hnsw):
        """Paper Table I: graph-based recall ~0.9."""
        assert mean_recall(ds, queries, hnsw.knn) > 0.8

    def test_returns_sorted_k(self, ds, hnsw):
        res = hnsw.knn(ds.values[3], 10)
        assert len(res.ids) == 10
        assert np.all(np.diff(res.distances) >= 0)

    def test_finds_self(self, ds, hnsw):
        res = hnsw.knn(ds.values[42], 1)
        assert res.ids[0] == ds.ids[42]

    def test_single_node_memory_bound(self, ds):
        """HNSW fails one step before Odyssey (single-node budget)."""
        model = CostModel()  # 512 GB per node
        scale = 6.0e11 / ds.nbytes
        with pytest.raises(MemoryBudgetExceeded):
            HnswIndex.build(ds, HnswConfig(cost_scale=scale), model=model)

    def test_construction_counts_distances(self, hnsw, ds):
        """Graph construction must dominate query cost by orders of magnitude."""
        per_query = hnsw.knn(ds.values[7], 10).stats.records_examined
        assert hnsw.build_dist_comps > 50 * per_query

    def test_query_sim_subsecond(self, ds, hnsw):
        assert hnsw.knn(ds.values[0], 10).stats.sim_seconds < 1.0

    def test_ef_search_improves_recall(self, ds, queries):
        lo = HnswIndex.build(ds, HnswConfig(m=6, ef_construction=32,
                                            ef_search=4, seed=1))
        r_lo = mean_recall(ds, queries, lo.knn, k=10)
        hi = HnswIndex.build(ds, HnswConfig(m=6, ef_construction=32,
                                            ef_search=96, seed=1))
        r_hi = mean_recall(ds, queries, hi.knn, k=10)
        assert r_hi >= r_lo

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            HnswConfig(m=1)
        with pytest.raises(ConfigurationError):
            HnswConfig(ef_construction=0)


class TestCrossSystemOrdering:
    """The macro-orderings of Fig. 7(b) and Table I on one shared dataset."""

    def test_recall_ordering(self, ds, queries, dpisax, tardis):
        from repro.core import ClimberConfig, ClimberIndex

        climber = ClimberIndex.build(
            ds,
            ClimberConfig(word_length=8, n_pivots=48, prefix_length=8,
                          capacity=120, sample_fraction=0.25,
                          n_input_partitions=16, seed=3),
        )
        r_climber = mean_recall(ds, queries, lambda q, k: climber.knn(q, k))
        r_tardis = mean_recall(ds, queries, tardis.knn)
        r_dpisax = mean_recall(ds, queries, dpisax.knn)
        # Paper Fig. 7(b): CLIMBER above both iSAX systems.  The margin at
        # this tiny test scale is small; the benchmarks demonstrate the
        # full-scale gap (see benchmarks/bench_fig7_datasets.py).
        assert r_climber > r_tardis
        assert r_climber > r_dpisax + 0.05
