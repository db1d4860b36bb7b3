"""Parity tests: the vectorised routing engine vs the seed scalar path.

The acceptance bar of the routing refactor is *exact* equivalence with
the scalar implementation it replaced — identical candidate lists
(groups, OD, bit-identical WD), identical primary selection including
the seeded random tie-break stream, and identical kNN answers for all
three query variants, across several datasets and seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import scalar_group_candidates
from repro.core import ClimberConfig, ClimberIndex
from repro.core.routing import RoutingTable, select_primary
from repro.datasets import random_walk_dataset


def build_index(seed: int, count: int = 1800, **overrides):
    params = dict(word_length=8, n_pivots=32, prefix_length=6, capacity=120,
                  sample_fraction=0.25, n_input_partitions=12, seed=seed)
    params.update(overrides)
    cfg = ClimberConfig(**params)
    ds = random_walk_dataset(count, 48, seed=seed + 100)
    return ds, ClimberIndex.build(ds, cfg)


def scalar_twin(index: ClimberIndex) -> ClimberIndex:
    """A second index over the same artifacts, patched to the scalar path.

    Both twins start with a fresh tie-break RNG at the same seed, so any
    divergence in RNG *consumption* between the paths shows up as a
    divergence in results.
    """
    twin = ClimberIndex(index._art, index.config, index.model)
    twin.group_candidates = (
        lambda sig, od_slack=0: scalar_group_candidates(twin, sig, od_slack)
    )
    twin.select_primary = lambda cands: select_primary(cands, twin._rng)
    return twin


class TestCandidateParity:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_group_candidates_match_scalar(self, seed):
        ds, idx = build_index(seed)
        for i in range(0, ds.count, 131):
            sig = idx.query_signature(ds.values[i])
            for slack in (0, 1, 2):
                fast = idx.group_candidates(sig, od_slack=slack)
                ref = scalar_group_candidates(idx, sig, od_slack=slack)
                assert [c.entry.group_id for c in fast] == [
                    c.entry.group_id for c in ref
                ]
                assert [c.od for c in fast] == [c.od for c in ref]
                # WD must match bit-for-bit, not approximately: the sort
                # order (OD, WD, id) depends on exact float values.
                assert [c.wd for c in fast] == [c.wd for c in ref]
                # Flat ids from the compiled walk against the reference's
                # own pre-order count over the pointer trie.
                assert [c.path for c in fast] == [c.path for c in ref]
                assert [c.gn_count for c in fast] == [c.gn_count for c in ref]

    def test_fallback_query_routes_to_group_zero(self):
        _, idx = build_index(1)
        m = idx.config.prefix_length
        # A signature overlapping no centroid must fall back to G0 in both.
        pivots_used = set()
        for g in idx.skeleton.groups[1:]:
            pivots_used |= set(g.centroid)
        unused = [p for p in range(idx.config.n_pivots) if p not in pivots_used]
        if len(unused) < m:
            pytest.skip("every pivot appears in some centroid for this build")
        sig = np.array(unused[:m], dtype=np.int64)
        fast = idx.group_candidates(sig)
        ref = scalar_group_candidates(idx, sig)
        assert len(fast) == len(ref) == 1
        assert fast[0].entry.group_id == ref[0].entry.group_id == 0
        assert fast[0].od == ref[0].od == m

    @pytest.mark.parametrize("seed", [2, 5])
    def test_select_primary_on_vectorised_candidates(self, seed):
        ds, idx = build_index(seed)
        rng = np.random.default_rng(999)
        for i in range(0, ds.count, 83):
            sig = idx.query_signature(ds.values[i])
            cands = idx.group_candidates(sig, od_slack=1)
            primary = select_primary(cands, rng)
            assert primary.od == min(c.od for c in cands)
            best_wd = min(c.wd for c in cands if c.od == primary.od)
            assert primary.wd <= best_wd + 1e-12

    def test_od_matrix_and_lazy_wd_match_scalar_metrics(self):
        """The batch prologue's two calls: one OD matrix over all rows,
        then per-row ``candidates`` accumulating WD for the chosen groups
        only — every value against the scalar metrics, bit for bit."""
        ds, idx = build_index(4)
        table: RoutingTable = idx.routing
        sigs = np.vstack(
            [idx.query_signature(ds.values[i]) for i in range(0, 60, 7)]
        )
        od = table.od_matrix(sigs)
        assert od.shape == (sigs.shape[0], idx.n_groups)
        m = idx.config.prefix_length
        for row, sig in enumerate(sigs):
            ref = scalar_group_candidates(idx, sig, od_slack=m)
            for cand in ref:
                assert od[row, cand.entry.group_id] == cand.od
            lazy = table.candidates(sig, od[row], od_slack=m)
            assert [c.entry.group_id for c in lazy] == [
                c.entry.group_id for c in ref
            ]
            assert [c.wd for c in lazy] == [c.wd for c in ref]


class TestKnnParity:
    @pytest.mark.parametrize("variant", ["knn", "adaptive", "od-smallest"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_knn_matches_scalar_path(self, variant, seed):
        ds, built = build_index(seed)
        fast = ClimberIndex(built._art, built.config, built.model)
        ref = scalar_twin(built)
        for i in range(0, ds.count, 157):
            a = fast.knn(ds.values[i], 12, variant=variant)
            b = ref.knn(ds.values[i], 12, variant=variant)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert a.stats.group_ids == b.stats.group_ids
            assert a.stats.best_od == b.stats.best_od
            assert a.stats.partitions_loaded == b.stats.partitions_loaded

    def test_knn_parity_with_deltas(self):
        ds, built = build_index(11, count=1400)
        extra = random_walk_dataset(300, 48, seed=500)
        built.append(extra)
        fast = ClimberIndex(built._art, built.config, built.model)
        ref = scalar_twin(built)
        for i in (0, 50, 600):
            a = fast.knn(ds.values[i], 8, variant="adaptive")
            b = ref.knn(ds.values[i], 8, variant="adaptive")
            np.testing.assert_array_equal(a.ids, b.ids)
            assert a.stats.partitions_loaded == b.stats.partitions_loaded


class TestBatchEquivalence:
    @pytest.mark.parametrize("variant", ["knn", "adaptive", "od-smallest"])
    def test_batch_equals_loop(self, variant):
        ds, built = build_index(6)
        loop_idx = ClimberIndex(built._art, built.config, built.model)
        batch_idx = ClimberIndex(built._art, built.config, built.model)
        queries = ds.values[:24]
        batch = batch_idx.knn_batch(queries, 7, variant=variant)
        assert len(batch) == queries.shape[0]
        for i, res in enumerate(batch):
            single = loop_idx.knn(queries[i], 7, variant=variant)
            np.testing.assert_array_equal(res.ids, single.ids)
            np.testing.assert_array_equal(res.distances, single.distances)
            assert res.stats.group_ids == single.stats.group_ids
            assert res.stats.partitions_loaded == single.stats.partitions_loaded
            assert res.stats.data_bytes == single.stats.data_bytes

    def test_batch_shares_transform_work(self):
        """The batch path computes one signature matrix, not q of them."""
        ds, built = build_index(8)
        calls = []
        orig = ClimberIndex.query_signature
        built.query_signature = lambda q: (
            calls.append(1) or orig(built, q)
        )
        built.knn_batch(ds.values[:5], 3, variant="knn")
        assert calls == []  # per-query signature path never taken

    def test_batch_single_row_input(self):
        ds, built = build_index(8)
        out = built.knn_batch(ds.values[0], 3)
        assert len(out) == 1
        assert len(out[0].ids) == 3

    def test_batch_empty_input(self):
        ds, built = build_index(8)
        assert built.knn_batch(np.empty((0, ds.length)), 3) == []
