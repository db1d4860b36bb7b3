"""Tests for Euclidean distances, brute-force kNN, and partial-result merging."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.series import (
    euclidean,
    knn_bruteforce,
    knn_merge,
    pairwise_euclidean,
    squared_euclidean,
)
from repro.series.distance import block_scores, knn_select


class TestEuclidean:
    def test_identity(self):
        x = np.arange(5.0)
        assert euclidean(x, x) == 0.0

    def test_known_value(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_symmetry(self, rng):
        x, y = rng.normal(size=(2, 20))
        assert euclidean(x, y) == pytest.approx(euclidean(y, x))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            euclidean(np.zeros(3), np.zeros(4))


class TestSquaredEuclidean:
    def test_matches_naive(self, rng):
        q = rng.normal(size=(3, 16))
        d = rng.normal(size=(7, 16))
        fast = squared_euclidean(q, d)
        naive = ((q[:, None, :] - d[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(fast, naive, atol=1e-9)

    def test_never_negative(self, rng):
        # Clustered near-identical points stress the cancellation path.
        base = rng.normal(size=16)
        pts = base + rng.normal(scale=1e-9, size=(50, 16))
        assert squared_euclidean(pts, pts).min() >= 0.0

    def test_shape(self, rng):
        out = squared_euclidean(rng.normal(size=(2, 8)), rng.normal(size=(5, 8)))
        assert out.shape == (2, 5)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            squared_euclidean(np.zeros((2, 8)), np.zeros((2, 9)))

    def test_pairwise_is_sqrt(self, rng):
        q = rng.normal(size=(2, 8))
        d = rng.normal(size=(4, 8))
        np.testing.assert_allclose(
            pairwise_euclidean(q, d) ** 2, squared_euclidean(q, d), atol=1e-9
        )


class TestKnnBruteforce:
    def test_finds_self_first(self, rng):
        data = rng.normal(size=(30, 10))
        ids, dists = knn_bruteforce(data[4], data, np.arange(30), 5)
        assert ids[0] == 4
        assert dists[0] == 0.0

    def test_sorted_by_distance(self, rng):
        data = rng.normal(size=(50, 10))
        _, dists = knn_bruteforce(data[0], data, np.arange(50), 10)
        assert np.all(np.diff(dists) >= 0)

    def test_k_larger_than_data(self, rng):
        data = rng.normal(size=(3, 5))
        ids, _ = knn_bruteforce(data[0], data, np.arange(3), 10)
        assert len(ids) == 3

    def test_matches_full_sort(self, rng):
        data = rng.normal(size=(100, 8))
        q = rng.normal(size=8)
        ids, _ = knn_bruteforce(q, data, np.arange(100), 7)
        full = np.sqrt(((data - q) ** 2).sum(axis=1))
        expect = np.argsort(full, kind="stable")[:7]
        assert set(ids) == set(expect)

    def test_deterministic_tie_break_by_id(self):
        data = np.zeros((5, 4))  # all identical -> all ties
        ids, _ = knn_bruteforce(np.zeros(4), data, np.array([9, 3, 7, 1, 5]), 3)
        assert list(ids) == [1, 3, 5]

    def test_small_set_fast_path_matches_general(self, rng):
        """One scoring step serves every block size (the former small-set
        branch ended at 64 rows); it must pick the same neighbours as the
        batch ``squared_euclidean``."""
        for n in (1, 2, 64, 65, 200):
            data = rng.normal(size=(n, 12))
            q = rng.normal(size=12)
            k = min(5, n)
            ids, dists = knn_bruteforce(q, data, np.arange(n), k)
            d2 = squared_euclidean(q, data)[0]
            expect = np.lexsort((np.arange(n), d2))[:k]
            np.testing.assert_array_equal(ids, expect)
            np.testing.assert_allclose(dists, np.sqrt(d2[expect]))

    def test_small_set_tie_break_still_by_id(self):
        # Integer-valued data: both arithmetic paths are exact, so the
        # deterministic (distance, id) ordering is observable.
        data = np.array([[0.0, 3.0], [3.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        ids, dists = knn_bruteforce(np.zeros(2), data, np.array([9, 2, 7, 1]), 3)
        assert list(ids) == [7, 1, 2]
        np.testing.assert_allclose(dists, [0.0, 3.0, 3.0])

    def test_small_set_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            knn_bruteforce(np.zeros(4), np.zeros((3, 5)), np.arange(3), 2)

    @pytest.mark.parametrize("n", [1, 64, 65, 2000])
    def test_is_selection_over_scoring(self, rng, n):
        data = rng.normal(size=(n, 24))
        q = rng.normal(size=24)
        ids = rng.permutation(n) + 7
        chosen, dists = knn_select(
            block_scores(data, -2.0 * q), ids, 10, np.dot(q, q)
        )
        got_ids, got_dists = knn_bruteforce(q, data, ids, 10)
        np.testing.assert_array_equal(got_ids, ids[chosen])
        np.testing.assert_array_equal(got_dists, dists)

    def test_scoring_a_mapped_view_equals_scoring_its_copy(self, rng):
        """A run is scored as the storage engine mapped it: a read-only
        view into a blob at an offset that is 8- but not 64-byte aligned,
        which neither owns its memory nor is copied to be scored."""
        n, length = 333, 128
        blob = bytes(24) + rng.normal(size=(n, length)).tobytes() + bytes(8)
        view = np.frombuffer(blob, dtype=np.float64, count=n * length,
                             offset=24).reshape(n, length)
        assert not view.flags.writeable and not view.flags.owndata
        neg2q = -2.0 * rng.normal(size=length)
        np.testing.assert_array_equal(
            block_scores(view, neg2q), block_scores(view.copy(), neg2q)
        )

    def test_custom_ids_returned(self, rng):
        data = rng.normal(size=(10, 6))
        ids = np.arange(100, 110)
        out, _ = knn_bruteforce(data[2], data, ids, 1)
        assert out[0] == 102


class TestKnnMerge:
    def test_merges_two_partitions(self):
        a = (np.array([1, 2]), np.array([0.5, 2.0]))
        b = (np.array([3, 4]), np.array([1.0, 3.0]))
        ids, dists = knn_merge([a, b], 3)
        assert list(ids) == [1, 3, 2]
        np.testing.assert_allclose(dists, [0.5, 1.0, 2.0])

    def test_duplicate_ids_keep_min_distance(self):
        a = (np.array([1]), np.array([2.0]))
        b = (np.array([1]), np.array([1.0]))
        ids, dists = knn_merge([a, b], 5)
        assert list(ids) == [1]
        assert dists[0] == 1.0

    def test_empty_input(self):
        ids, dists = knn_merge([], 5)
        assert len(ids) == 0
        assert len(dists) == 0

    def test_equals_global_bruteforce(self, rng):
        data = rng.normal(size=(60, 8))
        q = rng.normal(size=8)
        parts = np.array_split(np.arange(60), 4)
        partials = [
            knn_bruteforce(q, data[p], p, 10) for p in parts
        ]
        merged_ids, merged_d = knn_merge(partials, 10)
        direct_ids, direct_d = knn_bruteforce(q, data, np.arange(60), 10)
        assert set(merged_ids) == set(direct_ids)
        np.testing.assert_allclose(np.sort(merged_d), np.sort(direct_d), atol=1e-9)

    @staticmethod
    def _reference_merge(partials, k):
        """The pre-vectorisation dict+heap implementation."""
        import heapq

        best = {}
        for ids, dists in partials:
            for i, dist in zip(np.asarray(ids), np.asarray(dists)):
                i, dist = int(i), float(dist)
                if i not in best or dist < best[i]:
                    best[i] = dist
        top = heapq.nsmallest(k, [(d, i) for i, d in best.items()])
        if not top:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return (np.array([t[1] for t in top], dtype=np.int64),
                np.array([t[0] for t in top], dtype=np.float64))

    def test_matches_scalar_reference(self, rng):
        for trial in range(20):
            partials = []
            for _ in range(rng.integers(1, 5)):
                n = int(rng.integers(0, 12))
                ids = rng.integers(0, 15, size=n)
                dists = np.round(rng.uniform(0, 4, size=n), 1)  # force ties
                partials.append((ids, dists))
            k = int(rng.integers(1, 10))
            got_ids, got_d = knn_merge(partials, k)
            ref_ids, ref_d = self._reference_merge(partials, k)
            np.testing.assert_array_equal(got_ids, ref_ids)
            np.testing.assert_array_equal(got_d, ref_d)
            assert got_ids.dtype == np.int64 and got_d.dtype == np.float64

    def test_deterministic_distance_id_order(self):
        a = (np.array([7, 3, 9]), np.array([1.0, 1.0, 0.5]))
        b = (np.array([5]), np.array([1.0]))
        ids, dists = knn_merge([a, b], 4)
        assert list(ids) == [9, 3, 5, 7]
        np.testing.assert_allclose(dists, [0.5, 1.0, 1.0, 1.0])

    def test_all_empty_partials(self):
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        ids, dists = knn_merge([empty, empty], 3)
        assert len(ids) == 0 and len(dists) == 0


@given(
    arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 12)),
           elements=st.floats(-100, 100, allow_nan=False)),
)
@settings(max_examples=50, deadline=None)
def test_triangle_inequality(mat):
    """Property: Euclidean distance satisfies the triangle inequality."""
    x, y = mat[0], mat[1]
    z = mat[-1]
    assert euclidean(x, z) <= euclidean(x, y) + euclidean(y, z) + 1e-7
