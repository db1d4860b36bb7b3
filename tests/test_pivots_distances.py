"""Tests for Overlap Distance, decay weights, Weight Distance, and rank metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TrieNode, skeleton_of
from repro.core.routing import RoutingTable
from repro.exceptions import ConfigurationError
from repro.pivots import (
    decay_weights,
    kendall_tau,
    overlap_distance,
    overlap_distance_matrix,
    pack_pivot_sets,
    spearman_footrule,
    total_weight,
    weight_distance,
    weight_distance_matrix,
)


class TestOverlapDistance:
    def test_paper_example(self):
        """Section IV-C: OD(<1,3,6,8>, <2,3,4,6>) = 4 - 2 = 2."""
        assert overlap_distance((1, 3, 6, 8), (2, 3, 4, 6)) == 2

    def test_identity(self):
        assert overlap_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_disjoint_is_m(self):
        assert overlap_distance((1, 2), (3, 4)) == 2

    def test_symmetry(self):
        a, b = (1, 5, 9), (5, 2, 7)
        assert overlap_distance(a, b) == overlap_distance(b, a)

    def test_rank_invariance(self):
        """OD only sees the pivot *set* — ordering must not matter."""
        assert overlap_distance((3, 1, 2), (1, 2, 3)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            overlap_distance((1, 2), (1, 2, 3))


class TestOverlapDistanceMatrix:
    def test_matches_scalar(self, rng):
        m, r = 6, 64
        objs = np.array([rng.choice(r, size=m, replace=False) for _ in range(30)])
        cents = np.array([rng.choice(r, size=m, replace=False) for _ in range(5)])
        mat = overlap_distance_matrix(
            pack_pivot_sets(objs, r), pack_pivot_sets(cents, r), m
        )
        for i in range(30):
            for j in range(5):
                assert mat[i, j] == overlap_distance(objs[i], cents[j])

    def test_range(self, rng):
        m, r = 8, 100
        objs = np.array([rng.choice(r, size=m, replace=False) for _ in range(20)])
        mat = overlap_distance_matrix(
            pack_pivot_sets(objs, r), pack_pivot_sets(objs, r), m
        )
        assert mat.min() >= 0
        assert mat.max() <= m
        np.testing.assert_array_equal(np.diag(mat), 0)

    def test_word_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            overlap_distance_matrix(
                np.zeros((2, 1), dtype=np.uint64),
                np.zeros((2, 2), dtype=np.uint64),
                4,
            )


class TestDecayWeights:
    def test_exponential_paper_sequence(self):
        """Paper: lambda=1/2 gives [1, 1/2, 1/4, ...]."""
        np.testing.assert_allclose(decay_weights(4, "exponential", 0.5),
                                   [1.0, 0.5, 0.25, 0.125])

    def test_linear_paper_sequence(self):
        """Paper: linear decay is [1, (m-1)/m, (m-2)/m, ...] for lambda=1/m."""
        np.testing.assert_allclose(decay_weights(4, "linear"),
                                   [1.0, 0.75, 0.5, 0.25])

    def test_strictly_decreasing(self):
        for kind in ("exponential", "linear"):
            w = decay_weights(10, kind)
            assert np.all(np.diff(w) < 0), kind

    def test_first_weight_is_one(self):
        assert decay_weights(5, "exponential")[0] == 1.0
        assert decay_weights(5, "linear")[0] == 1.0

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            decay_weights(4, "exponential", 1.0)
        with pytest.raises(ConfigurationError):
            decay_weights(4, "linear", -1.0)
        with pytest.raises(ConfigurationError):
            decay_weights(4, "gaussian")  # type: ignore[arg-type]

    def test_total_weight_constant(self):
        """Def. 10: TW is the same for every signature of one configuration."""
        w = decay_weights(3, "exponential", 0.5)
        assert total_weight(w) == pytest.approx(1.75)


class TestWeightDistance:
    def test_paper_example1_object_y(self):
        """Example 1: WD(Y, G1)=1.0 and WD(Y, G2)=0.25 for P4->(Y)=<4,2,1>."""
        w = decay_weights(3, "exponential", 0.5)
        assert weight_distance((4, 2, 1), (1, 2, 3), w) == pytest.approx(1.0)
        assert weight_distance((4, 2, 1), (2, 4, 5), w) == pytest.approx(0.25)

    def test_paper_example1_object_z_tie(self):
        """Example 1: Z ties both groups at WD = 1.25."""
        w = decay_weights(3, "exponential", 0.5)
        assert weight_distance((6, 2, 7), (1, 2, 3), w) == pytest.approx(1.25)
        assert weight_distance((6, 2, 7), (2, 4, 5), w) == pytest.approx(1.25)

    def test_full_overlap_zero(self):
        w = decay_weights(3, "exponential", 0.5)
        assert weight_distance((1, 2, 3), (1, 2, 3), w) == 0.0

    def test_no_overlap_equals_total_weight(self):
        w = decay_weights(3, "exponential", 0.5)
        assert weight_distance((1, 2, 3), (4, 5, 6), w) == pytest.approx(1.75)

    def test_earlier_pivots_count_more(self):
        """A centroid holding the object's nearest pivot beats one holding
        only its farthest pivot."""
        w = decay_weights(3, "exponential", 0.5)
        near = weight_distance((1, 2, 3), (1, 8, 9), w)
        far = weight_distance((1, 2, 3), (3, 8, 9), w)
        assert near < far

    def test_weights_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            weight_distance((1, 2), (1,), decay_weights(3))


class TestWeightDistanceMatrix:
    def test_matches_scalar(self, rng):
        m, r = 5, 80
        w = decay_weights(m, "exponential", 0.5)
        ranked = np.array([rng.choice(r, size=m, replace=False) for _ in range(25)])
        cents = np.array([rng.choice(r, size=m, replace=False) for _ in range(4)])
        mat = weight_distance_matrix(ranked, cents, r, w)
        for i in range(25):
            for j in range(4):
                expect = weight_distance(ranked[i], cents[j], w)
                assert mat[i, j] == pytest.approx(expect)

    def test_accepts_prepacked_centroids(self, rng):
        m, r = 4, 64
        w = decay_weights(m)
        ranked = np.array([rng.choice(r, size=m, replace=False) for _ in range(10)])
        cents = np.array([rng.choice(r, size=m, replace=False) for _ in range(3)])
        a = weight_distance_matrix(ranked, cents, r, w)
        b = weight_distance_matrix(ranked, pack_pivot_sets(cents, r), r, w)
        np.testing.assert_allclose(a, b)

    def test_bounds(self, rng):
        m, r = 6, 100
        w = decay_weights(m)
        ranked = np.array([rng.choice(r, size=m, replace=False) for _ in range(20)])
        cents = np.array([rng.choice(r, size=m, replace=False) for _ in range(6)])
        mat = weight_distance_matrix(ranked, cents, r, w)
        assert mat.min() >= -1e-12
        assert mat.max() <= total_weight(w) + 1e-12


class TestRankMetrics:
    def test_footrule_identity(self):
        assert spearman_footrule((1, 2, 3), (1, 2, 3)) == 0

    def test_footrule_swap(self):
        assert spearman_footrule((1, 2), (2, 1)) == 2

    def test_footrule_requires_same_ids(self):
        with pytest.raises(ConfigurationError):
            spearman_footrule((1, 2), (1, 3))

    def test_kendall_identity(self):
        assert kendall_tau((4, 5, 6), (4, 5, 6)) == 0

    def test_kendall_reverse_is_max(self):
        assert kendall_tau((1, 2, 3, 4), (4, 3, 2, 1)) == 6

    def test_kendall_single_swap(self):
        assert kendall_tau((1, 2, 3), (2, 1, 3)) == 1

    def test_kendall_requires_same_ids(self):
        with pytest.raises(ConfigurationError):
            kendall_tau((1, 2), (3, 4))

    def test_footrule_bounds_kendall(self):
        """Diaconis-Graham: K <= F <= 2K."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.permutation(7).tolist()
            b = rng.permutation(7).tolist()
            k = kendall_tau(a, b)
            f = spearman_footrule(a, b)
            assert k <= f <= 2 * k or (k == 0 and f == 0)


def leaf(count: float, pid: int) -> TrieNode:
    """A root-only trie packed into partition ``pid``."""
    root = TrieNode(None, (), count)
    root.partition_ids = {pid}
    return root


class TestRoutingDistances:
    """Query-time OD + WD — ``RoutingTable.od_matrix`` and the Weight
    Distances ``candidates`` accumulates lazily for the chosen groups —
    against the scalar metrics, over hand-made centroids."""

    @staticmethod
    def _random_case(rng, r=40, m=6, d=9, k=5):
        ranked = np.array(
            [rng.choice(r, size=m, replace=False) for _ in range(d)],
            dtype=np.int64,
        )
        centroids = np.array(
            [rng.choice(r, size=m, replace=False) for _ in range(k)],
            dtype=np.int64,
        )
        return ranked, centroids

    @staticmethod
    def _table(centroids, weights, r=40):
        """Fall-back G0 plus one root-only group per centroid row."""
        groups = [((), leaf(0.0, 0), 0)] + [
            (tuple(cent.tolist()), leaf(1.0, j), j)
            for j, cent in enumerate(centroids, start=1)
        ]
        skeleton = skeleton_of(groups, prefix_length=centroids.shape[1],
                               n_pivots=r, n_partitions=len(groups))
        return RoutingTable(skeleton, weights)

    @pytest.mark.parametrize("decay", ["exponential", "linear"])
    def test_matches_scalar_metrics_bitwise(self, decay):
        rng = np.random.default_rng(17)
        ranked, centroids = self._random_case(rng)
        m = ranked.shape[1]
        w = decay_weights(m, decay)
        table = self._table(centroids, w)
        od = table.od_matrix(ranked)
        compared = 0
        for i, sig in enumerate(ranked):
            for j, cent in enumerate(centroids, start=1):
                assert od[i, j] == overlap_distance(sorted(sig), sorted(cent))
            # od_slack=m: every group sharing a pivot with the signature.
            for cand in table.candidates(sig, od[i], od_slack=m):
                cent = centroids[cand.entry.group_id - 1]
                # Exact equality: the sort order of routing depends on it.
                assert cand.wd == weight_distance(sig, cent, w)
                compared += 1
        assert compared > ranked.shape[0]

    @pytest.mark.parametrize("q", [1, 7, 32, 300])
    def test_od_matrix_equals_the_packed_kernel(self, q):
        """The membership gather against the bitset kernel, for every row
        count: one path, the same integers.  A second fall-back group sits
        between real ones and, like G0, scores OD m."""
        rng = np.random.default_rng(q)
        r = 70  # two bitset words
        ranked, centroids = self._random_case(rng, r=r, d=q, k=9)
        m = ranked.shape[1]
        groups = [((), leaf(0.0, 0), 0)] + [
            (tuple(cent.tolist()), leaf(1.0, j), j)
            for j, cent in enumerate(centroids, start=1)
        ]
        groups.insert(4, ((), leaf(0.0, 4), 4))
        skeleton = skeleton_of(groups, prefix_length=m, n_pivots=r,
                               n_partitions=len(groups))
        od = RoutingTable(skeleton, decay_weights(m)).od_matrix(ranked)
        assert od.shape == (q, len(groups)) and od.dtype == np.int64
        fallback = [0, 4]
        assert (od[:, fallback] == m).all()
        real = np.delete(od, fallback, axis=1)
        want = overlap_distance_matrix(
            pack_pivot_sets(np.sort(ranked, axis=1), r),
            pack_pivot_sets(centroids, r), m,
        )
        np.testing.assert_array_equal(real, want)

    def test_shapes_and_dtypes(self):
        rng = np.random.default_rng(3)
        ranked, centroids = self._random_case(rng, d=4, k=7)
        m = ranked.shape[1]
        table = self._table(centroids, decay_weights(m))
        od = table.od_matrix(ranked)
        assert od.shape == (4, 8) and od.dtype == np.int64
        assert (od[:, 0] == m).all()  # the fall-back group overlaps nothing
        assert np.array_equal(table.od_matrix(ranked[2]), od[2:3])
        for cand in table.candidates(ranked[0], od[0], od_slack=m):
            assert isinstance(cand.wd, float) and isinstance(cand.od, int)


@given(st.integers(2, 40), st.data())
@settings(max_examples=50, deadline=None)
def test_overlap_distance_is_set_metric(r, data):
    """Property: OD is a metric on equal-size pivot sets (triangle ineq.)."""
    m = data.draw(st.integers(1, min(r, 8)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = tuple(rng.choice(r, size=m, replace=False).tolist())
    b = tuple(rng.choice(r, size=m, replace=False).tolist())
    c = tuple(rng.choice(r, size=m, replace=False).tolist())
    ab = overlap_distance(a, b)
    bc = overlap_distance(b, c)
    ac = overlap_distance(a, c)
    assert 0 <= ac <= m
    assert ac <= ab + bc
    assert ab == overlap_distance(b, a)
