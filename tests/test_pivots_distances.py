"""Tests for Overlap Distance, decay weights, Weight Distance, and rank metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_weight_distances
from oracles import (
    TrieNode,
    overlap_distance_matrix_reference,
    pack_pivot_sets,
    skeleton_of,
)
from repro.core import GroupAssigner
from repro.core.routing import RoutingTable
from repro.exceptions import ConfigurationError
from repro.pivots import (
    check_pivot_rows,
    decay_weights,
    kendall_tau,
    membership_table,
    overlap_counts,
    overlap_distance,
    spearman_footrule,
    total_weight,
    weight_distance,
)


def od_matrix(objs: np.ndarray, cents: np.ndarray, r: int) -> np.ndarray:
    """``(d, k)`` Overlap Distances through the shared table and kernel."""
    overlap = overlap_counts(membership_table(cents, r), objs)
    return objs.shape[1] - overlap.astype(np.int64)


def random_rows(rng, n: int, r: int, m: int) -> np.ndarray:
    return np.array([rng.choice(r, size=m, replace=False) for _ in range(n)])


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
    """The membership table and overlap kernel that routing, group
    assignment and centroid selection share (DESIGN.md D13)."""

    def test_matches_scalar(self, rng):
        m, r = 6, 64
        objs = random_rows(rng, 30, r, m)
        cents = random_rows(rng, 5, r, m)
        mat = od_matrix(objs, cents, r)
        for i in range(30):
            for j in range(5):
                assert mat[i, j] == overlap_distance(objs[i], cents[j])

    @pytest.mark.parametrize("r,m", [(63, 6), (64, 6), (65, 6), (9, 9)])
    def test_matches_scalar_at_word_boundaries(self, r, m):
        """Around the old 64-bit word boundary, and at m = r, where every
        signature holds every pivot."""
        rng = np.random.default_rng(r)
        objs = random_rows(rng, 40, r, m)
        cents = random_rows(rng, 7, r, m)
        mat = od_matrix(objs, cents, r)
        want = [[overlap_distance(o, c) for c in cents] for o in objs]
        np.testing.assert_array_equal(mat, want)

    def test_range(self, rng):
        m, r = 8, 100
        objs = random_rows(rng, 20, r, m)
        mat = od_matrix(objs, objs, r)
        assert mat.min() >= 0
        assert mat.max() <= m
        np.testing.assert_array_equal(np.diag(mat), 0)

    def test_table_width_mismatch(self):
        """A pivot id past the table's height is refused, in a centroid
        set and in a signature row, never wrapped."""
        for bad in ([(0, 8)], [(-1, 2)]):
            with pytest.raises(ConfigurationError):
                membership_table(bad, 8)
        with pytest.raises(ConfigurationError):
            check_pivot_rows(np.array([[0, 8]]), 2, 8)

    def test_fallback_centroid_is_a_zero_column(self):
        table = membership_table([(), (1, 3), ()], 5)
        assert table.shape == (5, 3) and table.dtype == np.uint8
        np.testing.assert_array_equal(table[:, [0, 2]], 0)
        np.testing.assert_array_equal(np.flatnonzero(table[:, 1]), [1, 3])
        overlap = overlap_counts(table, np.array([[3, 1], [0, 4]]))
        np.testing.assert_array_equal(overlap, [[0, 2, 0], [0, 0, 0]])


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
    """The Weight Distances ``GroupAssigner`` gathers from its uint8
    membership table at (signature, centroid) pairs."""

    @staticmethod
    def _assigner(cents, r, w):
        return GroupAssigner([tuple(c) for c in cents.tolist()], r,
                             cents.shape[1], weights=w)

    def test_matches_scalar(self, rng):
        m, r = 5, 80
        w = decay_weights(m, "exponential", 0.5)
        ranked = random_rows(rng, 25, r, m)
        cents = random_rows(rng, 4, r, m)
        mat = pair_weight_distances(self._assigner(cents, r, w), ranked)
        for i in range(25):
            for j in range(4):
                # Exact: the assignment's tie cascade compares these bits.
                assert mat[i, j] == weight_distance(ranked[i], cents[j], w)

    def test_uint8_table_equals_float_table(self, rng):
        """``w * 1`` is ``w``: gathering the uint8 table gives the bits a
        float copy of it gives."""
        m, r = 7, 64
        w = decay_weights(m, "linear")
        ranked = random_rows(rng, 30, r, m)
        cents = random_rows(rng, 6, r, m)
        assigner = self._assigner(cents, r, w)
        got = pair_weight_distances(assigner, ranked)
        members = assigner._members.astype(np.float64)
        matched = np.zeros(got.shape)
        for rank in range(m):
            matched += w[rank] * members[ranked[:, rank]]
        assert got.tobytes() == (total_weight(w) - matched).tobytes()

    def test_bounds(self, rng):
        m, r = 6, 100
        w = decay_weights(m)
        ranked = random_rows(rng, 20, r, m)
        cents = random_rows(rng, 6, r, m)
        mat = pair_weight_distances(self._assigner(cents, r, w), ranked)
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

    @pytest.mark.parametrize("q,r,m", [
        pytest.param(1, 70, 6, id="1"),
        pytest.param(7, 70, 6, id="7"),
        pytest.param(32, 70, 6, id="32"),
        pytest.param(300, 70, 6, id="300"),
        pytest.param(40, 63, 6, id="r63"),
        pytest.param(40, 64, 6, id="r64"),
        pytest.param(40, 65, 6, id="r65"),
        pytest.param(40, 12, 12, id="m=r"),
    ])
    def test_od_matrix_equals_the_packed_kernel(self, q, r, m):
        """The membership gather against the seed bitset kernel of
        ``tests/oracles.py``, for every row count and around the old
        64-bit word boundary: the same integers.  A second fall-back group
        sits between real ones and, like G0, scores OD m."""
        rng = np.random.default_rng(q + r)
        ranked, centroids = self._random_case(rng, r=r, m=m, d=q, k=9)
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
        want = overlap_distance_matrix_reference(
            pack_pivot_sets(ranked, r), pack_pivot_sets(centroids, r), m,
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
