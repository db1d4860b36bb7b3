"""Tests for Algorithm 1 (group assignment rules)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import assign_reference
from repro.core import GroupAssigner, compute_centroids
from repro.exceptions import ConfigurationError
from repro.pivots import decay_weights


@pytest.fixture
def paper_assigner() -> GroupAssigner:
    """The setup of the paper's Example 1: two centroids, m=3, exp decay."""
    return GroupAssigner(
        centroids=[(1, 2, 3), (2, 4, 5)],
        n_pivots=10,
        prefix_length=3,
        weights=decay_weights(3, "exponential", 0.5),
        rng=np.random.default_rng(0),
    )


class TestPaperExample1:
    def test_object_x_unique_smallest_od(self, paper_assigner):
        """X with P4->=<3,4,1>: OD(G1)=1 < OD(G2)=2 -> group 1."""
        result = paper_assigner.assign(np.array([[3, 4, 1]]))
        assert result.group_indices[0] == 1
        assert result.od_ties_broken == 0

    def test_object_y_wd_tie_break(self, paper_assigner):
        """Y with P4->=<4,2,1>: OD tie (1,1); WD(G2)=0.25 < WD(G1)=1 -> group 2."""
        result = paper_assigner.assign(np.array([[4, 2, 1]]))
        assert result.group_indices[0] == 2
        assert result.od_ties_broken == 1
        assert result.wd_ties_broken == 0

    def test_object_z_random_tie(self, paper_assigner):
        """Z with P4->=<6,2,7>: OD and WD both tie -> random pick among {1,2}."""
        result = paper_assigner.assign(np.array([[6, 2, 7]]))
        assert result.group_indices[0] in (1, 2)
        assert result.wd_ties_broken == 1

    def test_zero_overlap_goes_to_fallback(self, paper_assigner):
        """Lines 3-5: no pivot shared with any centroid -> group 0."""
        result = paper_assigner.assign(np.array([[7, 8, 9]]))
        assert result.group_indices[0] == 0

    def test_batch_matches_singles(self, paper_assigner):
        batch = np.array([[3, 4, 1], [4, 2, 1], [7, 8, 9]])
        out = paper_assigner.assign(batch).group_indices
        np.testing.assert_array_equal(out, [1, 2, 0])


class TestGroupAssignerGeneral:
    def test_random_tie_is_seeded(self):
        def build():
            return GroupAssigner(
                [(1, 2, 3), (4, 5, 6)], 10, 3,
                rng=np.random.default_rng(42),
            )

        tie_sig = np.array([[1, 4, 7]])  # one pivot in each centroid, same rank
        a = [build().assign(tie_sig).group_indices[0] for _ in range(5)]
        b = [build().assign(tie_sig).group_indices[0] for _ in range(5)]
        assert a == b

    def test_exact_centroid_match_wins(self):
        assigner = GroupAssigner([(1, 2, 3), (4, 5, 6)], 10, 3,
                                 rng=np.random.default_rng(0))
        out = assigner.assign(np.array([[2, 3, 1], [6, 5, 4]])).group_indices
        np.testing.assert_array_equal(out, [1, 2])

    def test_rejects_empty_centroids(self):
        with pytest.raises(ConfigurationError):
            GroupAssigner([], 10, 3)

    def test_rejects_wrong_centroid_length(self):
        with pytest.raises(ConfigurationError):
            GroupAssigner([(1, 2)], 10, 3)

    def test_rejects_wrong_signature_shape(self, paper_assigner):
        with pytest.raises(ConfigurationError):
            paper_assigner.assign(np.array([[1, 2, 3, 4]]))

    def test_rejects_wrong_weights_length(self):
        with pytest.raises(ConfigurationError):
            GroupAssigner([(1, 2, 3)], 10, 3, weights=np.ones(2))

    def test_every_object_gets_a_group(self, rng):
        assigner = GroupAssigner(
            [tuple(sorted(rng.choice(40, size=5, replace=False))) for _ in range(8)],
            40, 5, rng=np.random.default_rng(1),
        )
        ranked = np.array([rng.choice(40, size=5, replace=False) for _ in range(300)])
        out = assigner.assign(ranked).group_indices
        assert out.shape == (300,)
        assert out.min() >= 0
        assert out.max() <= 8

    def test_wd_tie_tolerance_is_relative(self):
        """Large-magnitude weights: mathematically tied WDs must tie.

        The object's signature is (0, 1, 2, 3, 4); centroid A holds its
        rank-{0,1,2} pivots, centroid B its rank-{0,3,4} pivots, so with
        weights (1e16, 1, 1, 2, 0) both match exactly 1e16 + 2 in real
        arithmetic — a genuine WD tie.  Float accumulation rounds A's sum
        to 1e16 (ulp(1e16) = 2), leaving a spurious 2.0 gap that the old
        absolute ``best_wd + 1e-12`` tolerance read as "not tied",
        deterministically mis-assigning to B.  The relative tolerance
        (anchored to the Total Weight) classifies the tie correctly and
        consumes a seeded random draw.
        """
        weights = np.array([1e16, 1.0, 1.0, 2.0, 0.0])
        centroids = [(0, 1, 2, 8, 9), (0, 3, 4, 8, 9)]
        sig = np.array([[0, 1, 2, 3, 4]])

        def result(seed):
            assigner = GroupAssigner(centroids, 10, 5, weights=weights,
                                     rng=np.random.default_rng(seed))
            return assigner.assign(sig)

        res = result(0)
        assert res.od_ties_broken == 1  # both centroids share 3 pivots
        assert res.wd_ties_broken == 1  # the tie is *detected*
        assert res.group_indices[0] in (1, 2)
        # A genuine random draw: across seeds both centroids are chosen
        # (the old absolute tolerance picked B deterministically).
        assert {result(s).group_indices[0] for s in range(12)} == {1, 2}
        ref = assign_reference(GroupAssigner(
            centroids, 10, 5, weights=weights, rng=np.random.default_rng(0)
        ), sig)
        assert ref.wd_ties_broken == 1
        assert ref.group_indices[0] == res.group_indices[0]

    def test_reference_matches_vectorized_on_paper_example(self, paper_assigner):
        batch = np.array([[3, 4, 1], [4, 2, 1], [7, 8, 9], [6, 2, 7]])
        ref_assigner = GroupAssigner(
            centroids=[(1, 2, 3), (2, 4, 5)], n_pivots=10, prefix_length=3,
            weights=decay_weights(3, "exponential", 0.5),
            rng=np.random.default_rng(0),
        )
        fast = paper_assigner.assign(batch)
        ref = assign_reference(ref_assigner, batch)
        np.testing.assert_array_equal(fast.group_indices, ref.group_indices)
        assert fast.od_ties_broken == ref.od_ties_broken
        assert fast.wd_ties_broken == ref.wd_ties_broken

    def test_assignment_minimises_od(self, rng):
        """Every object's assigned group must achieve the minimum OD."""
        from repro.pivots import overlap_distance

        centroids = [tuple(sorted(rng.choice(30, size=4, replace=False)))
                     for _ in range(6)]
        assigner = GroupAssigner(centroids, 30, 4, rng=np.random.default_rng(2))
        ranked = np.array([rng.choice(30, size=4, replace=False) for _ in range(200)])
        out = assigner.assign(ranked).group_indices
        for sig, gid in zip(ranked, out):
            ods = [overlap_distance(tuple(sorted(sig)), c) for c in centroids]
            if gid == 0:
                assert min(ods) == 4
            else:
                assert ods[gid - 1] == min(ods)



def _run_entry(entry: str, rows: list[list[int]]):
    """Hand ``rows`` to one of the three entries that gather a membership
    table (r = 10, m = 3)."""
    if entry == "compute_centroids":
        # Beside a valid signature, so a wrong width is a mixed one.
        sigs = [(6, 8, 9)] + [tuple(r) for r in rows] if rows else []
        return compute_centroids(sigs, [1] * len(sigs), sample_fraction=1.0,
                                 capacity=1, epsilon=1, n_pivots=10)
    assigner = GroupAssigner([(1, 2, 3), (2, 4, 5)], 10, 3)
    batch = np.array(rows, dtype=np.int64).reshape(
        len(rows), len(rows[0]) if rows else 3
    )
    return getattr(assigner, entry)(batch)


_ENTRIES = pytest.mark.parametrize(
    "entry", ["assign", "assign_deferred", "compute_centroids"]
)


@_ENTRIES
@pytest.mark.parametrize("rows", [
    pytest.param([[0, 5, 7], [1, 2, -1]], id="negative id"),
    pytest.param([[0, 5, 7], [1, 2, 10]], id="id = r"),
    pytest.param([[0, 5, 7], [4, 2, 4]], id="repeated id"),
    pytest.param([[1, 2, 3, 4]], id="wrong width"),
])
def test_signature_boundary_refused(entry, rows):
    """A signature reaching the overlap gather must be ``m`` distinct ids
    in ``[0, r)``: a repeated id would be counted twice, a negative one
    would wrap."""
    with pytest.raises(ConfigurationError, match="signature"):
        _run_entry(entry, rows)


@_ENTRIES
def test_signature_boundary_empty_batch(entry):
    _run_entry(entry, [])
