"""Tests for pivot selection, permutations, and permutation prefixes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import permutation_prefixes_reference
from repro.exceptions import ConfigurationError
from repro.pivots import (
    full_permutations,
    permutation_prefixes,
    pivot_distance_matrix,
    select_farthest_first_pivots,
    select_random_pivots,
)
from repro.pivots.permutation import _SORT_ROWS


@pytest.fixture(scope="module")
def paa_and_pivots():
    rng = np.random.default_rng(77)
    paa = rng.normal(size=(500, 8))
    pivots = select_random_pivots(paa, 16, rng)
    return paa, pivots


class TestSelection:
    def test_random_pivots_are_candidate_rows(self, rng):
        cands = rng.normal(size=(50, 6))
        pivots = select_random_pivots(cands, 10, rng)
        assert pivots.shape == (10, 6)
        for p in pivots:
            assert any(np.array_equal(p, c) for c in cands)

    def test_random_pivots_distinct(self, rng):
        cands = rng.normal(size=(50, 6))
        pivots = select_random_pivots(cands, 50, rng)
        assert np.unique(pivots, axis=0).shape[0] == 50

    def test_too_many_pivots_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            select_random_pivots(rng.normal(size=(5, 4)), 6, rng)

    def test_zero_pivots_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            select_random_pivots(rng.normal(size=(5, 4)), 0, rng)

    def test_pivots_are_copies(self, rng):
        cands = rng.normal(size=(20, 4))
        pivots = select_random_pivots(cands, 5, rng)
        pivots[0, 0] = 1e9
        assert cands.max() < 1e9

    def test_farthest_first_spreads(self, rng):
        """Max-min selection must achieve wider min-pairwise spacing."""
        from repro.series import squared_euclidean

        cands = rng.normal(size=(300, 8))

        def min_gap(pivots):
            d2 = squared_euclidean(pivots, pivots)
            np.fill_diagonal(d2, np.inf)
            return d2.min()

        ff = select_farthest_first_pivots(cands, 12, np.random.default_rng(1))
        rnd = select_random_pivots(cands, 12, np.random.default_rng(1))
        assert min_gap(ff) >= min_gap(rnd)


class TestPivotDistanceMatrix:
    def test_shape(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        assert pivot_distance_matrix(paa, pivots).shape == (500, 16)

    def test_word_length_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            pivot_distance_matrix(rng.normal(size=(5, 8)), rng.normal(size=(3, 7)))

    def test_zero_for_pivot_itself(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        d2 = pivot_distance_matrix(pivots, pivots)
        np.testing.assert_allclose(np.diag(d2), 0.0, atol=1e-9)


class TestFullPermutations:
    def test_rows_are_permutations(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        perms = full_permutations(paa, pivots)
        assert perms.shape == (500, 16)
        expect = np.arange(16)
        for row in perms[:25]:
            np.testing.assert_array_equal(np.sort(row), expect)

    def test_sorted_by_distance(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        perms = full_permutations(paa, pivots)
        d2 = pivot_distance_matrix(paa, pivots)
        for i in range(0, 500, 100):
            ordered = d2[i, perms[i]]
            assert np.all(np.diff(ordered) >= 0)

    def test_tie_break_by_pivot_id(self):
        # Two identical pivots: the lower id must come first.
        pivots = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        perms = full_permutations(np.array([[0.0, 0.0]]), pivots)
        assert list(perms[0]) == [1, 2, 0]

    def test_paper_figure2_style_example(self):
        """A point nearest p6 then p4 must start its permutation <6, 4, ...>."""
        pivots = np.array(
            [[10.0, 0], [8.0, 8], [0, 10.0], [2.0, 1.0], [5.0, 9.0], [1.0, 0.5], [4.0, 4.0]]
        )
        x = np.array([[1.2, 0.7]])
        perm = full_permutations(x, pivots)[0]
        assert perm[0] == 5  # closest pivot
        d2 = pivot_distance_matrix(x, pivots)[0]
        np.testing.assert_array_equal(perm, np.argsort(d2, kind="stable"))


class TestPermutationPrefixes:
    def test_prefix_is_head_of_full_permutation(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        full = full_permutations(paa, pivots)
        for m in (1, 3, 8, 16):
            prefix = permutation_prefixes(paa, pivots, m)
            np.testing.assert_array_equal(prefix, full[:, :m])

    def test_rejects_bad_prefix_lengths(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        with pytest.raises(ConfigurationError):
            permutation_prefixes(paa, pivots, 0)
        with pytest.raises(ConfigurationError):
            permutation_prefixes(paa, pivots, 17)

    def test_tie_heavy_input(self):
        """Many equidistant pivots: prefix must still match the full sort."""
        pivots = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [2.0, 0.0]])
        x = np.zeros((3, 2))
        prefix = permutation_prefixes(x, pivots, 2)
        for row in prefix:
            assert list(row) == [0, 1]

    def test_int32_dtype(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        assert permutation_prefixes(paa, pivots, 4).dtype == np.int32


@given(
    st.integers(2, 40),
    st.sampled_from([1, 2, _SORT_ROWS, _SORT_ROWS + 1, 4097]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_prefixes_match_per_row_sort_on_tie_heavy_grids(r, d, data):
    """Property: both row-count regimes — one stable sort for a few rows,
    the tiled top-m kernel plus tie repair beyond — equal a per-row
    (distance, pivot id) lexsort, on integer grids where squared distances
    tie exactly and pivots repeat."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = data.draw(st.integers(1, 4))
    span = data.draw(st.integers(1, 3))
    paa = rng.integers(-span, span + 1, size=(d, w)).astype(np.float64)
    pivots = rng.integers(-span, span + 1, size=(r, w)).astype(np.float64)
    dups = data.draw(st.integers(0, r - 1))
    pivots[rng.integers(0, r, dups)] = pivots[rng.integers(0, r, dups)]
    m = data.draw(st.integers(1, r))
    want = permutation_prefixes_reference(pivot_distance_matrix(paa, pivots), m)
    got = permutation_prefixes(paa, pivots, m)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, want)


@given(st.integers(2, 30), st.integers(2, 10), st.data())
@settings(max_examples=40, deadline=None)
def test_prefix_consistency_property(r, w, data):
    """Property: for any m, prefix == head of the full permutation."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    paa = rng.normal(size=(20, w))
    pivots = rng.normal(size=(r, w))
    m = data.draw(st.integers(1, r))
    full = full_permutations(paa, pivots)
    prefix = permutation_prefixes(paa, pivots, m)
    np.testing.assert_array_equal(prefix, full[:, :m])
