"""Tests for Algorithm 2 (data-driven centroid computation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compute_centroids
from repro.exceptions import ConfigurationError
from repro.pivots import overlap_distance


class TestComputeCentroids:
    def test_most_frequent_is_first_centroid(self):
        sigs = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        freqs = [5, 50, 10]
        out = compute_centroids(
            sigs, freqs, sample_fraction=1.0, capacity=1, epsilon=2
        )
        assert out[0] == (4, 5, 6)

    def test_epsilon_blocks_near_duplicates(self):
        """A candidate within epsilon of a chosen centroid is skipped."""
        sigs = [(1, 2, 3), (1, 2, 4), (7, 8, 9)]
        freqs = [100, 90, 80]
        out = compute_centroids(
            sigs, freqs, sample_fraction=1.0, capacity=1, epsilon=2
        )
        assert (1, 2, 3) in out
        assert (1, 2, 4) not in out  # OD = 1 < epsilon
        assert (7, 8, 9) in out

    def test_epsilon_zero_keeps_everything_large_enough(self):
        sigs = [(1, 2), (1, 3), (1, 4)]
        freqs = [10, 9, 8]
        out = compute_centroids(
            sigs, freqs, sample_fraction=1.0, capacity=1, epsilon=0
        )
        assert len(out) == 3

    def test_all_selected_centroids_respect_epsilon(self):
        rng = np.random.default_rng(3)
        sigs = [tuple(sorted(rng.choice(30, size=5, replace=False))) for _ in range(200)]
        freqs = rng.integers(1, 100, size=200).tolist()
        eps = 3
        out = compute_centroids(
            sigs, freqs, sample_fraction=0.5, capacity=2, epsilon=eps
        )
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert overlap_distance(out[i], out[j]) >= eps

    def test_capacity_threshold_stops_selection(self):
        """Once the size estimate falls below alpha*c, selection stops."""
        sigs = [(1, 2), (3, 4), (5, 6), (7, 8)]
        freqs = [1000, 2, 2, 2]
        out = compute_centroids(
            sigs, freqs, sample_fraction=0.1, capacity=10_000, epsilon=1
        )
        # First is always taken; the rest estimate far below 0.1 * 10000.
        assert out == [(1, 2)]

    def test_max_centroids_cap(self):
        sigs = [(i, i + 100) for i in range(50)]
        freqs = [100] * 50
        out = compute_centroids(
            sigs, freqs, sample_fraction=1.0, capacity=1, epsilon=1,
            max_centroids=5,
        )
        assert len(out) == 5

    def test_empty_input(self):
        assert compute_centroids([], [], sample_fraction=0.5, capacity=10,
                                 epsilon=1) == []

    def test_deterministic_given_tied_frequencies(self):
        sigs = [(5, 6), (1, 2), (3, 4)]
        freqs = [10, 10, 10]
        a = compute_centroids(sigs, freqs, sample_fraction=1.0, capacity=1, epsilon=1)
        b = compute_centroids(list(reversed(sigs)), list(reversed(freqs)),
                              sample_fraction=1.0, capacity=1, epsilon=1)
        assert a == b
        assert a[0] == (1, 2)  # lexicographic tie-break

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            compute_centroids([(1, 2)], [1, 2], sample_fraction=0.5,
                              capacity=10, epsilon=1)

    def test_mixed_prefix_lengths_refused(self):
        """Def. 7 compares signatures of one length: a mix is refused at
        entry, even where no two of them would ever be compared."""
        with pytest.raises(ConfigurationError, match="prefix length"):
            compute_centroids([(1, 2, 3), (4, 5)], [5, 1], sample_fraction=1.0,
                              capacity=1, epsilon=1, max_centroids=1)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            compute_centroids([(1, 2)], [1], sample_fraction=0.0,
                              capacity=10, epsilon=1)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            compute_centroids([(1, 2)], [1], sample_fraction=0.5,
                              capacity=0, epsilon=1)

    def test_skewed_data_yields_fewer_centroids_than_uniform(self):
        """Heavy skew concentrates mass in one group; uniform data spreads it."""
        rng = np.random.default_rng(9)
        uniform_sigs = [tuple(sorted(rng.choice(60, size=4, replace=False)))
                        for _ in range(300)]
        uniform = compute_centroids(
            uniform_sigs, [10] * 300, sample_fraction=1.0, capacity=30, epsilon=2
        )
        skew_sigs = uniform_sigs
        skew_freqs = [3000] + [1] * 299
        skewed = compute_centroids(
            skew_sigs, skew_freqs, sample_fraction=1.0, capacity=30, epsilon=2
        )
        assert len(skewed) <= len(uniform)
