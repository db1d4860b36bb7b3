"""Tests for P4 dual signatures, and for the bitset packer the seed
OD/WD kernels of ``tests/oracles.py`` keep as their own."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pack_pivot_sets, words_for
from repro.exceptions import ConfigurationError
from repro.pivots import DualSignature, rank_insensitive


class TestDualSignature:
    def test_paper_example_figure4(self):
        """Fig. 4: P4->(X) = <1,4,2>, P4->(Y) = <4,1,2>, same unranked set."""
        x = DualSignature((1, 4, 2))
        y = DualSignature((4, 1, 2))
        assert x.unranked == (1, 2, 4)
        assert y.unranked == (1, 2, 4)
        assert x.ranked != y.ranked

    def test_str(self):
        assert str(DualSignature((3, 1, 2))) == "<3,1,2>"

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            DualSignature((1, 1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            DualSignature(())

    def test_prefix_length(self):
        assert DualSignature((5, 2, 9, 0)).prefix_length == 4

    def test_from_row(self):
        sig = DualSignature.from_row(np.array([7, 3, 5], dtype=np.int32))
        assert sig.ranked == (7, 3, 5)

    def test_hashable(self):
        assert len({DualSignature((1, 2)), DualSignature((1, 2))}) == 1


class TestRankInsensitive:
    def test_sorts_rows(self):
        ranked = np.array([[3, 1, 2], [9, 0, 4]])
        out = rank_insensitive(ranked)
        np.testing.assert_array_equal(out, [[1, 2, 3], [0, 4, 9]])

    def test_does_not_mutate(self):
        ranked = np.array([[3, 1, 2]])
        rank_insensitive(ranked)
        np.testing.assert_array_equal(ranked, [[3, 1, 2]])

    def test_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            rank_insensitive(np.array([1, 2, 3]))


class TestWordsFor:
    def test_boundaries(self):
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2
        assert words_for(200) == 4

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            words_for(0)


class TestPackPivotSets:
    def test_single_bits(self):
        packed = pack_pivot_sets(np.array([[0], [63], [64]]), 128)
        assert packed.shape == (3, 2)
        assert packed[0, 0] == 1
        assert packed[1, 0] == np.uint64(1) << np.uint64(63)
        assert packed[2, 1] == 1

    def test_popcount_equals_prefix_length(self, rng):
        m, r = 10, 200
        sigs = np.array([rng.choice(r, size=m, replace=False) for _ in range(50)])
        packed = pack_pivot_sets(sigs, r)
        counts = np.bitwise_count(packed).sum(axis=1)
        assert np.all(counts == m)

    def test_order_irrelevant(self):
        a = pack_pivot_sets(np.array([[1, 5, 9]]), 16)
        b = pack_pivot_sets(np.array([[9, 1, 5]]), 16)
        np.testing.assert_array_equal(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            pack_pivot_sets(np.array([[0, 8]]), 8)
        with pytest.raises(ConfigurationError):
            pack_pivot_sets(np.array([[-1]]), 8)

    def test_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            pack_pivot_sets(np.array([1, 2]), 8)


@given(
    st.integers(2, 120),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_pack_roundtrip_property(r, data):
    """Property: unpacking a packed signature recovers the id set."""
    m = data.draw(st.integers(1, min(r, 12)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sig = rng.choice(r, size=m, replace=False).reshape(1, -1)
    packed = pack_pivot_sets(sig, r)[0]
    recovered = [
        w * 64 + b for w, word in enumerate(packed) for b in range(64)
        if (int(word) >> b) & 1
    ]
    assert sorted(recovered) == sorted(sig[0].tolist())
