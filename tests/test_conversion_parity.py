"""Randomized parity suite for the vectorised conversion pipeline.

The acceptance bar of the conversion refactor is *exact* equivalence with
the retained seed implementations, which deliberately keep independent
kernels (3-D broadcast OD, chunked shift/popcount WD, per-row tie loops)
so that agreement is adversarial evidence, not self-comparison:

* ``GroupAssigner.assign`` vs ``oracles.assign_reference`` — identical group
  indices, identical OD/WD tie counters, and identical RNG stream
  consumption, across seeded sweeps of (r, m, d, centroid count) and the
  fall-back-only / all-tied edge cases;
* ``compute_centroids`` (packed bitset scan) vs
  ``compute_centroids_reference`` (tuple-wise scan) — identical selected
  centroids in identical order.

What the conversion feeds — where every record of a whole build ends up —
is checked by the placement oracle in ``tests/test_builder_parity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    _topm_ranked_reference,
    assign_reference,
    compute_centroids_reference,
    overlap_distance_matrix_reference,
    weight_distance_matrix_reference,
)
from repro.core import compute_centroids
from repro.core.assignment import GroupAssigner
from repro.pivots import (
    decay_weights,
    overlap_distance_matrix,
    pack_pivot_sets,
    weight_distance_matrix,
)
from repro.pivots.permutation import _topm_ranked


def random_assigner(rng: np.random.Generator, r: int, m: int, k: int,
                    seed: int) -> GroupAssigner:
    centroids = []
    seen = set()
    while len(centroids) < k:
        c = tuple(sorted(int(p) for p in rng.choice(r, size=m, replace=False)))
        if c not in seen:
            seen.add(c)
            centroids.append(c)
    return GroupAssigner(
        centroids, r, m, weights=decay_weights(m),
        rng=np.random.default_rng(seed),
    )


def random_signatures(rng: np.random.Generator, d: int, r: int, m: int) -> np.ndarray:
    return np.array([rng.choice(r, size=m, replace=False) for _ in range(d)])


class TestAssignParity:
    @pytest.mark.parametrize("seed,r,m,d,k", [
        (0, 16, 4, 400, 3),
        (1, 32, 6, 600, 8),
        (2, 64, 8, 800, 20),
        (3, 96, 6, 800, 40),     # two-word bitsets
        (4, 130, 10, 500, 25),   # three-word bitsets
        (5, 24, 3, 1000, 12),    # short prefixes -> heavy OD ties
    ])
    def test_randomized_sweep_bit_identical(self, seed, r, m, d, k):
        gen = np.random.default_rng(seed + 1000)
        a = random_assigner(gen, r, m, k, seed=seed)
        gen2 = np.random.default_rng(seed + 1000)
        b = random_assigner(gen2, r, m, k, seed=seed)
        ranked = random_signatures(gen, d, r, m)

        fast = a.assign(ranked)
        ref = assign_reference(b, ranked)
        np.testing.assert_array_equal(fast.group_indices, ref.group_indices)
        assert fast.od_ties_broken == ref.od_ties_broken
        assert fast.wd_ties_broken == ref.wd_ties_broken
        # Identical RNG stream consumption: the next draw must agree.
        assert a.rng.integers(0, 1 << 30) == b.rng.integers(0, 1 << 30)

    def test_fallback_only_batch(self):
        """Edge case: no object overlaps any centroid -> all G0, no draws."""
        a = random_assigner(np.random.default_rng(7), 40, 4, 5, seed=9)
        b = random_assigner(np.random.default_rng(7), 40, 4, 5, seed=9)
        used = sorted({p for c in a.centroids for p in c})
        free = [p for p in range(40) if p not in used][:4]
        assert len(free) == 4
        ranked = np.tile(np.array(free), (50, 1))
        fast, ref = a.assign(ranked), assign_reference(b, ranked)
        assert fast.group_indices.tolist() == [0] * 50
        np.testing.assert_array_equal(fast.group_indices, ref.group_indices)
        assert fast.od_ties_broken == ref.od_ties_broken == 0
        assert fast.wd_ties_broken == ref.wd_ties_broken == 0

    def test_all_tied_batch(self):
        """Edge case: every centroid ties on OD and WD -> every row draws."""
        # Disjoint centroids, each containing exactly one pivot of the
        # object's signature (0, 1, 2), and uniform weights so the single
        # matched pivot contributes the same WD everywhere: OD and WD tie
        # across all three centroids for every row.
        m, r = 3, 30
        centroids = [(0, 10, 20), (1, 11, 21), (2, 12, 22)]
        weights = np.full(m, 1.0 / m)
        a = GroupAssigner(centroids, r, m, weights=weights,
                          rng=np.random.default_rng(3))
        b = GroupAssigner(centroids, r, m, weights=weights,
                          rng=np.random.default_rng(3))
        ranked = np.tile(np.array([0, 1, 2]), (40, 1))
        fast, ref = a.assign(ranked), assign_reference(b, ranked)
        np.testing.assert_array_equal(fast.group_indices, ref.group_indices)
        assert fast.od_ties_broken == ref.od_ties_broken == 40
        assert fast.wd_ties_broken == ref.wd_ties_broken == 40
        assert set(fast.group_indices.tolist()) <= {1, 2, 3}
        assert a.rng.integers(0, 1 << 30) == b.rng.integers(0, 1 << 30)

    def test_blocking_invariance(self):
        """assign over any block split == one full assign, RNG stream too."""
        gen = np.random.default_rng(11)
        ranked = random_signatures(gen, 700, 48, 6)
        whole = random_assigner(np.random.default_rng(11), 48, 6, 15, seed=4)
        full = whole.assign(ranked)
        for splits in (2, 3, 7):
            blocked = random_assigner(np.random.default_rng(11), 48, 6, 15, seed=4)
            parts = [
                blocked.assign(part).group_indices
                for part in np.array_split(ranked, splits)
            ]
            np.testing.assert_array_equal(
                np.concatenate(parts), full.group_indices
            )
        # Stream position after blocked processing equals the full run's.
        blocked = random_assigner(np.random.default_rng(11), 48, 6, 15, seed=4)
        for part in np.array_split(ranked, 5):
            blocked.assign(part)
        assert whole.rng.integers(0, 1 << 30) == blocked.rng.integers(0, 1 << 30)


class TestKernelParity:
    """The optimised kernels vs the retained seed kernels, bit for bit."""

    @pytest.mark.parametrize("seed,r,m,d,k", [
        (0, 17, 5, 300, 7),
        (1, 64, 8, 500, 31),
        (2, 96, 6, 400, 50),
        (3, 200, 10, 200, 64),
    ])
    def test_od_and_wd_kernels(self, seed, r, m, d, k):
        gen = np.random.default_rng(seed)
        objs = random_signatures(gen, d, r, m)
        cents = random_signatures(gen, k, r, m)
        packed_objs = pack_pivot_sets(np.sort(objs, axis=1), r)
        packed_cents = pack_pivot_sets(np.sort(cents, axis=1), r)
        od_new = overlap_distance_matrix(packed_objs, packed_cents, m)
        od_ref = overlap_distance_matrix_reference(packed_objs, packed_cents, m)
        np.testing.assert_array_equal(od_new, od_ref)

        w = decay_weights(m)
        wd_new = weight_distance_matrix(objs, packed_cents, r, w)
        wd_ref = weight_distance_matrix_reference(objs, packed_cents, r, w)
        # Bit-identical, not merely close: identical accumulation order.
        assert wd_new.tobytes() == wd_ref.tobytes()

    @pytest.mark.parametrize("seed,d,r,m", [
        (0, 300, 17, 5),
        (1, 5000, 96, 6),     # several row tiles
        (2, 700, 40, 39),     # m = r - 1
    ])
    def test_topm_ranked(self, seed, d, r, m):
        gen = np.random.default_rng(seed)
        # Rounded distances: boundary ties (the ambiguity mask) do occur.
        d2 = np.round(gen.uniform(0, 4, size=(d, r)), 1)
        ranked, ambiguous = _topm_ranked(d2, m)
        ref_ranked, ref_ambiguous = _topm_ranked_reference(d2, m)
        np.testing.assert_array_equal(ranked, ref_ranked)
        np.testing.assert_array_equal(ambiguous, ref_ambiguous)
        assert ambiguous.any() and not ambiguous.all()


class TestCentroidParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_selection_identical(self, seed):
        gen = np.random.default_rng(seed)
        r = int(gen.integers(16, 100))
        m = int(gen.integers(2, min(10, r)))
        n = int(gen.integers(5, 300))
        sigs = list({
            tuple(sorted(int(p) for p in gen.choice(r, size=m, replace=False)))
            for _ in range(n)
        })
        freqs = gen.integers(1, 200, size=len(sigs)).tolist()
        eps = int(gen.integers(0, m + 1))
        cap = int(gen.integers(1, 5000))
        frac = float(gen.uniform(0.01, 1.0))
        maxc = None if gen.integers(0, 2) else int(gen.integers(1, 50))
        kwargs = dict(sample_fraction=frac, capacity=cap, epsilon=eps,
                      max_centroids=maxc)
        fast = compute_centroids(sigs, freqs, n_pivots=r, **kwargs)
        ref = compute_centroids_reference(sigs, freqs, **kwargs)
        assert fast == ref

    def test_default_bitset_width_matches_explicit(self):
        sigs = [(1, 5), (2, 9), (5, 9)]
        freqs = [5, 4, 3]
        kwargs = dict(sample_fraction=1.0, capacity=1, epsilon=1)
        assert (compute_centroids(sigs, freqs, **kwargs)
                == compute_centroids(sigs, freqs, n_pivots=32, **kwargs))
