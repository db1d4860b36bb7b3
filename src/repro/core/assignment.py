"""Group assignment rules (Algorithm 1), vectorised over whole batches.

Every data series is assigned to the centroid with the smallest Overlap
Distance; Weight Distance breaks OD ties, a seeded random draw breaks WD
ties, and objects overlapping no centroid at all go to the fall-back group
G0.  The returned group indices follow the paper's convention:

* index 0  — the fall-back group G0 (``<*,*,...>``),
* index i>0 — the group anchored at ``centroids[i - 1]``.

:meth:`GroupAssigner.assign` is the fully-array path: Overlap Distances
from one gather of the centroids' membership table (the table and kernel
query routing uses, :func:`repro.pivots.overlap_counts`), Weight
Distances gathered from the same table at the OD-tied pairs only, per-row
argmin over those WDs, vectorised
multiplicity counts, and **one** batched RNG draw for the residual WD ties
of the whole batch.  It is **bit-identical** to the retained seed loop
(per-row ``flatnonzero`` + ``rng.choice``, kept in ``tests/oracles.py``)
— same group indices, same tie counters, and the
same RNG stream consumption: ``rng.choice(c)`` draws exactly
``rng.integers(0, len(c))``, and a broadcast ``rng.integers(0, counts)``
consumes the bit stream like the equivalent sequence of scalar draws, so
results do not depend on how a dataset is blocked into ``assign`` calls.

For the parallel build pipeline, ``assign`` additionally splits into a
**deterministic core** (:meth:`GroupAssigner.assign_deferred` — pure
array work, safe to run on any worker, RNG untouched) and a tiny
**serial tail** (:meth:`GroupAssigner.resolve_ties` — the one batched
draw for the block's residual WD ties).  Workers compute cores
concurrently; the caller resolves tails in block order, so the RNG
stream is consumed exactly as the serial path consumes it and results
are bit-identical for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pivots import (
    check_pivot_rows,
    decay_weights,
    membership_table,
    overlap_counts,
    total_weight,
    wd_tie_tolerance,
)

__all__ = ["GroupAssigner", "AssignmentResult", "PendingTies"]


@dataclass(frozen=True)
class AssignmentResult:
    """Batch assignment outcome plus tie statistics (used by tests/benches)."""

    group_indices: np.ndarray
    od_ties_broken: int
    wd_ties_broken: int


@dataclass(frozen=True)
class PendingTies:
    """Residual WD ties of one ``assign_deferred`` block, awaiting the draw.

    Everything here is a pure function of the block's data: which rows
    remain tied after the WD cascade, how many candidates each has, and
    the candidate centroid columns (ascending, concatenated row by row).
    Resolution (:meth:`GroupAssigner.resolve_ties`) is the only part of
    assignment that touches the RNG, so deferring it to the caller's
    thread — in block order — keeps parallel assignment bit-identical to
    serial.
    """

    rows: np.ndarray
    n_tied: np.ndarray
    cand_cols: np.ndarray
    cand_offsets: np.ndarray


class GroupAssigner:
    """Assigns rank-sensitive signatures to groups per Algorithm 1.

    Parameters
    ----------
    centroids:
        Rank-insensitive centroid signatures (without the fall-back).
    n_pivots:
        Total pivot count ``r`` (the membership table's height).
    prefix_length:
        Signature length ``m``.
    weights:
        Decay weights of Def. 9; defaults to exponential ``lambda = 1/2``.
    rng:
        Source of the random tie-breaks (line 14).  A fresh default
        generator is created when omitted.
    """

    def __init__(
        self,
        centroids: Sequence[tuple[int, ...]],
        n_pivots: int,
        prefix_length: int,
        weights: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not centroids:
            raise ConfigurationError("at least one centroid is required")
        for c in centroids:
            if len(c) != prefix_length:
                raise ConfigurationError(
                    f"centroid {c} length != prefix_length {prefix_length}"
                )
        self.centroids = [tuple(c) for c in centroids]
        self.n_pivots = n_pivots
        self.prefix_length = prefix_length
        self.weights = (
            decay_weights(prefix_length) if weights is None else np.asarray(weights)
        )
        if self.weights.shape != (prefix_length,):
            raise ConfigurationError("weights length must equal prefix_length")
        self.rng = rng or np.random.default_rng()
        # members[p, c] = 1 iff pivot p is in centroid c: the Overlap
        # Distances and the Weight Distances of a block gather it.
        self._members = membership_table(self.centroids, n_pivots)
        # WD ties are detected relative to the Total Weight: WD values are
        # differences from TW, so their float error scales with ulp(TW) and
        # a fixed absolute 1e-12 mis-classifies ties under large weights.
        self._total_weight = total_weight(self.weights)
        self._wd_tol = wd_tie_tolerance(self._total_weight)

    # -- shared head ---------------------------------------------------------------

    def _od_head(
        self, ranked: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Validation + the OD stage of the fully-array path.

        Returns ``(ranked, out, is_best, rows)`` where ``out`` already
        holds the fall-back zeros and the unique-smallest-OD winners
        (Algorithm 1 lines 3-7) and ``rows`` are the OD-tied row indices.
        OD = m - overlap, so the comparisons run on overlaps with flipped
        signs.
        """
        ranked = check_pivot_rows(ranked, self.prefix_length, self.n_pivots)
        overlap = overlap_counts(self._members, ranked)
        best = overlap.max(axis=1)
        out = np.zeros(ranked.shape[0], dtype=np.int64)

        # Lines 3-5: zero overlap with every centroid -> fall-back group 0.
        fallback = best == 0
        # Lines 6-7: unique smallest OD (= largest overlap).
        is_best = overlap == best[:, None]
        n_best = is_best.sum(axis=1)
        unique = (~fallback) & (n_best == 1)
        first_best = is_best.argmax(axis=1)
        out[unique] = first_best[unique] + 1

        tied = (~fallback) & (n_best > 1)
        rows = np.flatnonzero(tied)
        return ranked, out, is_best, rows

    def _weight_distances(self, ranked: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Weight Distance (Def. 11) of each row ``ranked[i]`` to centroid
        ``cols[i]``.

        Rank by rank, each row adds ``w[rank]`` times its membership bit:
        ``w * 1`` is ``w`` and ``w * 0`` is ``0.0`` exactly, and the
        additions run in the order of the scalar
        :func:`~repro.pivots.weight_distance`, so the bits are the same.
        """
        matched = np.zeros(cols.shape[0], dtype=np.float64)
        for rank, w in enumerate(self.weights.tolist()):
            matched += w * self._members[ranked[:, rank], cols]
        return self._total_weight - matched

    # -- implementations -----------------------------------------------------------

    def assign(self, ranked: np.ndarray) -> AssignmentResult:
        """Assign a batch of rank-sensitive signatures to groups.

        Returns group indices with 0 = fall-back, i>0 = ``centroids[i-1]``.
        """
        out, od_ties, pending = self.assign_deferred(ranked)
        wd_ties = self.resolve_ties(out, pending)
        return AssignmentResult(out, od_ties, wd_ties)

    def assign_deferred(
        self, ranked: np.ndarray
    ) -> tuple[np.ndarray, int, PendingTies | None]:
        """The deterministic core of :meth:`assign` — RNG untouched.

        Returns ``(group_indices, od_ties, pending)``: every row whose
        assignment is decided without a random draw is final in
        ``group_indices``; rows with residual WD ties are described by
        ``pending`` (``None`` when there are none) and resolved later by
        :meth:`resolve_ties`.  Pure array work that shares no buffer, so
        parallel conversion workers run it concurrently; the caller then
        resolves the pending draws serially in block order, consuming the
        RNG stream exactly as one sequential ``assign`` sweep would.
        """
        ranked, out, is_best, rows = self._od_head(ranked)
        od_ties = int(rows.size)
        pending: PendingTies | None = None
        if od_ties:
            # Lines 8-14: OD ties -> Weight Distance, then random.  WD is
            # evaluated only at the actual (tied row, tied centroid) pairs
            # — row-major, so each tied row owns one contiguous pair
            # segment.
            sub = is_best[rows]
            prow, pcol = np.nonzero(sub)
            wd_pair = self._weight_distances(ranked[rows][prow], pcol)

            counts = sub.sum(axis=1)
            offsets = np.zeros(counts.shape[0], dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            best_wd = np.minimum.reduceat(wd_pair, offsets)
            flags = wd_pair <= best_wd[prow] + self._wd_tol
            n_tied = np.add.reduceat(flags.astype(np.int64), offsets)

            single = n_tied == 1
            # First flagged pair of each segment == the unique winner for
            # single-tie rows (pairs are in ascending centroid order).
            pair_ids = np.where(flags, np.arange(prow.shape[0]), prow.shape[0])
            first = np.minimum.reduceat(pair_ids, offsets)
            out[rows[single]] = pcol[first[single]] + 1

            multi = ~single
            if multi.any():
                # Flagged candidates of the multi rows, ascending centroid
                # order within each row's contiguous pair segment — the
                # (draw+1)-th flagged pair of old inline selection is
                # exactly cand_cols[cand_offsets + draw].
                chosen = flags & multi[prow]
                n_multi = n_tied[multi]
                cand_offsets = np.zeros(n_multi.shape[0], dtype=np.int64)
                np.cumsum(n_multi[:-1], out=cand_offsets[1:])
                pending = PendingTies(
                    rows=rows[multi],
                    n_tied=n_multi,
                    cand_cols=pcol[chosen],
                    cand_offsets=cand_offsets,
                )
        return out, od_ties, pending

    def resolve_ties(
        self,
        out: np.ndarray,
        pending: PendingTies | None,
        rng: np.random.Generator | None = None,
    ) -> int:
        """Resolve one block's residual WD ties in ``out``; returns their count.

        One batched ``integers(0, n_tied)`` draw — the broadcast call
        consumes the generator exactly like the reference's per-row
        ``rng.choice`` calls, and like the draw the pre-split ``assign``
        made inline, so stream positions are unchanged.
        """
        if pending is None:
            return 0
        draws = (rng or self.rng).integers(0, pending.n_tied)
        out[pending.rows] = pending.cand_cols[pending.cand_offsets + draws] + 1
        return int(pending.rows.size)
