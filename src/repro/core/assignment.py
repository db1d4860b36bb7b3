"""Group assignment rules (Algorithm 1), vectorised over whole batches.

Every data series is assigned to the centroid with the smallest Overlap
Distance; Weight Distance breaks OD ties, a seeded random draw breaks WD
ties, and objects overlapping no centroid at all go to the fall-back group
G0.  The returned group indices follow the paper's convention:

* index 0  — the fall-back group G0 (``<*,*,...>``),
* index i>0 — the group anchored at ``centroids[i - 1]``.

:meth:`GroupAssigner.assign` is the fully-array path: per-row argmin
over the WD matrix masked to the OD-tied centroids, vectorised
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

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pivots import (
    centroid_membership,
    decay_weights,
    pack_pivot_sets,
    total_weight,
    wd_tie_tolerance,
)

__all__ = ["GroupAssigner", "AssignmentResult", "PendingTies"]

_OD_TILE_BYTES = 1 << 18
"""Byte target for the OD sweep's uint64 AND workspace tile.  The sweep is
memory-bound: at large row blocks the full ``(d, k)`` uint64 buffer spills
every cache level and each popcount pass re-streams it from DRAM.  Tiling
rows so one tile's AND buffer stays ~256 KB keeps the word loop resident
in L2; the arithmetic is exact integer work, so tiling cannot change a
single bit of the result (the kernel-parity suite checks anyway)."""


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
        Total pivot count ``r`` (bitset width).
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
        self._packed_centroids = pack_pivot_sets(
            np.asarray(self.centroids, dtype=np.int64), n_pivots
        )
        # WD ties are detected relative to the Total Weight: WD values are
        # differences from TW, so their float error scales with ulp(TW) and
        # a fixed absolute 1e-12 mis-classifies ties under large weights.
        self._total_weight = total_weight(self.weights)
        self._wd_tol = wd_tie_tolerance(self._total_weight)
        # (n_pivots, k) float membership table: the pair-wise WD kernel of
        # the fully-array path gathers from it rank by rank, producing the
        # exact per-element terms of weight_distance_matrix (same shared
        # unpacking — the bit-parity guarantee depends on it).
        self._membership = centroid_membership(self._packed_centroids, n_pivots)
        # Reusable workspace of the OD stage, one buffer per role, held
        # per *thread*: the streamed conversion calls assign with one
        # fixed block size, so each worker allocates (and page-faults) its
        # matrices exactly once; concurrent assign calls from the parallel
        # conversion pipeline never share a buffer.  A batch of a
        # different size simply reallocates, so varying batch sizes (e.g.
        # repeated appends) never accumulate dead buffers.
        self._tls = threading.local()

    def _buffer(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        workspace = getattr(self._tls, "buffers", None)
        if workspace is None:
            workspace = self._tls.buffers = {}
        buf = workspace.get(name)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            workspace[name] = buf
        return buf

    # -- shared head ---------------------------------------------------------------

    def _od_head(
        self, ranked: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Validation + the OD-matrix stage of the fully-array path.

        Returns ``(ranked, out, is_best, rows)`` where ``out`` already
        holds the fall-back zeros and the unique-smallest-OD winners
        (Algorithm 1 lines 3-7) and ``rows`` are the OD-tied row indices.
        """
        ranked = np.asarray(ranked, dtype=np.int64)
        if ranked.ndim != 2 or ranked.shape[1] != self.prefix_length:
            raise ConfigurationError(
                f"expected (d, {self.prefix_length}) ranked signatures"
            )
        m = self.prefix_length
        d = ranked.shape[0]
        k = self._packed_centroids.shape[0]
        # The bitset encoding is order-free, so the ranked rows pack
        # directly — no rank_insensitive sort pass needed.
        packed = pack_pivot_sets(ranked, self.n_pivots)

        # Pivot-set intersection sizes, accumulated word by word into the
        # reusable workspace (same arithmetic as overlap_distance_matrix;
        # OD = m - intersection, so comparisons below run on intersections
        # directly with flipped signs).  The sweep runs in row *tiles*
        # sized so the uint64 AND buffer stays L2-resident: one full-block
        # buffer re-streams from DRAM on every popcount pass, which made
        # this stage memory-bound at large d.  Exact integer work — the
        # tiling is invisible in the results.
        cents = self._packed_centroids
        tile = max(32, _OD_TILE_BYTES // max(1, k * 8))
        tile = min(tile, d) if d else 0
        and_buf = self._buffer("and", (tile, k), np.uint64)
        # Intersections are bounded by m (each signature sets m bits), so
        # uint8 accumulation is safe for any realistic prefix length.
        inter = self._buffer(
            "inter", (d, k), np.uint8 if m < 256 else np.uint16
        )
        cnt_buf = (
            self._buffer("cnt", (tile, k), np.uint8)
            if cents.shape[1] > 1 else None
        )
        for start in range(0, d, tile or 1):
            end = min(d, start + tile)
            rows_and = and_buf[: end - start]
            rows_inter = inter[start:end]
            np.bitwise_and(
                packed[start:end, 0][:, None], cents[:, 0][None, :],
                out=rows_and,
            )
            np.bitwise_count(rows_and, out=rows_inter)
            for word in range(1, cents.shape[1]):
                rows_cnt = cnt_buf[: end - start]
                np.bitwise_and(
                    packed[start:end, word][:, None], cents[:, word][None, :],
                    out=rows_and,
                )
                np.bitwise_count(rows_and, out=rows_cnt)
                rows_inter += rows_cnt

        best_inter = np.max(inter, axis=1)
        out = np.zeros(d, dtype=np.int64)

        # Lines 3-5: zero overlap with every centroid -> fall-back group 0.
        fallback = best_inter == 0
        # Lines 6-7: unique smallest OD (= largest intersection).
        is_best = self._buffer("is_best", (d, k), bool)
        np.equal(inter, best_inter[:, None], out=is_best)
        n_best = is_best.sum(axis=1)
        unique = (~fallback) & (n_best == 1)
        first_best = is_best.argmax(axis=1)
        out[unique] = first_best[unique] + 1

        tied = (~fallback) & (n_best > 1)
        rows = np.flatnonzero(tied)
        return ranked, out, is_best, rows

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
        :meth:`resolve_ties`.  Pure array work over per-thread buffers, so
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
            # segment — with per-element terms identical to the full
            # weight_distance_matrix.
            sub = is_best[rows]
            prow, pcol = np.nonzero(sub)
            sig_pairs = ranked[rows][prow]  # (pairs, m) pivot ids
            matched = np.zeros(prow.shape[0], dtype=np.float64)
            membership = self._membership
            for rank in range(self.prefix_length):
                matched += self.weights[rank] * membership[
                    sig_pairs[:, rank], pcol
                ]
            wd_pair = self._total_weight - matched

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

    def assign_one(self, ranked_sig: Sequence[int]) -> int:
        """Assign a single signature (used for query routing)."""
        row = np.asarray(ranked_sig, dtype=np.int64).reshape(1, -1)
        return int(self.assign(row).group_indices[0])
