"""Similarity metrics over P4 signatures.

CLIMBER's new metrics (Section IV-C):

* **Overlap Distance** (Def. 7) between rank-insensitive signatures —
  prefix length minus intersection cardinality; the primary metric for
  group assignment and group search.
* **Pivot weights / Total Weight / Weight Distance** (Defs. 9-11) — a
  secondary, rank-aware metric used only to break Overlap-Distance ties:
  pivots earlier in a rank-sensitive signature get larger decay weights,
  and the Weight Distance discounts a centroid by the weights of the
  object's pivots it contains.

Also provided: Spearman footrule and Kendall tau over full permutations,
the classic rank-sensitive metrics of the pivot-permutation literature [37]
that the paper argues *cannot* compare signatures of different
granularities — kept for tests and the related-work comparisons.
"""

from __future__ import annotations

from typing import Iterable, Literal

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pivots.signatures import pack_pivot_sets, words_for

__all__ = [
    "overlap_distance",
    "overlap_distance_matrix",
    "decay_weights",
    "total_weight",
    "centroid_membership",
    "weight_distance",
    "weight_distance_matrix",
    "wd_tie_tolerance",
    "spearman_footrule",
    "kendall_tau",
    "DecayKind",
]

DecayKind = Literal["exponential", "linear"]


# ---------------------------------------------------------------------------
# Overlap Distance (Def. 7)
# ---------------------------------------------------------------------------

def overlap_distance(sig_x: Iterable[int], sig_y: Iterable[int]) -> int:
    """Overlap Distance between two rank-insensitive signatures (Def. 7).

    ``OD(X, Y) = m - |P4(X) ∩ P4(Y)|`` where ``m`` is the prefix length.
    Lies in ``[0, m]``; 0 means identical pivot sets.

    >>> overlap_distance((1, 3, 6, 8), (2, 3, 4, 6))
    2
    """
    xs = set(int(p) for p in sig_x)
    ys = set(int(p) for p in sig_y)
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"signatures must share one prefix length, got {len(xs)} and {len(ys)}"
        )
    return len(xs) - len(xs & ys)


def overlap_distance_matrix(
    packed_objects: np.ndarray, packed_centroids: np.ndarray, prefix_length: int
) -> np.ndarray:
    """Batch Overlap Distances between packed pivot sets.

    Parameters
    ----------
    packed_objects, packed_centroids:
        ``(d, words)`` and ``(k, words)`` uint64 bitsets from
        :func:`repro.pivots.signatures.pack_pivot_sets`.
    prefix_length:
        The common signature length ``m``.

    Returns
    -------
    numpy.ndarray
        ``(d, k)`` uint16 matrix of Overlap Distances.
    """
    a = np.asarray(packed_objects, dtype=np.uint64)
    b = np.asarray(packed_centroids, dtype=np.uint64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ConfigurationError("packed signature word counts differ")
    # One 2-D AND + popcount per bitset word, accumulated in uint16 —
    # never materialising the (d, k, words) 3-D broadcast, whose uint64
    # temporaries dominated the batch cost as soon as r exceeded 64 — and
    # swept in row tiles sized so the uint64 AND temporary stays
    # L2-resident instead of re-streaming a full (d, k) buffer from DRAM
    # on every word pass.  Exact integer arithmetic: tiling cannot change
    # a bit (the kernel-parity suite compares against the untiled seed
    # kernel in tests/oracles.py).
    d, k = a.shape[0], b.shape[0]
    inter = np.empty((d, k), dtype=np.uint16)
    tile = max(32, (1 << 18) // max(1, k * 8))
    for start in range(0, d, tile):
        end = min(d, start + tile)
        rows = inter[start:end]
        np.bitwise_count(
            a[start:end, 0][:, None] & b[:, 0][None, :], out=rows
        )
        for word in range(1, a.shape[1]):
            rows += np.bitwise_count(
                a[start:end, word][:, None] & b[:, word][None, :]
            )
    return (np.uint16(prefix_length) - inter).astype(np.uint16)


# ---------------------------------------------------------------------------
# Pivot weights (Defs. 9-11)
# ---------------------------------------------------------------------------

def decay_weights(
    prefix_length: int,
    kind: DecayKind = "exponential",
    decay_rate: float | None = None,
) -> np.ndarray:
    """Per-rank pivot weights (Def. 9).

    The i-th entry (0-based) is the weight of the (i+1)-th nearest pivot.
    Exponential decay: ``lambda**i`` with default ``lambda = 1/2`` (the
    paper's worked Example 1).  Linear decay: ``lambda * (m - i)`` with
    ``lambda = 1/m``, i.e. ``[1, (m-1)/m, ..., 1/m]``.

    Weights are strictly decreasing, as Def. 9 requires.
    """
    m = int(prefix_length)
    if m < 1:
        raise ConfigurationError("prefix_length must be >= 1")
    ranks = np.arange(m, dtype=np.float64)
    if kind == "exponential":
        lam = 0.5 if decay_rate is None else float(decay_rate)
        if not 0.0 < lam < 1.0:
            raise ConfigurationError("exponential decay_rate must be in (0, 1)")
        return lam**ranks
    if kind == "linear":
        lam = (1.0 / m) if decay_rate is None else float(decay_rate)
        if lam <= 0.0:
            raise ConfigurationError("linear decay_rate must be positive")
        return lam * (m - ranks)
    raise ConfigurationError(f"unknown decay kind {kind!r}")


def total_weight(weights: np.ndarray) -> float:
    """Total Weight of a signature (Def. 10) — constant for fixed m/decay."""
    return float(np.sum(weights))


def weight_distance(
    ranked_sig: Iterable[int], centroid_set: Iterable[int], weights: np.ndarray
) -> float:
    """Weight Distance (Def. 11) between a rank-sensitive signature and a
    rank-insensitive centroid signature.

    ``WD = TW - sum of weights of the object's pivots present in the
    centroid``: the more (and earlier-ranked) pivots the centroid shares
    with the object, the smaller the distance.
    """
    ranked = [int(p) for p in ranked_sig]
    if len(ranked) != len(weights):
        raise ConfigurationError("weights length must equal signature length")
    members = set(int(p) for p in centroid_set)
    matched = sum(w for p, w in zip(ranked, weights) if p in members)
    return total_weight(weights) - matched


def weight_distance_matrix(
    ranked: np.ndarray,
    centroid_sets: np.ndarray,
    n_pivots: int,
    weights: np.ndarray,
) -> np.ndarray:
    """Batch Weight Distances.

    Parameters
    ----------
    ranked:
        ``(d, m)`` rank-sensitive signatures.
    centroid_sets:
        ``(k, m)`` centroid pivot sets *or* ``(k, words)`` pre-packed
        uint64 bitsets.
    n_pivots:
        Total pivot count (bitset width).
    weights:
        ``(m,)`` decay weights.

    Returns
    -------
    numpy.ndarray
        ``(d, k)`` float64 Weight Distances.
    """
    arr = np.asarray(ranked, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != w.shape[0]:
        raise ConfigurationError("ranked shape does not match weights length")
    cs = np.asarray(centroid_sets)
    if cs.dtype != np.uint64:
        cs = pack_pivot_sets(cs, n_pivots)
    if cs.shape[1] != words_for(n_pivots):
        raise ConfigurationError("packed centroid width does not match n_pivots")
    tw = total_weight(w)
    d, m = arr.shape
    k = cs.shape[0]
    # Unpack the centroid bitsets once into a (n_pivots, k) float membership
    # table, then accumulate rank by rank: each step gathers one (d, k)
    # slab by the objects' rank-j pivot ids and adds ``w[j] * membership``.
    # Every added term is exactly ``w[j]`` or ``0.0`` and the per-element
    # addition order (ascending rank, zeros included) matches the scalar
    # :func:`weight_distance`, so results stay bit-identical — without the
    # (k, d, m) uint64 shift/popcount temporaries of the old kernel.
    membership = centroid_membership(cs, n_pivots)
    matched = np.zeros((d, k), dtype=np.float64)
    for rank in range(m):
        matched += w[rank] * membership[arr[:, rank]]
    return tw - matched


def centroid_membership(packed_centroids: np.ndarray, n_pivots: int) -> np.ndarray:
    """``(n_pivots, k)`` float 0/1 table: pivot p in centroid c.

    The gather table behind the batch and pair-wise WD kernels — both must
    read the *same* unpacking for the bit-parity guarantee to hold, hence
    one shared helper.
    """
    cs = np.asarray(packed_centroids, dtype=np.uint64)
    pivot_ids = np.arange(n_pivots, dtype=np.int64)
    words = cs[:, pivot_ids >> 6]  # (k, n_pivots)
    bits = (words >> (pivot_ids & 63).astype(np.uint64)) & np.uint64(1)
    return bits.astype(np.float64).T


def wd_tie_tolerance(total: float) -> float:
    """Weight-Distance tie tolerance, relative to the Total Weight.

    WD values are differences from the Total Weight, so their rounding
    error scales with ``ulp(TW)``, not with the (possibly tiny) WD value
    itself.  A fixed absolute epsilon mis-classifies mathematically-tied
    centroids as soon as the weights are large; an epsilon relative to the
    WD value collapses when the best WD is near zero.  Anchoring the
    tolerance to ``max(1, |TW|)`` handles both regimes and reduces to the
    historical ``1e-12`` for the paper's unit-scale decay weights.
    """
    return 1e-12 * max(1.0, abs(float(total)))


# ---------------------------------------------------------------------------
# Classic rank metrics (for reference / related-work comparison)
# ---------------------------------------------------------------------------

def _rank_map(perm: np.ndarray) -> dict[int, int]:
    return {int(p): i for i, p in enumerate(perm)}


def spearman_footrule(perm_a: Iterable[int], perm_b: Iterable[int]) -> int:
    """Spearman footrule distance between two permutations of one id set.

    Sum over ids of the absolute rank displacement.
    """
    a = np.asarray(list(perm_a), dtype=np.int64)
    b = np.asarray(list(perm_b), dtype=np.int64)
    if sorted(a.tolist()) != sorted(b.tolist()):
        raise ConfigurationError("footrule requires permutations of one id set")
    rank_b = _rank_map(b)
    return int(sum(abs(i - rank_b[int(p)]) for i, p in enumerate(a)))


def kendall_tau(perm_a: Iterable[int], perm_b: Iterable[int]) -> int:
    """Kendall tau distance: the number of discordant pairs."""
    a = list(int(p) for p in perm_a)
    b = list(int(p) for p in perm_b)
    if sorted(a) != sorted(b):
        raise ConfigurationError("kendall tau requires permutations of one id set")
    rank_b = _rank_map(np.asarray(b))
    seq = [rank_b[p] for p in a]
    discordant = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                discordant += 1
    return discordant
