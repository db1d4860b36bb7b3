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

Batch Overlap Distances — group assignment (Algorithm 1), centroid
selection (Algorithm 2) and query routing (Algorithm 3) — all run on one
representation: a ``(n_pivots, k)`` uint8 membership table of the
centroids (:func:`membership_table`), gathered by the signatures' pivot
ids and summed (:func:`overlap_counts`), over rows that
:func:`check_pivot_rows` has found to be ``m`` distinct ids in range.

Also provided: Spearman footrule and Kendall tau over full permutations,
the classic rank-sensitive metrics of the pivot-permutation literature [37]
that the paper argues *cannot* compare signatures of different
granularities — kept for tests and the related-work comparisons.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "overlap_distance",
    "check_pivot_rows",
    "membership_table",
    "overlap_counts",
    "decay_weights",
    "total_weight",
    "weight_distance",
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


def check_pivot_rows(
    rows: np.ndarray, prefix_length: int, n_pivots: int
) -> np.ndarray:
    """``rows`` as a ``(d, m)`` int64 matrix of valid signatures.

    Every row must hold ``m`` distinct pivot ids in ``[0, n_pivots)``: a
    repeated id would be counted twice by :func:`overlap_counts` and an
    id outside the range would wrap or miss in its gather.  One sort of
    the rows, then the first and last column bound the ids and
    neighbour equality finds a repeat.
    """
    arr = np.asarray(rows, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != prefix_length:
        raise ConfigurationError(
            f"expected (d, {prefix_length}) signatures, got shape {arr.shape}"
        )
    if arr.size:
        ordered = np.sort(arr, axis=1)
        bad = (
            (ordered[:, 0] < 0)
            | (ordered[:, -1] >= n_pivots)
            | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        )
        if bad.any():
            row = int(bad.argmax())
            raise ConfigurationError(
                f"a signature must be {prefix_length} distinct pivot ids in "
                f"[0, {n_pivots}), row {row} is {arr[row].tolist()}"
            )
    return arr


def membership_table(
    pivot_sets: Sequence[Sequence[int]], n_pivots: int
) -> np.ndarray:
    """``(n_pivots, k)`` uint8 table of ``k`` pivot sets: 1 iff pivot ``p``
    is in set ``c``.

    The one representation of a centroid's pivots for Overlap and Weight
    Distances (DESIGN.md D13).  An empty set — the fall-back centroid
    ``()`` — gets a zero column, so it overlaps nothing.
    """
    sets = list(pivot_sets)
    ids = np.fromiter(chain.from_iterable(sets), dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n_pivots):
        raise ConfigurationError(
            f"pivot id out of range [0, {n_pivots}) in a pivot set"
        )
    table = np.zeros((n_pivots, len(sets)), dtype=np.uint8)
    table[ids, np.repeat(np.arange(len(sets)), [len(s) for s in sets])] = 1
    return table


def overlap_counts(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(d, k)`` intersection sizes of signature rows with a table's sets.

    ``OD = m - overlap`` (Def. 7).  One gather of the table by the rows'
    pivot ids, rank-major so the sum adds whole ``(d, k)`` slabs, in the
    narrowest unsigned type that holds ``m``.  Exact only for rows of
    distinct ids (:func:`check_pivot_rows`).
    """
    dtype = np.min_scalar_type(rows.shape[1])
    return table[rows.T].sum(axis=0, dtype=dtype)

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
