"""Data-driven computation of group centroids (Algorithm 2).

Input: the aggregated list ``[(P4-/-> signature, frequency)]`` from
construction Step 2.  The algorithm walks the list in descending frequency
order and keeps a signature as a new centroid when it is (a) far enough
(Overlap Distance >= epsilon) from every centroid chosen so far and (b)
expected to anchor a group bigger than the storage capacity.  Because the
statistics come from an ``alpha`` sample, the capacity threshold is scaled
by ``alpha``.

Centroids are *virtual*: they carry only rank-insensitive signatures
(Section IV-C), which is why the Weight Distance of Def. 11 exists at all.

The epsilon-separation scan keeps the selected centroids as a membership
table, one column per centroid, grown as they are chosen: a candidate's
overlaps with all of them are one gather of that table
(:func:`repro.pivots.overlap_counts`), the kernel group assignment and
query routing run.  It replaces the O(candidates x selected) tuple-wise
``overlap_distance`` loop, which ``tests/oracles.py`` keeps as the parity
oracle of ``tests/test_conversion_parity.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pivots import check_pivot_rows, overlap_counts

__all__ = ["compute_centroids", "FALLBACK_CENTROID"]

FALLBACK_CENTROID: tuple[int, ...] = ()
"""The special ``<*,*,...>`` centroid of group G0 (Algorithm 2 line 17):
data series overlapping no real centroid fall back to it.  Represented as
an empty pivot set."""


def _descending_order(
    signatures: Sequence[tuple[int, ...]], frequencies: Sequence[int]
) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Line 2: sort descending by frequency; frequency ties broken
    lexicographically by signature so the selection is deterministic."""
    order = sorted(
        range(len(signatures)), key=lambda i: (-int(frequencies[i]), signatures[i])
    )
    sigs = [tuple(signatures[i]) for i in order]
    freqs = [int(frequencies[i]) for i in order]
    return sigs, freqs, sum(freqs)


def _validate(
    signatures: Sequence[tuple[int, ...]],
    frequencies: Sequence[int],
    sample_fraction: float,
    capacity: int,
) -> None:
    if len(signatures) != len(frequencies):
        raise ConfigurationError("signatures and frequencies length mismatch")
    if not 0.0 < sample_fraction <= 1.0:
        raise ConfigurationError("sample_fraction must be in (0, 1]")
    if capacity < 1:
        raise ConfigurationError("capacity must be >= 1")


def compute_centroids(
    signatures: Sequence[tuple[int, ...]],
    frequencies: Sequence[int],
    *,
    sample_fraction: float,
    capacity: int,
    epsilon: int,
    max_centroids: int | None = None,
    n_pivots: int | None = None,
) -> list[tuple[int, ...]]:
    """Algorithm 2: select group centroids from sampled signature statistics.

    Parameters
    ----------
    signatures:
        Distinct rank-insensitive signatures observed in the sample.
    frequencies:
        Occurrence count of each signature (same order).
    sample_fraction:
        ``alpha`` as a fraction in (0, 1].
    capacity:
        Storage capacity constraint ``c`` in records (full-data scale).
    epsilon:
        Minimum Overlap Distance between any two selected centroids.
    max_centroids:
        Optional stopping criterion.
    n_pivots:
        Total pivot count ``r`` (the membership table's height).  Defaults
        to ``max pivot id + 1``; the builder passes its configured ``r``.
        Every signature must be ``m`` distinct ids in ``[0, r)``.

    Returns
    -------
    list of tuple
        Selected centroid signatures, ordered by selection (most frequent
        first).  The fall-back centroid is *not* included; callers place it
        at group index 0 themselves.
    """
    _validate(signatures, frequencies, sample_fraction, capacity)
    if not signatures:
        return []
    lengths = {len(s) for s in signatures}
    if len(lengths) != 1:
        # Def. 7 compares signatures of one prefix length only.
        raise ConfigurationError(
            f"signatures must share one prefix length, got {sorted(lengths)}"
        )
    m = lengths.pop()

    sigs, freqs, total_freq = _descending_order(signatures, frequencies)
    sig_arr = np.asarray(sigs, dtype=np.int64)
    width = int(n_pivots) if n_pivots is not None else int(sig_arr.max()) + 1
    sig_arr = check_pivot_rows(sig_arr, m, width)

    # Column ``j`` of ``table`` is the j-th chosen centroid's membership;
    # the table doubles its columns when they run out.
    selected: list[tuple[int, ...]] = [sigs[0]]  # line 3
    table = np.zeros((width, 64), dtype=np.uint8)
    table[sig_arr[0], 0] = 1
    selected_freq = freqs[0]
    size_threshold = sample_fraction * capacity  # line 12: alpha * c

    for i in range(1, len(sigs)):
        if max_centroids is not None and len(selected) >= max_centroids:
            break  # lines 15-16
        # Lines 5-9: skip candidates too close to an existing centroid;
        # the smallest OD is m minus the largest overlap.
        overlap = overlap_counts(table[:, : len(selected)], sig_arr[i : i + 1])
        if m - int(overlap.max()) < epsilon:
            continue
        # Lines 10-12: estimate the candidate group's size assuming the
        # remaining (non-centroid) mass spreads uniformly over the groups.
        remaining = total_freq - selected_freq - freqs[i]
        size_est = freqs[i] + remaining / (len(selected) + 1)
        if size_est < size_threshold:
            break  # line 13: later candidates are rarer still
        if len(selected) == table.shape[1]:
            table = np.hstack([table, np.zeros_like(table)])
        table[sig_arr[i], len(selected)] = 1
        selected.append(sigs[i])  # line 14
        selected_freq += freqs[i]
    return selected
