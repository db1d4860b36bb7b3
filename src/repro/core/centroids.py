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

The epsilon-separation scan runs on packed pivot bitsets: every candidate
is packed once (:func:`repro.pivots.pack_pivot_sets`) and tested against
the incrementally-extended selected set with one AND+popcount sweep,
replacing the O(candidates x selected) tuple-wise ``overlap_distance``
loop, which ``tests/oracles.py`` keeps as the parity oracle of
``tests/test_conversion_parity.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pivots import pack_pivot_sets

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
        Total pivot count ``r`` (the bitset width of the packed scan).
        Defaults to ``max pivot id + 1``; the builder passes its configured
        ``r`` so the packing matches the assigner's.

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
    packed = pack_pivot_sets(sig_arr, width)

    # The selected set as a growing packed matrix: row ``i`` of ``selected_bits``
    # is the i-th chosen centroid's bitset.
    selected: list[tuple[int, ...]] = [sigs[0]]  # line 3
    selected_bits = np.empty((len(sigs), packed.shape[1]), dtype=np.uint64)
    selected_bits[0] = packed[0]
    selected_freq = freqs[0]
    size_threshold = sample_fraction * capacity  # line 12: alpha * c

    for i in range(1, len(sigs)):
        if max_centroids is not None and len(selected) >= max_centroids:
            break  # lines 15-16
        # Lines 5-9: skip candidates too close to an existing centroid —
        # one AND + popcount sweep over the selected bitsets; the smallest
        # OD is m minus the largest intersection.
        inter = np.bitwise_count(
            selected_bits[: len(selected)] & packed[i]
        ).sum(axis=1, dtype=np.int64)
        if m - int(inter.max()) < epsilon:
            continue
        # Lines 10-12: estimate the candidate group's size assuming the
        # remaining (non-centroid) mass spreads uniformly over the groups.
        remaining = total_freq - selected_freq - freqs[i]
        size_est = freqs[i] + remaining / (len(selected) + 1)
        if size_est < size_threshold:
            break  # line 13: later candidates are rarer still
        selected_bits[len(selected)] = packed[i]
        selected.append(sigs[i])  # line 14
        selected_freq += freqs[i]
    return selected
