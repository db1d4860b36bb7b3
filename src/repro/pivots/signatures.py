"""P4 dual signatures (Def. 6).

Every data series gets two signatures derived from its Pivot Permutation
Prefix:

* **rank-sensitive** ``P4->``: the ``m`` nearest pivot ids in ascending
  distance order — fine-grained, drives partition (trie) placement;
* **rank-insensitive** ``P4-/->``: the same ids in global (ascending id)
  order — coarse-grained, drives group placement.

The rank-insensitive signature is a *set*; the Overlap Distance only needs
set intersections, which :mod:`repro.pivots.distances` counts by gathering
a centroid membership table with the signature's pivot ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["DualSignature", "rank_insensitive"]


def rank_insensitive(ranked: np.ndarray) -> np.ndarray:
    """Rank-insensitive signatures: each row sorted ascending by pivot id.

    ``LexicographicalOrder(P4->)`` in Def. 6 — pivot ids are integers here,
    so the lexicographical order over id strings becomes numeric order.
    """
    arr = np.asarray(ranked)
    if arr.ndim != 2:
        raise ConfigurationError("ranked signatures must be a (d, m) matrix")
    return np.sort(arr, axis=1)


@dataclass(frozen=True)
class DualSignature:
    """The P4 dual signature of a single data series (Def. 6).

    Attributes
    ----------
    ranked:
        Rank-sensitive ``P4->`` — pivot ids ordered by ascending distance.
    """

    ranked: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.ranked)) != len(self.ranked):
            raise ConfigurationError("signature contains duplicate pivot ids")
        if not self.ranked:
            raise ConfigurationError("signature must contain at least one pivot")

    @property
    def unranked(self) -> tuple[int, ...]:
        """Rank-insensitive ``P4-/->`` — the same ids in ascending order."""
        return tuple(sorted(self.ranked))

    @property
    def prefix_length(self) -> int:
        return len(self.ranked)

    @classmethod
    def from_row(cls, row: np.ndarray) -> "DualSignature":
        """Build from one row of a batch rank-sensitive signature matrix."""
        return cls(tuple(int(p) for p in np.asarray(row).ravel()))

    def __str__(self) -> str:
        arrow = ",".join(str(p) for p in self.ranked)
        return f"<{arrow}>"
