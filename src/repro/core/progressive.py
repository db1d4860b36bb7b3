"""Progressive kNN: one yielded state of a streaming query.

CLIMBER's routed partition order visits the most promising partitions
first, which makes ProS-style *progressive* search natural: instead of
answering only after the full adaptive budget is spent,
:meth:`~repro.core.ClimberIndex.knn_progressive` streams one
:class:`ProgressiveUpdate` per partition read — the running top-k, how
much it just improved, and how long it has been stable — and an optional
stop rule decides when the answer has stabilised enough to serve.

The stop rule is a streak (:func:`repro.core.config.parse_early_stop`):
stop once the top-k has survived that many consecutive partition visits
unchanged.  It never fires before ``k`` neighbours are in hand, so an
early-stopped answer is always a *complete* (if possibly improvable)
answer set; a query against an index holding fewer than ``k`` records
simply runs to full coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.index import QueryStats

__all__ = ["ProgressiveUpdate"]


@dataclass(frozen=True)
class ProgressiveUpdate:
    """One yielded state of a progressive kNN query.

    Every partition read (successful or skipped under degraded mode)
    produces one update carrying the running answer and its stability
    diagnostics; the final update additionally carries the full
    :class:`~repro.core.index.QueryStats` and sets :attr:`done`.  With
    early stopping disabled the final update is bit-identical — ids,
    distances, and logical DFS counters — to the equivalent
    :meth:`~repro.core.ClimberIndex.knn` call (the parity oracle).
    """

    ids: np.ndarray
    distances: np.ndarray
    k: int
    partitions_visited: int
    """Physical partitions visited so far (read, or skipped as failed)."""
    partitions_planned: int
    """Physical partitions the routed plan would visit at full coverage."""
    new_neighbors: int
    """Ids that entered the running top-k at this step."""
    kth_distance: float
    """Current k-th neighbour distance (``inf`` until k are in hand)."""
    improvement: float
    """Relative drop of the k-th distance at this step (0.0 = no change)."""
    stable_steps: int
    """Consecutive partition visits that left the top-k unchanged."""
    stability: float
    """``stable_steps / partitions_visited`` — a [0, 1) stability score."""
    done: bool
    """True only on the final update (full coverage or early stop)."""
    stopped_early: bool = False
    """True when the stopping rule fired before full coverage."""
    partitions_forgone: tuple[str, ...] = ()
    """Planned partitions never visited because the rule fired (in the
    routed order they would have been read)."""
    stats: "QueryStats | None" = None
    """Full query stats — populated on the final update only."""

    @property
    def visited_fraction(self) -> float:
        """Fraction of the routed plan actually visited (1.0 = complete)."""
        if self.partitions_planned == 0:
            return 1.0
        return self.partitions_visited / self.partitions_planned
