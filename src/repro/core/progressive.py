"""Progressive kNN substrate: incremental answers and calibrated stopping.

CLIMBER's routed partition order visits the most promising partitions
first, which makes ProS-style *progressive* search natural: instead of
answering only after the full adaptive budget is spent,
:meth:`~repro.core.ClimberIndex.knn_progressive` streams one
:class:`ProgressiveUpdate` per partition read — the running top-k, how
much it just improved, and how long it has been stable — and an optional
early-stopping rule decides when the answer has stabilised enough to
serve.

This module holds the query-path-independent pieces:

* :class:`ProgressiveUpdate` — one yielded state of a progressive query.
* :class:`StopRule` — a resolved stopping criterion (a stable-streak
  threshold: stop once the top-k has survived that many consecutive
  partition reads unchanged, provided k answers are in hand).
* :class:`ProgressiveCalibration` — the offline-calibrated mapping from a
  *confidence* level to a streak threshold.  Calibration replays held-out
  queries with stopping disabled and measures, for every candidate streak
  ``s``, the fraction of queries whose stop-at-``s`` answer already equals
  the full-budget answer; ``threshold_for(c)`` picks the smallest streak
  achieving fraction >= ``c``.  The artifact is JSON, persisted next to
  the index (see ``evaluation/calibration.py`` and the README workflow),
  and stamped with the store it was measured on (:func:`store_stamp`).
* :func:`parse_early_stop` / :func:`resolve_stop_rule` — the shared knob
  grammar: ``"off"``, ``"confidence:0.95"`` (a bare ``"confidence"``
  means ``"confidence:0.9"``), ``"streak:3"`` (or a bare int), threaded
  through :class:`~repro.core.config.ClimberConfig`, ``knn_progressive``
  arguments and ``QueryService.submit``.

The stopping rule never fires before ``k`` neighbours are in hand, so an
early-stopped answer is always a *complete* (if possibly improvable)
answer set; a query against an index holding fewer than ``k`` records
simply runs to full coverage.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.index import QueryStats

__all__ = [
    "CALIBRATION_SCHEMA",
    "ProgressiveCalibration",
    "ProgressiveUpdate",
    "StopRule",
    "parse_early_stop",
    "resolve_stop_rule",
    "store_stamp",
]

CALIBRATION_SCHEMA = "repro.progressive-calibration/v2"

#: Streak ceiling of the built-in prior calibration (see
#: :meth:`ProgressiveCalibration.prior`).
_PRIOR_MAX_STREAK = 24


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


@dataclass(frozen=True)
class StopRule:
    """A resolved early-stopping criterion for one progressive query.

    Stop once ``stable_steps >= streak`` *and* ``k`` neighbours are in
    hand *and* at least ``min_partitions`` partitions were visited.
    """

    streak: int
    kind: str = "streak"
    confidence: float | None = None
    min_partitions: int = 1

    def __post_init__(self) -> None:
        if self.streak < 1:
            raise ConfigurationError("stop-rule streak must be >= 1")
        if self.min_partitions < 1:
            raise ConfigurationError("stop-rule min_partitions must be >= 1")

    def should_stop(self, have_k: bool, visited: int, stable_steps: int) -> bool:
        return (
            have_k
            and visited >= self.min_partitions
            and stable_steps >= self.streak
        )


@dataclass(frozen=True)
class ProgressiveCalibration:
    """Offline-calibrated stability curve: streak threshold per confidence.

    ``curve`` maps every candidate streak length ``s`` to the fraction of
    calibration queries whose stop-at-``s`` answer already equalled the
    full-budget answer (measured with stopping disabled on held-out
    queries — see :func:`repro.evaluation.calibrate_early_stop`).  The
    curve is non-decreasing in ``s`` by construction, so
    :meth:`threshold_for` is a simple scan.

    ``n_records`` and ``store_digest`` stamp the store the curve was
    measured on (:func:`store_stamp`); an unstamped curve, such as the
    :meth:`prior`, describes no store in particular.
    """

    curve: tuple[tuple[int, float], ...]
    k: int = 0
    variant: str = "prior"
    n_queries: int = 0
    source: str = "prior"
    created: str | None = None
    n_records: int | None = None
    store_digest: str | None = None
    schema: str = field(default=CALIBRATION_SCHEMA)

    def __post_init__(self) -> None:
        if not self.curve:
            raise ConfigurationError("calibration curve must be non-empty")
        streaks = [int(s) for s, _ in self.curve]
        if streaks != sorted(streaks) or len(set(streaks)) != len(streaks):
            raise ConfigurationError(
                "calibration curve streaks must be strictly increasing"
            )
        for _, frac in self.curve:
            if not 0.0 <= frac <= 1.0:
                raise ConfigurationError(
                    "calibration curve fractions must be in [0, 1]"
                )

    @property
    def max_streak(self) -> int:
        return int(self.curve[-1][0])

    def threshold_for(self, confidence: float) -> int:
        """Smallest streak whose calibrated agreement reaches ``confidence``.

        When no calibrated streak reaches it, the conservative answer is
        one past the largest calibrated streak — on most queries that
        disables early stopping rather than over-promise.
        """
        if not 0.0 < confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {confidence!r}"
            )
        for streak, frac in self.curve:
            if frac >= confidence:
                return int(streak)
        return self.max_streak + 1

    @classmethod
    def prior(cls) -> "ProgressiveCalibration":
        """The built-in conservative prior used before offline calibration.

        Models each further partition visit as improving the top-k with
        probability 1/2 (a pessimistic prior for a promise-ordered plan):
        after ``s`` stable visits the chance any improvement remains is
        ``0.5 ** s``, so ``threshold_for(c)`` resolves to the smallest
        ``s`` with ``1 - 0.5 ** s >= c`` (0.9 -> 4, 0.99 -> 7).  Offline
        calibration replaces this with measured behaviour.
        """
        curve = tuple(
            (s, 1.0 - 0.5 ** s) for s in range(1, _PRIOR_MAX_STREAK + 1)
        )
        return cls(curve=curve)

    # -- persistence -------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": self.schema,
                "curve": [[int(s), float(f)] for s, f in self.curve],
                "k": self.k,
                "variant": self.variant,
                "n_queries": self.n_queries,
                "source": self.source,
                "created": self.created,
                "n_records": self.n_records,
                "store_digest": self.store_digest,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, payload: str) -> "ProgressiveCalibration":
        data = json.loads(payload)
        if data.get("schema") != CALIBRATION_SCHEMA:
            raise ConfigurationError(
                f"unknown calibration schema {data.get('schema')!r}"
            )
        return cls(
            curve=tuple((int(s), float(f)) for s, f in data["curve"]),
            k=int(data.get("k", 0)),
            variant=str(data.get("variant", "prior")),
            n_queries=int(data.get("n_queries", 0)),
            source=str(data.get("source", "prior")),
            created=data.get("created"),
            n_records=(None if data.get("n_records") is None
                       else int(data["n_records"])),
            store_digest=(None if data.get("store_digest") is None
                          else str(data["store_digest"])),
        )

    def save(self, path: str | Path) -> Path:
        """Persist the calibration artifact next to the index it serves."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ProgressiveCalibration":
        return cls.from_json(Path(path).read_text())


def store_stamp(dfs) -> tuple[int, str]:
    """What a calibration is measured on: the store's record count and a
    SHA-256 over its partition names and their record counts.

    Read from header metadata the DFS already holds — no payload read, no
    counter charged.  An ``append`` adds delta partitions, so it changes
    the digest even where the record count could coincide.
    """
    counts = [[name, dfs.record_count(name)] for name in dfs.list_partitions()]
    digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
    return sum(count for _, count in counts), digest


def parse_early_stop(spec: object) -> tuple[str, float | int | None]:
    """Parse an early-stop knob into ``(kind, value)``.

    Grammar (shared by :class:`~repro.core.config.ClimberConfig`,
    ``knn_progressive`` arguments and ``QueryService.submit``):

    * ``"off"`` — never stop early -> ``("off", None)``
    * ``"confidence:0.95"`` — calibrated stop -> ``("confidence", 0.95)``
    * ``"confidence"`` — short for ``"confidence:0.9"``
      -> ``("confidence", 0.9)``
    * ``"streak:3"`` or a bare ``int`` — raw streak threshold
      -> ``("streak", 3)``
    """
    if isinstance(spec, bool):
        raise ConfigurationError(f"invalid early_stop spec {spec!r}")
    if isinstance(spec, int):
        if spec < 1:
            raise ConfigurationError("early_stop streak must be >= 1")
        return ("streak", spec)
    if not isinstance(spec, str):
        raise ConfigurationError(f"invalid early_stop spec {spec!r}")
    text = spec.strip().lower()
    if text == "off":
        return ("off", None)
    if text == "confidence":
        return ("confidence", 0.9)
    if text.startswith("confidence:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(
                f"invalid early_stop confidence in {spec!r}"
            ) from None
        if not 0.0 < value < 1.0 or not math.isfinite(value):
            raise ConfigurationError(
                f"early_stop confidence must be in (0, 1), got {value!r}"
            )
        return ("confidence", value)
    if text.startswith("streak:"):
        try:
            value = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(
                f"invalid early_stop streak in {spec!r}"
            ) from None
        if value < 1:
            raise ConfigurationError("early_stop streak must be >= 1")
        return ("streak", value)
    raise ConfigurationError(
        f"early_stop must be 'off', 'confidence[:c]', 'streak:n' or an "
        f"int, got {spec!r}"
    )


def resolve_stop_rule(
    spec: object,
    calibration: ProgressiveCalibration | None,
) -> StopRule | None:
    """Resolve a knob value into a :class:`StopRule` (or ``None`` = off).

    ``"confidence"`` mode consults ``calibration`` when one is attached
    and falls back to :meth:`ProgressiveCalibration.prior` otherwise, so
    the knob is usable before offline calibration has run (the prior is
    deliberately conservative).
    """
    kind, value = parse_early_stop(spec)
    if kind == "off":
        return None
    if kind == "streak":
        return StopRule(streak=int(value), kind="streak")
    confidence = float(value)
    cal = calibration if calibration is not None else ProgressiveCalibration.prior()
    return StopRule(
        streak=cal.threshold_for(confidence),
        kind="confidence",
        confidence=confidence,
    )
