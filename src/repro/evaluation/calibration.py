"""Offline calibration of the progressive early-stopping rule.

The ``early_stop="confidence"`` knob needs a mapping from a confidence
level to a stable-streak threshold.  This harness measures it the honest
way: replay a held-out query workload through
:meth:`~repro.core.ClimberIndex.knn_progressive` with stopping *disabled*
and ask, for every candidate streak ``s``, how often the answer at the
moment a streak-``s`` rule *would have* fired already equals the
full-budget answer.  The resulting agreement curve is persisted as a JSON
:class:`~repro.core.progressive.ProgressiveCalibration` sidecar next to
the index partitions and attached via
:meth:`~repro.core.ClimberIndex.attach_calibration`.

Workflow::

    cal = calibrate_early_stop(index, held_out_queries, k=10,
                               path=index_dir / "calibration.json")
    index.attach_calibration(cal)          # or the saved path, later
    result = list(index.knn_progressive(q, 10, early_stop="confidence:0.95"))

Calibration queries must be *held out* from the serving workload — the
curve is an estimate of generalisation, not a memorised answer key.  The
curve is stamped with the store it was measured on; once an ``append``
changes that store, attaching it raises
:class:`~repro.exceptions.StaleCalibrationError`: calibrate again.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.progressive import ProgressiveCalibration, store_stamp
from repro.exceptions import ConfigurationError

__all__ = ["calibrate_early_stop"]


def calibrate_early_stop(
    index,
    queries,
    k: int,
    variant: str = "adaptive",
    adaptive_factor: int | None = None,
    on_partition_failure: str | None = None,
    max_streak: int = 8,
    path: str | Path | None = None,
    created: str | None = None,
) -> ProgressiveCalibration:
    """Measure the stop-at-streak agreement curve on held-out queries.

    For every query the full progressive trajectory is replayed once
    (stopping disabled), then every candidate streak ``s`` in
    ``1..max_streak`` is evaluated against it offline: find the first
    update where a streak-``s`` rule would fire (``k`` answers in hand,
    ``stable_steps >= s``) and check whether the answer *set* at that
    point equals the full-budget answer.  A rule that never fires agrees
    by definition (it degrades to full coverage).

    Parameters
    ----------
    index:
        A :class:`~repro.core.ClimberIndex` (any object exposing
        ``knn_progressive`` and the ``dfs`` it reads works).
    queries:
        Held-out query series — a :class:`~repro.series.SeriesDataset`
        or a 2-D array of rows.
    k, variant, adaptive_factor, on_partition_failure:
        The query operating point being calibrated; a curve measured at
        one operating point is only an approximation for others.
    max_streak:
        Largest streak measured.  Confidences unreachable within it
        resolve to ``max_streak + 1`` (early stopping effectively off).
    path:
        When given, the calibration is saved there as JSON
        (:meth:`~repro.core.progressive.ProgressiveCalibration.save`).
    created:
        Optional ISO timestamp recorded in the artifact.
    """
    arr = np.asarray(getattr(queries, "values", queries), dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.shape[0] == 0:
        raise ConfigurationError("calibration needs at least one query")
    if max_streak < 1:
        raise ConfigurationError("max_streak must be >= 1")

    n_queries = int(arr.shape[0])
    agreements = np.zeros(max_streak + 1, dtype=np.int64)
    for row in arr:
        updates = list(index.knn_progressive(
            row, k, variant, adaptive_factor,
            on_partition_failure=on_partition_failure,
            early_stop="off",
        ))
        final_set = frozenset(int(i) for i in updates[-1].ids)
        steps = [u for u in updates if not u.done]
        for streak in range(1, max_streak + 1):
            stop_ids = None
            for u in steps:
                if u.ids.shape[0] >= k and u.stable_steps >= streak:
                    stop_ids = u.ids
                    break
            if stop_ids is None:
                agreements[streak] += 1  # rule never fires: full coverage
                continue
            if frozenset(int(i) for i in stop_ids) == final_set:
                agreements[streak] += 1

    curve = tuple(
        (streak, float(agreements[streak]) / n_queries)
        for streak in range(1, max_streak + 1)
    )
    n_records, store_digest = store_stamp(index.dfs)
    calibration = ProgressiveCalibration(
        curve=curve,
        k=k,
        variant=variant,
        n_queries=n_queries,
        source="calibrated",
        created=created,
        n_records=n_records,
        store_digest=store_digest,
    )
    if path is not None:
        calibration.save(path)
    return calibration
