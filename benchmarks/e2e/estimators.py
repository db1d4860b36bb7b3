"""Estimators shared by ``run.py`` and ``compare.py``.

The reference host is noisy in a way that averaging inside a run cannot
remove: the speed of plain user-space code moves between regimes up to
40 % apart that last from seconds to minutes (process CPU time tracks
wall time, so it is the host's speed, not descheduling).  Ten 20-second
runs of the ``lookup`` loop on one seed, reduced in different ways:

====================================  ======================
run's value for ``query_p50_ms``      spread over the runs
====================================  ======================
median of the per-pass medians        26 %
lower quartile of them                25 %
10th percentile of them               25 %
best pass of all that fitted (70-103) 14 %
**best pass of the first 64**         **12 %**
best of 16 groups of 4 passes         24 %
====================================  ======================

(spread = distance between the quartiles as a share of the median).  A
quantile lands wherever the run spent that share of its time; the best
pass lands in the fast regime if the run saw it at all, which eight of
the ten did.  So every timing is computed per pass of a few hundred
operations and a run reports its best pass: the smallest value for a
latency, the largest for a rate.  Longer passes do worse, because the
regimes are often shorter than a second.

The best is taken over a number of passes that ``--seconds`` and the
workload fix (``Workload.n_passes``), never over however many fitted:
a minimum falls as draws are added, and the faster of two trees must
not be handed more of them.

What the rule cannot see is a stall that spares one pass in the run: a
tail that is slow on two passes in three reads like one that never is.
A stall inside every pass of 250 operations shows.  The one place the
rule is not used is where passes differ by *good* luck, ``ingest``'s
writes: see ``workloads.Ingest``.

What is left is the width of the fast regime itself, which is why timing
bounds in ``BENCHMARK.json`` are 25 % and why a comparison needs sets of
runs (``compare.py``), not two runs.
"""

from __future__ import annotations

import statistics

import numpy as np

__all__ = ["best_pass", "percentile", "spread", "worse_by"]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def best_pass(per_pass, better: str) -> float:
    """A run's value for a metric measured once per pass."""
    return float(min(per_pass) if better == "lower" else max(per_pass))


def spread(values) -> float:
    """Distance between the quartiles of ``values`` as a share of their median.

    ``statistics.quantiles(values, n=4)`` is the definition the benchmark
    contract uses for its repeatability check, so the same call is made
    here.  Fewer than two values have no spread.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``.

    Positive means worse, in the direction ``better`` names
    (``"lower"`` or ``"higher"``).
    """
    if base == 0:
        return 0.0 if other == base else float("inf")
    change = (other - base) / abs(base)
    return change if better == "lower" else -change
