"""Metric primitives: counters, gauges, fixed-bucket latency histograms.

The observability substrate every layer of the repository records into:
the :class:`~repro.storage.SimulatedDFS` logical I/O counters, the build
pipeline's per-stage spans, the query path's per-stage latencies, and the
benchmark suite's wall-clock timings all live in a
:class:`MetricsRegistry`.

Design constraints (and what the tests pin down):

* **Thread safety with exact totals.**  Every metric owns one
  ``threading.Lock``; updates are read-modify-write under it, so counter
  values and histogram ``count``/``sum`` are *exact* under any worker
  interleaving — the same contract the DFS logical counters already
  carry, and what lets parity suites compare metric values across worker
  counts.  (Histogram *quantiles* are bucket interpolations and therefore
  approximate; totals are not.)
* **Fixed buckets.**  Histograms use a fixed log-spaced bucket layout
  (sub-microsecond to minutes by default), so snapshots are constant-size
  no matter how many observations arrive — safe to embed in every BENCH
  artifact and to keep for a process lifetime.
* **One schema.**  :meth:`MetricsRegistry.snapshot` returns a plain
  JSON-able dict stamped ``schema: repro.obs/v1``; BENCH artifacts,
  ``ClimberIndex.stats()`` and ``explain_query`` all speak it.

Metrics are get-or-create by name (:meth:`MetricsRegistry.counter` etc.),
so call sites never race on registration and handles can be cached.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left

from repro.exceptions import ConfigurationError

__all__ = [
    "OBS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
]

OBS_SCHEMA = "repro.obs/v1"
"""Version stamp carried by every snapshot/export of this subsystem."""

#: Default histogram bucket upper bounds: 1 µs · 2^i, i = 0..27 — covering
#: sub-microsecond probes up to ~134 s walls.  28 buckets plus overflow.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = tuple(
    1e-6 * (2.0 ** i) for i in range(28)
)


class Counter:
    """A monotonically increasing sum (int or float increments)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket histogram with exact count/sum and p50/p90/p99 estimates.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]`` (the first bucket
    starts at 0, one overflow bucket catches everything past the last
    bound).  ``count``/``sum``/``min``/``max`` are exact; quantiles
    interpolate linearly inside the covering bucket and are clamped to the
    observed ``[min, max]``.
    """

    __slots__ = ("name", "_lock", "_bounds", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name: str,
                 bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                "histogram bounds must be a non-empty ascending sequence"
            )
        self.name = name
        self._lock = threading.Lock()
        self._bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def observe(self, value: int | float) -> None:
        idx = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1) from the bucket counts."""
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cum = 0
        for i, c in enumerate(self._counts):
            if c == 0:
                continue
            if cum + c >= rank:
                lo = self._bounds[i - 1] if i > 0 else 0.0
                hi = (self._bounds[i] if i < len(self._bounds)
                      else self._max)
                est = lo + (hi - lo) * ((rank - cum) / c)
                return float(min(max(est, self._min), self._max))
            cum += c
        return float(self._max)

    def snapshot(self) -> dict:
        """Exact totals plus p50/p90/p99 estimates, JSON-able."""
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0, "min": None, "max": None,
                        "mean": None, "p50": None, "p90": None, "p99": None}
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
                "p50": self._quantile_locked(0.50),
                "p90": self._quantile_locked(0.90),
                "p99": self._quantile_locked(0.99),
            }

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None


class MetricsRegistry:
    """Thread-safe, get-or-create registry of named metrics.

    One registry per scope: each :class:`~repro.storage.SimulatedDFS` owns
    one (its logical counters), each ``ClimberIndex`` owns one (build +
    query metrics), the benchmark suite owns one, and a process-lifetime
    global registry (:func:`repro.obs.global_registry`) hosts counters
    that belong to no index or DFS.
    """

    __slots__ = ("_lock", "_metrics")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS
                  ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """One JSON-able dict of every metric, stamped with the schema."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        counters, gauges, histograms = {}, {}, {}
        for name, metric in metrics:
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        return {
            "schema": OBS_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Zero every metric, keeping registrations (and cached handles)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()
