"""Span tracing and the per-query record on top of the metrics registry.

The gating contract — what "zero overhead when disabled" means here:

* Every :class:`Telemetry` carries a plain ``enabled`` bool attribute.
  Hot paths hold the telemetry object in a local and branch on
  ``tel.enabled`` — disabled mode costs one attribute lookup plus the
  branch, nothing else (no lock, no clock read, no allocation).
  ``trace()`` on a disabled telemetry returns the shared
  :data:`NULL_SPAN` singleton, so even un-gated ``with tel.trace(...)``
  blocks allocate nothing.
* Logical counters are *not* gated.  The DFS access-volume counters are
  correctness/diagnostic surfaces that parity tests and BENCH artifacts
  depend on; they always record.
  Only latency spans and histograms honour ``enabled``.  A query's
  record (its stage clocks and cache counts on ``QueryStats``) is always
  filled; ``enabled`` only decides whether :meth:`Telemetry.record_query`
  folds it into the registry.
* Telemetry objects hold locks and must not cross process boundaries;
  the ``core/parallel.py`` executors are in-process (serial or threads),
  so :meth:`Telemetry.wrap_tasks` applies to every task they run.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import OBS_SCHEMA, MetricsRegistry

__all__ = [
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "QUERY_STAGES",
    "Span",
    "Telemetry",
    "global_registry",
]


class _NullSpan:
    """Shared no-op context manager returned by disabled telemetry."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()

#: The stages of one query, in the order of ``QueryStats.stage_seconds``.
QUERY_STAGES = ("signature", "route", "select", "read", "refine")


class Span:
    """Times a ``with`` block into ``<name>_s`` on a registry histogram."""

    __slots__ = ("_histogram", "_t0", "seconds")

    def __init__(self, histogram) -> None:
        self._histogram = histogram
        self._t0 = 0.0
        self.seconds = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        self._histogram.observe(self.seconds)
        return False


class Telemetry:
    """A registry plus the enabled flag that gates all latency recording.

    ``Telemetry(enabled=False)`` (the default everywhere) still exposes a
    live registry — always-on counters record through it — but
    :meth:`trace` returns :data:`NULL_SPAN` and :meth:`record_query` /
    :meth:`wrap_tasks` become no-ops, so the query and build hot paths
    pay only the ``tel.enabled`` attribute check.

    ``sample_every=N`` (N > 1) turns enabled mode into 1-in-N sampling for
    the *per-query* surfaces: :meth:`record_query` folds every Nth query
    record it is handed (the first included) into the registry, and a
    sampled-out query pays only the ``query.count`` increment.  Build
    spans, ``trace`` and ``wrap_tasks`` are unaffected — they are not
    per-query costs.
    """

    __slots__ = ("enabled", "registry", "sample_every", "_tick",
                 "_tick_lock")

    def __init__(self, enabled: bool = False,
                 registry: MetricsRegistry | None = None,
                 sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sample_every = sample_every
        self._tick = 0
        self._tick_lock = threading.Lock()

    def trace(self, name: str):
        """Span over ``<name>_s`` when enabled, the shared no-op otherwise."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self.registry.histogram(name + "_s"))

    def wrap_tasks(self, name: str, fn):
        """Wrap an executor task fn with per-task and per-worker timing.

        Records one observation into ``<name>_s`` per task plus
        ``parallel.worker.<thread>.tasks`` / ``...busy_s`` counters keyed
        by the executing thread, surfacing per-worker load from the
        ``core/parallel.py`` executors.  Returns ``fn`` unchanged when
        disabled.  The wrapper closes over locks, so it is not picklable.
        """
        if not self.enabled:
            return fn
        histogram = self.registry.histogram(name + "_s")
        registry = self.registry

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                histogram.observe(dt)
                worker = threading.current_thread().name
                registry.counter(f"parallel.worker.{worker}.tasks").inc()
                registry.counter(f"parallel.worker.{worker}.busy_s").inc(dt)

        return timed

    def record_query(self, stats) -> None:
        """Fold one finished query's record (its ``QueryStats``) into the
        registry.

        Under ``sample_every=N`` a tick shared by every thread folds every
        Nth call; the others pay only the ``query.count`` increment.
        """
        if not self.enabled:
            return
        reg = self.registry
        reg.counter("query.count").inc()
        if self.sample_every > 1:
            with self._tick_lock:
                tick = self._tick
                self._tick = tick + 1
            if tick % self.sample_every:
                return
        reg.counter("query.partitions_probed").inc(len(stats.partitions_loaded))
        reg.counter("query.bytes_read").inc(stats.data_bytes)
        reg.counter("query.records_examined").inc(stats.records_examined)
        reg.counter("query.cache_hits").inc(stats.cache_hits)
        reg.counter("query.cache_misses").inc(stats.cache_misses)
        if stats.partitions_failed:
            reg.counter("query.degraded").inc()
            reg.counter("query.partitions_failed").inc(
                len(stats.partitions_failed)
            )
        reg.histogram("query.wall_s").observe(stats.wall_seconds)
        for name, seconds in zip(QUERY_STAGES, stats.stage_seconds):
            reg.histogram(f"query.stage.{name}_s").observe(seconds)

    def record_progressive(self, stats, visited: int, planned: int,
                           stopped_early: bool) -> None:
        """Fold one progressive query's coverage outcome into the registry.

        Complements :meth:`record_query` (which the progressive path also
        calls for the shared ``query.*`` surface) with the
        ``query.progressive.*`` counters: how much of the routed plan was
        visited, how much was deliberately forgone to an early stop, and
        how often the stopping rule fired at all.
        """
        if not self.enabled:
            return
        reg = self.registry
        reg.counter("query.progressive.count").inc()
        reg.counter("query.progressive.partitions_visited").inc(visited)
        forgone = len(getattr(stats, "partitions_forgone", ()))
        if forgone:
            reg.counter("query.progressive.partitions_forgone").inc(forgone)
        if stopped_early:
            reg.counter("query.progressive.early_stops").inc()
        if planned:
            reg.histogram("query.progressive.visited_fraction").observe(
                visited / planned
            )

    def snapshot(self) -> dict:
        return {
            "schema": OBS_SCHEMA,
            "enabled": self.enabled,
            "metrics": self.registry.snapshot(),
        }


#: Shared disabled telemetry for call sites that need *some* telemetry
#: object but were handed none.  Its registry is live (always-on counters
#: still record) but no spans/histograms ever fire through it.
NULL_TELEMETRY = Telemetry(enabled=False)

#: Process-lifetime registry for counters that belong to no index or DFS.
_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-lifetime registry (``ClimberIndex.stats()["process"]``)."""
    return _GLOBAL_REGISTRY
