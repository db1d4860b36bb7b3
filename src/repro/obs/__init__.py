"""Observability layer: metrics registry, span tracing, the query record.

The cross-cutting telemetry subsystem (PR 7).  Four pieces:

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry` of
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` (fixed log-spaced
  buckets, p50/p90/p99 snapshots), exported as one JSON-able dict
  stamped :data:`OBS_SCHEMA`.
* :mod:`repro.obs.trace` — ``with tel.trace("route"):`` span timing with
  a shared no-op singleton when disabled, :meth:`Telemetry.record_query`
  (which folds one query's record into the registry, 1 in
  ``sample_every``), and the process-lifetime :func:`global_registry`.
* The query record: every routed walk fills its own stage clocks
  (:data:`QUERY_STAGES`: signature, route, select, read, refine) and
  the cache hits and misses of its own reads on ``QueryStats``, with
  telemetry on or off.  ``record_query`` and ``explain_query`` read it;
  nothing is diffed from DFS-wide counters (DESIGN.md D15).
* The gating rule: recording into the registry is opt-in
  (``ClimberConfig(telemetry=True)`` / ``Telemetry(enabled=True)``) and
  costs one attribute lookup when off; *logical* counters (DFS access
  volume) are always on — parity suites and BENCH artifacts depend on
  them.

Entry points on the index: ``ClimberIndex.stats()``, ``reset_stats()``
and ``explain_query()``.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    OBS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TELEMETRY,
    QUERY_STAGES,
    Span,
    Telemetry,
    global_registry,
)

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "OBS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "QUERY_STAGES",
    "Span",
    "Telemetry",
    "global_registry",
]
