"""Deterministic fault injection and retry policies (PR 8).

The resilience substrate under the fault-tolerant storage/query path:

* :mod:`repro.resilience.faults` — :class:`FaultPlan` (a seeded,
  immutable schedule of transient read errors, permanent partition
  loss, payload bit-flips and latency stragglers) and
  :class:`FaultInjector` (a :class:`~repro.storage.engine.StorageBackend`
  wrapper that realises the plan on the read path);
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (max attempts,
  exponential backoff with seeded jitter, per-read deadline) consumed by
  the :class:`~repro.storage.SimulatedDFS` read loop.

Everything here is deterministic by construction: every fault decision
and every jitter value is a pure function of ``(seed, blob name,
attempt)`` through a stable hash — never of wall-clock time, thread
scheduling or Python's randomised ``hash()`` — so the same seed
reproduces the same fault schedule, the same degraded answer sets and
the same retry counters across runs, worker counts and processes.  With
no faults scheduled the injector is byte-transparent (the zero-fault
parity oracle in ``tests/test_chaos.py`` pins this down).
"""

from repro.resilience.faults import (
    FaultDecision,
    FaultInjector,
    FaultPlan,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
]
