"""Parallel execution layer: one worker is serial, more are a thread pool.

Everything hot in this repository is vectorised numpy (PRs 1-4), and the
numpy kernels that dominate the build — ``cdist``, the popcount sweeps,
the payload gathers — release the GIL, so a *thread* pool is the way to
use more cores: no pickling, one address space in which every worker
reads the same trie tables and mapped partitions — the shape the
ParIS+/MESSI line of data-series indexing work uses.

Determinism contract
--------------------
Executors preserve *submission order* in their results (``map`` returns
``results[i] == fn(items[i])``), and every parallel call site in this
repository is written so that worker scheduling cannot leak into results:

* tasks are pure functions of their item (per-block conversion,
  per-partition payload encodes, per-shard query batches);
* anything stateful — the RNG stream behind Algorithm 1's tie-breaks, DFS
  write registration, simulated cost accounting — happens on the caller's
  thread, in item order, *after* the parallel map returns (see
  :meth:`repro.core.assignment.GroupAssigner.assign_deferred`).

That is what makes ``n_workers=8`` bit-identical to ``n_workers=1``:
same partition bytes, same counters, same kNN answers, regardless of how
the OS schedules workers.  ``tests/test_parallel_parity.py`` enforces it.

Task-level fault tolerance (PR 8): a pooled task that raises is
resubmitted once (the ``parallel.task_retries`` counter records it); a
second failure falls back to a serial re-run on the caller's thread via
:func:`record_parallel_fallback`, so only *persistent* failures propagate
— and they re-raise on the caller's thread with no hangs and no
partially-registered state (the failure-propagation tests pin this
down).  The retry is safe because every task is a pure function of its
item (see above): re-running it cannot double-apply state, and a
recovered result is bit-identical to a first-try success.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.exceptions import ConfigurationError
from repro.obs import global_registry

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "make_executor",
    "record_parallel_fallback",
    "split_ranges",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

class Executor:
    """Minimal ordered-map executor interface.

    ``map`` applies ``fn`` to every item and returns the results *in item
    order*; a raised worker exception propagates to the caller.  ``close``
    releases pool resources (idempotent).  Executors are context managers.
    Workers share the caller's address space: tasks may write disjoint
    slices of caller-owned arrays and return structure-shared objects.
    """

    n_workers: int = 1

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-caller execution; the ``n_workers=1`` reference every parallel
    path must be bit-identical to."""

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        return [fn(item) for item in items]


def _map_with_task_retry(pool, fn: Callable[[_T], _R],
                         items: Iterable[_T]) -> list[_R]:
    """Ordered pooled map with retry-once-then-serial-rerun per task.

    Each item is submitted as its own future so a single flaky task —
    a transient injected fault, a worker killed mid-run — costs one
    resubmission (``parallel.task_retries``), not the whole map.  A task
    that fails twice on the pool is re-run serially on the caller's
    thread (recorded via :func:`record_parallel_fallback`); if even that
    raises, the exception propagates and the remaining futures are
    cancelled.  Tasks are pure functions of their items, so a recovered
    result is bit-identical to a first-try success and results keep
    submission order.
    """
    items = list(items)
    futures = [pool.submit(fn, item) for item in items]
    results: list[_R] = []
    try:
        for i, future in enumerate(futures):
            try:
                results.append(future.result())
                continue
            except Exception:
                global_registry().counter("parallel.task_retries").inc()
            try:
                results.append(pool.submit(fn, items[i]).result())
                continue
            except Exception:
                record_parallel_fallback(
                    f"pooled task {i} failed twice; re-running serially "
                    "on the caller's thread"
                )
            results.append(fn(items[i]))
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return results


class ThreadExecutor(Executor):
    """Thread-pool executor: GIL-releasing numpy kernels scale across
    cores with zero serialisation cost."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 2:
            raise ConfigurationError("ThreadExecutor needs n_workers >= 2")
        self.n_workers = int(n_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="climber"
        )

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        return _map_with_task_retry(self._pool, fn, items)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


def record_parallel_fallback(reason: str) -> None:
    """Make a parallelism downgrade visible instead of silent.

    Bumps the process-lifetime ``parallel.fallbacks`` counter (always on —
    it surfaces in ``index.stats()`` and every BENCH artifact's
    ``process_metrics``) and warns, so a run that quietly degraded from
    the requested executor can be diagnosed after the fact.  The fallback
    itself stays correct-by-construction (bit-identical results); only
    its *visibility* changes.
    """
    global_registry().counter("parallel.fallbacks").inc()
    warnings.warn(
        f"parallel execution degraded: {reason}", RuntimeWarning, stacklevel=3
    )


def make_executor(n_workers: int) -> Executor:
    """The executor for ``n_workers`` workers: one worker is the
    :class:`SerialExecutor`, more are a :class:`ThreadExecutor`, so a
    single code path serves both modes."""
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    if n_workers == 1:
        return SerialExecutor()
    return ThreadExecutor(n_workers)


def split_ranges(n: int, chunk: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` ranges covering ``0..n`` in ``chunk`` steps.

    The canonical work decomposition of the parallel call sites: blocking
    is *fixed by the chunk size*, never by the worker count, so the task
    list — and therefore every deterministic per-task result — is
    identical for any ``n_workers``.
    """
    if chunk < 1:
        raise ConfigurationError("chunk must be >= 1")
    return [(start, min(n, start + chunk)) for start in range(0, n, chunk)]
