"""Parallel execution layer: one worker is serial, more are a thread pool.

Everything hot in this repository is vectorised numpy (PRs 1-4), and the
numpy kernels that dominate the build — ``cdist``, the membership-table
gathers, the payload gathers — release the GIL, so a *thread* pool is the
way to use more cores: no pickling, one address space in which every worker
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

A task that raises, raises: ``map`` re-raises the first failure in item
order on the caller's thread, as the serial executor does, and the pool
cancels the tasks not yet started.  No executor re-runs a task; storage
faults are retried below it, by the DFS
:class:`~repro.resilience.RetryPolicy` (DESIGN.md D16).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

from repro.exceptions import ConfigurationError

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "make_executor",
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
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


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
