"""Asyncio query service: micro-batching, admission control, degraded stats.

The serving half of the ROADMAP's "millions of users" north star.  A
:class:`QueryService` fronts one :class:`~repro.core.ClimberIndex` with an
asyncio request path shaped like a production query tier:

* **work-conserving micro-batching** — incoming single-query requests
  ride :meth:`~repro.core.ClimberIndex.knn_batch` calls.  A batch goes the
  moment a worker thread is free; requests coalesce only while every
  worker is busy (until one frees up, :attr:`ServeConfig.max_batch` is
  reached or the oldest has waited :attr:`ServeConfig.max_delay_s`), so
  the batch pipeline's shared signature/routing work and the DFS read
  cache amortise across concurrent users under load and an idle service
  adds no queueing delay;
* **admission control** — a bounded queue caps in-flight work.  In
  ``"reject"`` mode an arrival past :attr:`ServeConfig.queue_limit` fails
  fast with :class:`~repro.exceptions.ServiceOverloadedError` (load
  shedding); in ``"block"`` mode it backpressures the caller instead;
* **degraded-coverage responses** — each :class:`QueryResponse` carries
  the query's :class:`~repro.core.index.QueryStats` plus serving-side
  telemetry (queue delay, end-to-end latency, the batch it rode in), so a
  client can see *both* that its answer was computed without some
  partitions (``coverage``/``degraded``, PR 8) and what the service added
  on top;
* **service metrics** — ``serve.*`` counters/histograms on the index's
  registry (requests, rejections, batch sizes, queue depth, end-to-end
  latency), exported through the same ``repro.obs/v1`` snapshots as every
  other subsystem.

Correctness contract: micro-batching is *transparent*.  ``knn_batch`` is
bit-identical to per-row ``knn`` calls (the PR-6 parity suite), and batch
composition cannot leak between requests, so a response is byte-identical
to what the caller would have computed alone — the serving parity test
and ``benchmarks/bench_serving.py``'s oracle both pin this down.  The
service relies on the narrowed DFS lock (same PR): with reads of distinct
partitions overlapping, concurrent batches actually run concurrently
instead of convoying on storage sleeps.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.config import check_fields, parse_early_stop
from repro.core.index import ClimberIndex, QueryStats
from repro.exceptions import (
    ConfigurationError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs import MetricsRegistry

__all__ = ["ServeConfig", "QueryResponse", "QueryService"]

#: Histogram bounds for batch-size observations (requests per dispatch).
_BATCH_SIZE_BOUNDS = tuple(float(2 ** i) for i in range(11))


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the micro-batching query service.

    Parameters
    ----------
    max_batch:
        Most requests coalesced into one ``knn_batch`` dispatch.
    max_delay_s:
        Longest a request is held for companions.  Holding happens only
        while every worker thread is busy: a batch is dispatched the
        moment it is non-empty and a worker is free, so an idle service
        never waits.  While all are busy, arrivals coalesce until a
        worker frees up, ``max_batch`` is reached, or the batch's first
        request has waited ``max_delay_s`` — then the batch is handed to
        the pool regardless.  0 never holds a request.
    queue_limit:
        Bound of the admission queue (requests admitted but not yet
        dispatched).  Arrivals past it are rejected or blocked per
        ``admission``.
    admission:
        ``"reject"`` (default) — fail fast with
        :class:`~repro.exceptions.ServiceOverloadedError` when the queue
        is full; ``"block"`` — suspend the submitting coroutine until
        space frees (backpressure).
    worker_threads:
        Threads executing dispatched ``knn_batch`` calls, and the number
        of dispatches that may be in flight before arrivals start to
        coalesce.  1 serialises batch execution (the next batch collects
        while the current one runs); more lets batches overlap in storage
        waits — useful under fault-injected stragglers, where the
        narrowed DFS lock lets distinct-partition reads proceed in
        parallel.
    """

    max_batch: int = 32
    max_delay_s: float = 0.002
    queue_limit: int = 256
    admission: str = "reject"
    worker_threads: int = 1

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.max_delay_s < 0:
            raise ConfigurationError("max_delay_s must be >= 0")
        if self.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        if self.admission not in ("reject", "block"):
            raise ConfigurationError(
                f"admission must be 'reject' or 'block', "
                f"got {self.admission!r}"
            )
        if self.worker_threads < 1:
            raise ConfigurationError("worker_threads must be >= 1")


@dataclass(frozen=True)
class QueryResponse:
    """One served kNN answer plus per-response serving telemetry."""

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats
    latency_s: float
    """End-to-end: submit to response, including queue and batch waits."""
    queue_delay_s: float
    """Admission to dispatch — how long the request waited to be batched."""
    batch_size: int
    """Requests in the ``knn_batch`` call this response rode in: those of
    its dispatch that share its argument key.  The ``serve.batch_size``
    histogram counts whole dispatches instead."""
    stopped_early: bool = False
    """True when the request ran progressively and its early-stopping rule
    fired — the answer was served before full plan coverage, with the
    forgone partitions recorded in ``stats.partitions_forgone``."""

    @property
    def degraded(self) -> bool:
        """True when partitions were skipped (see :class:`QueryStats`)."""
        return self.stats.degraded

    @property
    def coverage(self) -> float:
        """Fraction of wanted partitions actually read (1.0 = complete)."""
        return self.stats.coverage

    @property
    def visit_coverage(self) -> float:
        """Fraction of the routed plan visited (early stops count here)."""
        return self.stats.visit_coverage


class _Request:
    __slots__ = ("query", "key", "future", "t_submit", "t_dispatch")

    def __init__(self, query, key, future, t_submit):
        self.query = query
        self.key = key
        self.future = future
        self.t_submit = t_submit
        self.t_dispatch = 0.0


_SHUTDOWN = object()


class QueryService:
    """Serve one :class:`~repro.core.ClimberIndex` to concurrent clients.

    Usage::

        service = QueryService(index, ServeConfig(max_batch=16))
        async with service:
            response = await service.submit(query, k=10)

    ``submit`` may be awaited from any number of concurrent coroutines;
    requests sharing ``(k, variant, adaptive_factor, on_partition_failure,
    early_stop)`` coalesce into shared ``knn_batch`` (or
    ``knn_batch_progressive``) dispatches.  The event loop is
    never blocked by index work: dispatches run on a private thread pool
    (``config.worker_threads`` wide), and the index's own ``n_workers``
    parallelism applies within each dispatch.
    """

    def __init__(
        self,
        index: ClimberIndex,
        config: ServeConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.index = index
        self.config = config or ServeConfig()
        #: ``serve.*`` metrics land next to the index's ``query.*`` metrics
        #: by default so one ``repro.obs/v1`` snapshot shows both tiers.
        self.registry = (
            registry if registry is not None else index.telemetry.registry
        )
        self._c_requests = self.registry.counter("serve.requests")
        self._c_responses = self.registry.counter("serve.responses")
        self._c_rejected = self.registry.counter("serve.rejected")
        self._c_cancelled = self.registry.counter("serve.cancelled")
        self._c_batches = self.registry.counter("serve.batches")
        self._c_degraded = self.registry.counter("serve.degraded")
        self._c_failures = self.registry.counter("serve.failures")
        self._c_early_stopped = self.registry.counter("serve.early_stopped")
        self._c_forgone = self.registry.counter("serve.partitions_forgone")
        self._g_queue_depth = self.registry.gauge("serve.queue_depth")
        self._h_batch_size = self.registry.histogram(
            "serve.batch_size", bounds=_BATCH_SIZE_BOUNDS
        )
        self._h_latency = self.registry.histogram("serve.latency_s")
        self._h_queue_delay = self.registry.histogram("serve.queue_delay_s")
        self._queue: asyncio.Queue | None = None
        self._space: asyncio.Event | None = None
        self._wake: asyncio.Event | None = None
        self._batcher: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()
        self._pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle --------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._batcher is not None

    async def start(self) -> "QueryService":
        """Start the batcher; idempotent-safe to call once per lifetime."""
        if self.running:
            raise ConfigurationError("service already started")
        self._loop = asyncio.get_running_loop()
        # The queue is unbounded; admission control happens in submit()
        # against config.queue_limit, so "reject" can fail fast without
        # racing a bounded queue's put/get and "block" can wait on an
        # explicit capacity event.
        self._queue = asyncio.Queue()
        self._space = asyncio.Event()
        self._space.set()
        # The batcher's one wake-up: arrivals, finished dispatches, the
        # open batch's max_delay_s timer and stop() all set it.
        self._wake = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.worker_threads,
            thread_name_prefix="climber-serve",
        )
        self._batcher = asyncio.ensure_future(self._run())
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        With ``drain`` (default) every admitted request is answered first;
        otherwise pending requests fail with
        :class:`~repro.exceptions.ServiceClosedError`.  In-flight batch
        dispatches always run to completion — the index is left idle.
        """
        if not self.running:
            return
        queue, batcher = self._queue, self._batcher
        self._batcher = None  # new submits fail fast from here on
        self._space.set()  # wake blocked submitters; they see not-running
        if not drain:
            drained: list[_Request] = []
            while not queue.empty():
                item = queue.get_nowait()
                if item is not _SHUTDOWN:
                    drained.append(item)
            for req in drained:
                if not req.future.done():
                    req.future.set_exception(
                        ServiceClosedError("service stopped before dispatch")
                    )
        queue.put_nowait(_SHUTDOWN)
        self._wake.set()
        await batcher
        # Submitters racing the shutdown (woken from a blocked admission
        # wait, or otherwise admitted after the sentinel) may have left
        # requests behind the batcher's exit point.  They would hang on
        # never-dispatched futures — fail them instead.
        while not queue.empty():
            item = queue.get_nowait()
            if item is not _SHUTDOWN and not item.future.done():
                item.future.set_exception(
                    ServiceClosedError("service stopped before dispatch")
                )
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight))
        self._pool.shutdown(wait=True)
        self._pool = None
        self._queue = None
        self._g_queue_depth.set(0)

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- request path -----------------------------------------------------------

    async def submit(
        self,
        query: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        early_stop: str | int | None = None,
    ) -> QueryResponse:
        """Admit one kNN query and await its response.

        Arguments mirror :meth:`~repro.core.ClimberIndex.knn`; requests
        with equal argument tuples may share a ``knn_batch`` dispatch
        (answers are unaffected — batching is bit-transparent).

        ``early_stop`` switches the request onto the progressive path
        (:meth:`~repro.core.ClimberIndex.knn_batch_progressive`): the
        response is served as soon as the stopping rule fires, with
        ``stopped_early`` set and the forgone partitions recorded in
        ``stats.partitions_forgone`` (``serve.early_stopped`` /
        ``serve.partitions_forgone`` count them service-wide).
        ``early_stop="off"`` runs progressively at full coverage —
        bit-identical answers to the default path.

        Raises
        ------
        ServiceOverloadedError
            ``admission="reject"`` and the queue is at ``queue_limit``.
        ServiceClosedError
            The service is not running, or stopped before this request
            could be dispatched.
        ConfigurationError, DimensionalityError, NonFiniteValueError
            ``k`` is not an integer >= 1, ``variant``,
            ``adaptive_factor``, ``on_partition_failure`` or
            ``early_stop`` is malformed, or ``query`` is not one finite
            real series of the indexed length.  Refused here, before
            admission, so a malformed request fails alone and never takes
            its micro-batch down with it.
        """
        if not self.running:
            raise ServiceClosedError("service is not running")
        self._c_requests.inc()
        try:
            ClimberIndex.check_query_args(k, variant, adaptive_factor,
                                          on_partition_failure)
            if early_stop is not None:
                # Keyed on the parsed rule, so "streak:2", 2 and
                # " STREAK:2 " share a dispatch.
                early_stop = parse_early_stop(early_stop) or "off"
            query = self.index.check_query(query)
        except ReproError:
            self._c_failures.inc()
            raise
        while self._queue.qsize() >= self.config.queue_limit:
            if self.config.admission == "reject":
                self._c_rejected.inc()
                raise ServiceOverloadedError(
                    f"admission queue at limit ({self.config.queue_limit})"
                )
            self._space.clear()
            await self._space.wait()
            if not self.running:
                raise ServiceClosedError("service stopped while blocked")
        # Re-check after the admission loop: a blocked submitter can be
        # woken by stop() *via the space event with the queue below its
        # limit* (drain mode empties nothing, but dispatch does), exit the
        # loop, and otherwise enqueue behind the shutdown sentinel — a
        # request the batcher will never see.  stop() also sweeps the
        # queue afterwards, so even a lost race fails fast instead of
        # hanging.
        if not self.running:
            raise ServiceClosedError("service stopped while blocked")
        future = self._loop.create_future()
        req = _Request(
            query,
            (int(k), variant,
             None if adaptive_factor is None else int(adaptive_factor),
             on_partition_failure, early_stop),
            future,
            time.perf_counter(),
        )
        self._queue.put_nowait(req)
        self._wake.set()
        self._g_queue_depth.set(self._queue.qsize())
        return await future

    # -- batcher ----------------------------------------------------------------

    async def _run(self) -> None:
        """The batcher: one loop, work-conserving.

        Each pass moves whatever is queued into the open batch (skipping
        requests whose caller has gone), then dispatches it if a worker is
        free — or, with every worker busy, if the window has closed:
        ``max_batch`` reached, ``max_delay_s`` since the batch's first
        request was submitted, or shutdown.  Otherwise it sleeps until the
        next arrival, finished dispatch, window expiry or ``stop()``.
        """
        cfg = self.config
        queue, wake = self._queue, self._wake
        batch: list[_Request] = []
        shutdown = False
        while True:
            wake.clear()
            while len(batch) < cfg.max_batch and not queue.empty():
                item = queue.get_nowait()
                if item is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(item)
            # A caller cancelled while queued (timeout, disconnect) is not
            # computed: no row in knn_batch, no place in batch_size.
            live = [req for req in batch if not req.future.done()]
            if len(live) < len(batch):
                self._c_cancelled.inc(len(batch) - len(live))
                batch = live
            self._signal_space()
            self._g_queue_depth.set(queue.qsize())
            if batch:
                hold_left = cfg.max_delay_s - (
                    time.perf_counter() - batch[0].t_submit
                )
                if (
                    len(self._inflight) < cfg.worker_threads
                    or len(batch) >= cfg.max_batch
                    or hold_left <= 0
                    or shutdown
                ):
                    task = asyncio.ensure_future(self._dispatch(batch))
                    self._inflight.add(task)
                    task.add_done_callback(self._dispatch_done)
                    batch = []
            if shutdown:
                break
            if not queue.empty():
                continue  # max_batch left the next batch's requests behind
            timer = (
                self._loop.call_later(hold_left, wake.set) if batch else None
            )
            await wake.wait()
            if timer is not None:
                timer.cancel()

    def _dispatch_done(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._wake.set()  # a worker is free

    def _signal_space(self) -> None:
        if (self.config.admission == "block"
                and self._queue.qsize() < self.config.queue_limit):
            self._space.set()

    async def _dispatch(self, batch: list[_Request]) -> None:
        """Execute one micro-batch off-loop and resolve its futures.

        Requests are grouped by their argument key — ``knn_batch`` takes
        one ``k``/``variant`` for all rows — and each group runs as one
        call on the service pool.  Group execution order within a batch
        is deterministic (insertion order of first occurrence).
        """
        t_dispatch = time.perf_counter()
        for req in batch:
            req.t_dispatch = t_dispatch
        self._c_batches.inc()
        self._h_batch_size.observe(len(batch))
        groups: dict[tuple, list[_Request]] = {}
        for req in batch:
            groups.setdefault(req.key, []).append(req)
        for key, group in groups.items():
            k, variant, adaptive_factor, on_failure, early_stop = key

            try:
                queries = np.stack([req.query for req in group])

                def run(queries=queries, k=k, variant=variant,
                        adaptive_factor=adaptive_factor,
                        on_failure=on_failure, early_stop=early_stop):
                    if early_stop is None:
                        return self.index.knn_batch(
                            queries, k, variant=variant,
                            adaptive_factor=adaptive_factor,
                            on_partition_failure=on_failure,
                        )
                    return self.index.knn_batch_progressive(
                        queries, k, variant=variant,
                        adaptive_factor=adaptive_factor,
                        on_partition_failure=on_failure,
                        early_stop=early_stop,
                    )

                results = await self._loop.run_in_executor(self._pool, run)
            except Exception as err:
                self._c_failures.inc(len(group))
                for req in group:
                    if not req.future.done():
                        req.future.set_exception(err)
                continue
            t_done = time.perf_counter()
            # QueryResult rows and final ProgressiveUpdate rows share the
            # ids/distances/stats surface; only the latter carry
            # stopped_early.
            for req, result in zip(group, results):
                latency = t_done - req.t_submit
                self._h_latency.observe(latency)
                self._h_queue_delay.observe(req.t_dispatch - req.t_submit)
                self._c_responses.inc()
                if result.stats.degraded:
                    self._c_degraded.inc()
                stopped_early = bool(getattr(result, "stopped_early", False))
                if stopped_early:
                    self._c_early_stopped.inc()
                forgone = len(result.stats.partitions_forgone)
                if forgone:
                    self._c_forgone.inc(forgone)
                if not req.future.done():
                    req.future.set_result(QueryResponse(
                        ids=result.ids,
                        distances=result.distances,
                        stats=result.stats,
                        latency_s=latency,
                        queue_delay_s=req.t_dispatch - req.t_submit,
                        batch_size=len(group),
                        stopped_early=stopped_early,
                    ))

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        """Serving-tier counters and latency digests, JSON-able.

        A filtered view of the registry: only ``serve.*`` metrics, so the
        service can be inspected without wading through the index's query
        histograms (those remain available via ``index.stats()``).
        """
        snap = self.registry.snapshot()
        return {
            "running": self.running,
            "config": {
                "max_batch": self.config.max_batch,
                "max_delay_s": self.config.max_delay_s,
                "queue_limit": self.config.queue_limit,
                "admission": self.config.admission,
                "worker_threads": self.config.worker_threads,
            },
            "metrics": {
                kind: {
                    name: value for name, value in metrics.items()
                    if name.startswith("serve.")
                }
                for kind, metrics in snap.items()
                if isinstance(metrics, dict)
            },
        }
