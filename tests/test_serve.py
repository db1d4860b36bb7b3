"""Serving-layer tests: parity, admission control, drain, and chaos.

The contract under test (see :mod:`repro.serve.service`): micro-batching
is *transparent* — a served answer is byte-identical to the same query
issued directly against an identically built index, including the
degraded-coverage stats and the logical DFS counters — while admission
control sheds or backpressures load deterministically.

Every oracle here is a *second, identically built* index queried
serially in the service's processing order, the same two-build pattern
the chaos suite uses, so the comparison is bit-exact rather than
statistical.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ClimberIndex
from repro.core.config import ClimberConfig
from repro.exceptions import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import QueryResponse, QueryService, ServeConfig
from repro.series import SeriesDataset
from repro.storage import SimulatedDFS


def _dataset(n=800, length=32, seed=17):
    rng = np.random.default_rng(seed)
    return SeriesDataset(rng.standard_normal((n, length)))


def _config(**overrides):
    base = dict(
        word_length=8,
        n_pivots=16,
        prefix_length=4,
        capacity=64,
        sample_fraction=0.5,
        seed=5,
        n_input_partitions=4,
    )
    base.update(overrides)
    return ClimberConfig(**base)


def _queries(n=16, length=32, seed=23):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, length))


def _dfs_counter_state(index):
    c = index.dfs.counters
    return (c.bytes_read, c.partitions_read, c.retries, c.read_failures)


def _assert_response_matches(resp: QueryResponse, ref) -> None:
    assert np.array_equal(resp.ids, ref.ids)
    assert np.array_equal(resp.distances, ref.distances)
    assert resp.stats.partitions_failed == ref.stats.partitions_failed
    assert resp.coverage == ref.stats.coverage
    assert resp.degraded == ref.stats.degraded
    assert resp.latency_s >= resp.queue_delay_s >= 0.0
    assert resp.batch_size >= 1


class TestServingParity:
    """Byte-identical answers and counters vs a serially queried twin."""

    @pytest.fixture(scope="class")
    def pair(self):
        dataset = _dataset()
        served = ClimberIndex.build(dataset, _config())
        oracle = ClimberIndex.build(dataset, _config())
        return served, oracle

    def test_concurrent_serving_matches_serial_oracle(self, pair):
        served, oracle = pair
        queries = _queries(16)
        before = _dfs_counter_state(served)
        assert before == _dfs_counter_state(oracle)

        async def drive():
            service = QueryService(
                served,
                ServeConfig(max_batch=8, max_delay_s=0.05),
                registry=MetricsRegistry(),
            )
            async with service:
                responses = await asyncio.gather(
                    *[service.submit(q, k=5) for q in queries]
                )
            return responses, service.stats()

        responses, stats = asyncio.run(drive())
        # Serial oracle in submission order: the service batches FIFO and
        # all requests share one argument key, so processing order — and
        # with it the tie-break RNG stream — is the submission order.
        references = [oracle.knn(q, k=5) for q in queries]
        for resp, ref in zip(responses, references):
            _assert_response_matches(resp, ref)
            assert resp.coverage == 1.0
            assert not resp.degraded
        # Micro-batching actually happened and was transparent.
        assert any(r.batch_size > 1 for r in responses)
        counters = stats["metrics"]["counters"]
        assert counters["serve.requests"] == 16
        assert counters["serve.responses"] == 16
        assert counters["serve.rejected"] == 0
        assert counters["serve.failures"] == 0
        assert counters["serve.degraded"] == 0
        # Logical storage counters advance in lockstep with the serial
        # twin: batching changes scheduling, never the work charged.
        assert _dfs_counter_state(served) == _dfs_counter_state(oracle)

    def test_mixed_k_groups_split_correctly(self, pair):
        served, oracle = pair
        queries = _queries(12, seed=31)
        ks = [3 if i % 2 == 0 else 7 for i in range(len(queries))]

        async def drive():
            # One big batch window so all 12 requests coalesce into a
            # single dispatch with two key groups (k=3 rows first, then
            # k=7 — insertion order of first occurrence).
            service = QueryService(
                served,
                ServeConfig(max_batch=64, max_delay_s=0.05),
                registry=MetricsRegistry(),
            )
            async with service:
                return await asyncio.gather(*[
                    service.submit(q, k=k) for q, k in zip(queries, ks)
                ])

        responses = asyncio.run(drive())
        # Oracle in the service's group processing order: all k=3 rows in
        # submission order, then all k=7 rows.
        references: dict[int, object] = {}
        for wanted_k in (3, 7):
            for i, (q, k) in enumerate(zip(queries, ks)):
                if k == wanted_k:
                    references[i] = oracle.knn(q, k=k)
        for i, resp in enumerate(responses):
            assert len(resp.ids) == min(ks[i], len(resp.ids))
            _assert_response_matches(resp, references[i])
        assert _dfs_counter_state(served) == _dfs_counter_state(oracle)


class TestAdmissionControl:
    @pytest.fixture(scope="class")
    def index(self):
        return ClimberIndex.build(_dataset(), _config())

    def test_reject_mode_sheds_load(self, index):
        queries = _queries(12)

        async def drive():
            service = QueryService(
                index,
                ServeConfig(max_batch=4, max_delay_s=0.01, queue_limit=4,
                            admission="reject"),
                registry=MetricsRegistry(),
            )
            async with service:
                results = await asyncio.gather(
                    *[service.submit(q, k=5) for q in queries],
                    return_exceptions=True,
                )
            return results, service.stats()

        results, stats = asyncio.run(drive())
        ok = [r for r in results if isinstance(r, QueryResponse)]
        shed = [r for r in results if isinstance(r, ServiceOverloadedError)]
        assert len(ok) + len(shed) == len(queries)
        # All 12 submits run before the batcher first drains (they have
        # no awaits before enqueueing), so exactly queue_limit are
        # admitted and the rest shed — deterministically.
        assert len(ok) == 4
        assert len(shed) == 8
        counters = stats["metrics"]["counters"]
        assert counters["serve.requests"] == 12
        assert counters["serve.rejected"] == 8
        assert counters["serve.responses"] == 4

    def test_block_mode_backpressures_instead(self, index):
        queries = _queries(10)

        async def drive():
            service = QueryService(
                index,
                ServeConfig(max_batch=4, max_delay_s=0.0, queue_limit=2,
                            admission="block"),
                registry=MetricsRegistry(),
            )
            async with service:
                responses = await asyncio.gather(
                    *[service.submit(q, k=5) for q in queries]
                )
            return responses, service.stats()

        responses, stats = asyncio.run(drive())
        assert len(responses) == len(queries)
        counters = stats["metrics"]["counters"]
        assert counters["serve.rejected"] == 0
        assert counters["serve.responses"] == len(queries)


class TestLifecycle:
    @pytest.fixture(scope="class")
    def index(self):
        return ClimberIndex.build(_dataset(), _config())

    def test_submit_before_start_and_after_stop_raises(self, index):
        async def drive():
            service = QueryService(index, registry=MetricsRegistry())
            with pytest.raises(ServiceClosedError):
                await service.submit(_queries(1)[0], k=3)
            async with service:
                pass
            with pytest.raises(ServiceClosedError):
                await service.submit(_queries(1)[0], k=3)

        asyncio.run(drive())

    def test_double_start_rejected(self, index):
        async def drive():
            service = QueryService(index, registry=MetricsRegistry())
            await service.start()
            try:
                with pytest.raises(ConfigurationError):
                    await service.start()
            finally:
                await service.stop()

        asyncio.run(drive())

    def test_stop_with_drain_answers_everything(self, index):
        queries = _queries(6)

        async def drive():
            service = QueryService(
                index,
                ServeConfig(max_batch=4, max_delay_s=0.05),
                registry=MetricsRegistry(),
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(q, k=5))
                for q in queries
            ]
            await asyncio.sleep(0)  # enqueue all before stopping
            await service.stop(drain=True)
            return await asyncio.gather(*tasks)

        responses = asyncio.run(drive())
        assert len(responses) == len(queries)
        assert all(isinstance(r, QueryResponse) for r in responses)

    def test_stop_without_drain_fails_pending(self, index):
        queries = _queries(6)

        async def drive():
            service = QueryService(
                index,
                ServeConfig(max_batch=4, max_delay_s=0.05),
                registry=MetricsRegistry(),
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(q, k=5))
                for q in queries
            ]
            # One loop pass: every submit has enqueued, but the batcher
            # has not yet resumed to collect a batch.
            await asyncio.sleep(0)
            await service.stop(drain=False)
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(drive())
        assert len(results) == len(queries)
        assert all(isinstance(r, ServiceClosedError) for r in results)

    def test_config_validation(self, index):
        with pytest.raises(ConfigurationError):
            ServeConfig(max_batch=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(admission="drop")
        with pytest.raises(ConfigurationError):
            ServeConfig(worker_threads=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(max_delay_s=-1.0)
        for name in ("max_batch", "queue_limit", "worker_threads"):
            for bad in (2.5, 4.0, True):
                with pytest.raises(ConfigurationError, match=name):
                    ServeConfig(**{name: bad})
        assert ServeConfig(worker_threads=np.int64(2)).worker_threads == 2
        for bad in (True, "0.01", float("nan"), float("inf"), None):
            with pytest.raises(ConfigurationError, match="max_delay_s"):
                ServeConfig(max_delay_s=bad)
        assert ServeConfig(max_delay_s=0).max_delay_s == 0

    def test_stats_shape(self, index):
        service = QueryService(index, registry=MetricsRegistry())
        stats = service.stats()
        assert stats["running"] is False
        assert stats["config"]["admission"] == "reject"
        assert "counters" in stats["metrics"]
        assert all(
            name.startswith("serve.")
            for metrics in stats["metrics"].values()
            for name in metrics
        )


class TestServingUnderChaos:
    """Satellite 4: degraded responses under seeded loss match the oracle.

    Loss faults are *per blob* (attempt-independent), so the degradation
    pattern is a pure function of the seed — concurrency in the service
    cannot shift it.  Per-response ``coverage``/``degraded``/
    ``partitions_failed`` must therefore match a serially queried,
    identically built (and identically lossy) twin exactly.
    """

    @pytest.fixture(scope="class")
    def lossy_pair(self):
        dataset = _dataset(n=2000, length=64)
        plan = FaultPlan(seed=1234, loss_rate=0.3)

        def build():
            return ClimberIndex.build(
                dataset, _config(n_input_partitions=8),
                dfs=SimulatedDFS(
                    fault_plan=plan,
                    retry_policy=RetryPolicy(max_attempts=2,
                                             backoff_base_s=0.0),
                ),
            )

        served, oracle = build(), build()
        lost = [
            p for p in served.dfs.list_partitions()
            if plan.lost(served.dfs.engine.blob_name(p))
        ]
        assert lost, "seed must lose at least one partition"
        return served, oracle, lost

    def test_degraded_serving_matches_serial_oracle(self, lossy_pair):
        served, oracle, lost = lossy_pair
        queries = _queries(24, length=64, seed=29)

        async def drive():
            # worker_threads=1 serialises dispatch execution, pinning the
            # tie-break RNG stream to the oracle's processing order; >1 is
            # exercised by the load bench, where no parity is asserted.
            service = QueryService(
                served,
                ServeConfig(max_batch=8, max_delay_s=0.05, worker_threads=1),
                registry=MetricsRegistry(),
            )
            async with service:
                responses = await asyncio.gather(*[
                    service.submit(q, k=5, on_partition_failure="skip")
                    for q in queries
                ])
            return responses, service.stats()

        responses, stats = asyncio.run(drive())
        references = [
            oracle.knn(q, k=5, on_partition_failure="skip") for q in queries
        ]
        degraded = 0
        for resp, ref in zip(responses, references):
            _assert_response_matches(resp, ref)
            if resp.degraded:
                degraded += 1
                assert 0.0 <= resp.coverage < 1.0
                assert set(resp.stats.partitions_failed) <= set(lost)
            else:
                assert resp.coverage == 1.0
        assert degraded >= 1, "some served query must touch a lost partition"
        counters = stats["metrics"]["counters"]
        assert counters["serve.degraded"] == degraded
        assert counters["serve.responses"] == len(queries)
        assert counters["serve.failures"] == 0
        # Storage-level accounting is in lockstep too: same lost blobs,
        # same skips, same logical charges.
        assert _dfs_counter_state(served) == _dfs_counter_state(oracle)


class TestSubmitStopRace:
    """Satellite 3: ``submit()`` racing ``stop()`` must fail fast.

    A block-mode submitter parked on the space event can be woken by
    ``stop()`` with the queue below its limit; before the fix it would
    exit the admission loop, enqueue behind the shutdown sentinel, and
    await a future the batcher never dispatches — a silent hang.  Every
    interleaving must now resolve to either a served answer or
    :class:`~repro.exceptions.ServiceClosedError`.
    """

    @pytest.fixture(scope="class")
    def index(self):
        return ClimberIndex.build(_dataset(), _config())

    def test_blocked_submitter_fails_instead_of_hanging(self, index):
        queries = _queries(2)

        async def drive():
            service = QueryService(
                index,
                ServeConfig(queue_limit=1, admission="block",
                            max_batch=1, max_delay_s=0.01),
                registry=MetricsRegistry(),
            )
            await service.start()
            # Interleaving forced without sleeps: submit A fills the
            # queue, submit B parks on the space event, stop() wakes it
            # with running already False.
            a = asyncio.ensure_future(service.submit(queries[0], k=5))
            b = asyncio.ensure_future(service.submit(queries[1], k=5))
            stopper = asyncio.ensure_future(service.stop(drain=True))
            results = await asyncio.gather(a, b, stopper,
                                           return_exceptions=True)
            return results[:2]

        # A hang is the regression: convert it into a loud failure.
        res_a, res_b = asyncio.run(asyncio.wait_for(drive(), timeout=30))
        outcomes = {type(r).__name__ for r in (res_a, res_b)}
        assert outcomes <= {"QueryResponse", "ServiceClosedError"}
        # The admitted request is drained; the blocked one is refused.
        assert isinstance(res_a, QueryResponse)
        assert isinstance(res_b, ServiceClosedError)

    def test_blocked_submitter_reject_after_undrained_stop(self, index):
        queries = _queries(2)

        async def drive():
            service = QueryService(
                index,
                ServeConfig(queue_limit=1, admission="block",
                            max_batch=1, max_delay_s=0.01),
                registry=MetricsRegistry(),
            )
            await service.start()
            a = asyncio.ensure_future(service.submit(queries[0], k=5))
            b = asyncio.ensure_future(service.submit(queries[1], k=5))
            stopper = asyncio.ensure_future(service.stop(drain=False))
            return await asyncio.gather(a, b, stopper,
                                        return_exceptions=True)

        res_a, res_b, _ = asyncio.run(
            asyncio.wait_for(drive(), timeout=30)
        )
        assert isinstance(res_a, ServiceClosedError)
        assert isinstance(res_b, ServiceClosedError)

    def test_request_behind_sentinel_is_swept(self, index):
        """A request that loses the race entirely — enqueued after the
        shutdown sentinel — is failed by stop()'s post-batcher sweep, not
        left hanging on a never-dispatched future."""
        from repro.serve.service import _Request

        async def drive():
            service = QueryService(index, registry=MetricsRegistry())
            await service.start()
            queue = service._queue
            loop = asyncio.get_running_loop()
            stopper = asyncio.ensure_future(service.stop(drain=True))
            await asyncio.sleep(0)  # stop() is now parked on the batcher
            future = loop.create_future()
            queue.put_nowait(_Request(
                np.asarray(_queries(1)[0]), (5, "adaptive", None, None,
                                             None, None),
                future, 0.0,
            ))
            await stopper
            with pytest.raises(ServiceClosedError):
                await future

        asyncio.run(asyncio.wait_for(drive(), timeout=30))

    def test_submit_storm_during_stop_never_hangs(self, index):
        """Many submitters racing one stop(): every future resolves."""
        queries = _queries(12)

        async def drive():
            service = QueryService(
                index,
                ServeConfig(queue_limit=2, admission="block",
                            max_batch=2, max_delay_s=0.01),
                registry=MetricsRegistry(),
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(q, k=5))
                for q in queries
            ]
            await asyncio.sleep(0)
            stopper = asyncio.ensure_future(service.stop(drain=True))
            results = await asyncio.gather(*tasks, stopper,
                                           return_exceptions=True)
            return results[:-1]

        results = asyncio.run(asyncio.wait_for(drive(), timeout=60))
        assert len(results) == len(queries)
        for r in results:
            assert isinstance(r, (QueryResponse, ServiceClosedError))


class _GatedIndex:
    """A stub index whose ``knn_batch`` announces each call, then blocks
    until the test grants it a permit — so a worker is "busy" for exactly
    as long as the test says.  Queries are ``[tag]``; the answer to a
    query is its tag."""

    def __init__(self):
        self.calls: list[list[int]] = []
        self.entered: queue.Queue = queue.Queue()
        self.permits = threading.Semaphore(0)

    def check_query(self, query):
        return np.asarray(query, dtype=np.float64)

    def knn_batch(self, queries, k, **_):
        tags = [int(q[0]) for q in queries]
        self.calls.append(tags)
        self.entered.put(tags)
        assert self.permits.acquire(timeout=30), "test never released the call"
        stats = SimpleNamespace(degraded=False, partitions_forgone=())
        return [
            SimpleNamespace(ids=np.array([tag]), distances=np.zeros(1),
                            stats=stats)
            for tag in tags
        ]


class TestBatcherPolicy:
    """Work-conserving micro-batching, pinned without sleeps or timings:
    a free worker means go; every worker busy means coalesce until one
    frees up, ``max_batch`` is reached or ``max_delay_s`` runs out."""

    @staticmethod
    def _run(scenario, **config):
        """Run ``scenario(service, index, submit)`` in a started service."""
        async def drive():
            index = _GatedIndex()
            service = QueryService(index, ServeConfig(**config),
                                   registry=MetricsRegistry())

            def submit(tag):
                return asyncio.ensure_future(service.submit([tag], k=1))

            async with service:
                await scenario(service, index, submit)
            return service, index

        return asyncio.run(asyncio.wait_for(drive(), timeout=60))

    @staticmethod
    async def _entered(index):
        """The tags of the next ``knn_batch`` call, once a worker is in it."""
        return await asyncio.get_running_loop().run_in_executor(
            None, index.entered.get, True, 30
        )

    @staticmethod
    async def _until(condition):
        """Yield to the loop until ``condition()``; bounded, never timed."""
        deadline = asyncio.get_running_loop().time() + 30
        while not condition():
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0)

    @staticmethod
    def _counter(service, name):
        return service.stats()["metrics"]["counters"][name]

    def test_idle_service_dispatches_a_lone_request_at_once(self):
        async def scenario(service, index, submit):
            lone = submit(1)
            assert await self._entered(index) == [1]
            index.permits.release()
            response = await lone
            assert response.batch_size == 1
            assert response.queue_delay_s < 1.0  # of a 5 s window

        self._run(scenario, max_delay_s=5.0)

    def test_arrivals_coalesce_while_the_worker_is_busy(self):
        async def scenario(service, index, submit):
            first = submit(0)
            assert await self._entered(index) == [0]
            rest = [submit(tag) for tag in (1, 2, 3)]
            await self._until(
                lambda: self._counter(service, "serve.requests") == 4)
            assert index.calls == [[0]]  # held: no worker, window open
            index.permits.release()  # the worker frees up ...
            assert await self._entered(index) == [1, 2, 3]  # ... one batch
            index.permits.release()
            assert (await first).batch_size == 1
            for tag, response in zip((1, 2, 3), await asyncio.gather(*rest)):
                assert response.batch_size == 3
                assert response.ids.tolist() == [tag]

        self._run(scenario, max_batch=8, max_delay_s=5.0)

    def test_max_batch_closes_the_window_while_busy(self):
        async def scenario(service, index, submit):
            first = submit(0)
            assert await self._entered(index) == [0]
            rest = [submit(tag) for tag in (1, 2, 3, 4)]
            # The full batch is handed to the pool although its only
            # worker is still held; the fourth arrival stays behind.
            await self._until(
                lambda: self._counter(service, "serve.batches") == 2)
            assert index.calls == [[0]]
            index.permits.release()
            assert await self._entered(index) == [1, 2, 3]
            index.permits.release()
            assert await self._entered(index) == [4]
            index.permits.release()
            sizes = [r.batch_size for r in await asyncio.gather(first, *rest)]
            assert sizes == [1, 3, 3, 3, 1]

        self._run(scenario, max_batch=3, max_delay_s=5.0)

    def test_max_delay_closes_the_window_while_busy(self):
        async def scenario(service, index, submit):
            first = submit(0)
            assert await self._entered(index) == [0]
            rest = [submit(tag) for tag in (1, 2)]
            # Nothing frees the worker: only the window's expiry can hand
            # the second batch to the pool.
            await self._until(
                lambda: self._counter(service, "serve.batches") == 2)
            assert index.calls == [[0]]
            index.permits.release()
            assert await self._entered(index) == [1, 2]
            index.permits.release()
            sizes = [r.batch_size for r in await asyncio.gather(first, *rest)]
            assert sizes == [1, 2, 2]

        self._run(scenario, max_batch=8, max_delay_s=0.02)

    def test_batch_size_counts_the_call_a_response_rode_in(self):
        async def scenario(service, index, submit):
            first = submit(0)
            assert await self._entered(index) == [0]
            # One dispatch, two argument keys: two knn_batch calls.
            rest = [
                asyncio.ensure_future(service.submit([tag], k=k))
                for tag, k in ((1, 5), (2, 10), (3, 5))
            ]
            await self._until(
                lambda: self._counter(service, "serve.requests") == 4)
            index.permits.release()
            assert await self._entered(index) == [1, 3]
            index.permits.release()
            assert await self._entered(index) == [2]
            index.permits.release()
            responses = await asyncio.gather(first, *rest)
            assert [r.batch_size for r in responses] == [1, 2, 1, 2]
            # The histogram still counts whole dispatches: 1 and 3.
            hist = service.stats()["metrics"]["histograms"]["serve.batch_size"]
            assert (hist["count"], hist["sum"]) == (2, 4)

        self._run(scenario, max_batch=8, max_delay_s=5.0)

    def test_second_worker_takes_a_second_batch(self):
        async def scenario(service, index, submit):
            first = submit(0)
            assert await self._entered(index) == [0]
            second = submit(1)
            assert await self._entered(index) == [1]  # first still held
            third = submit(2)  # both workers busy: this one waits
            await self._until(
                lambda: self._counter(service, "serve.requests") == 3)
            assert index.calls == [[0], [1]]
            index.permits.release()
            assert await self._entered(index) == [2]
            index.permits.release(2)
            responses = await asyncio.gather(first, second, third)
            assert [r.batch_size for r in responses] == [1, 1, 1]
            # A free worker took each of the first two: neither sat out
            # any part of the 5 s window.
            assert max(r.queue_delay_s for r in responses[:2]) < 1.0

        self._run(scenario, worker_threads=2, max_delay_s=5.0)

    def test_cancelled_while_queued_is_skipped_and_counted(self):
        async def scenario(service, index, submit):
            first = submit(0)
            assert await self._entered(index) == [0]
            rest = [submit(tag) for tag in (1, 2, 3)]
            await self._until(
                lambda: self._counter(service, "serve.requests") == 4)
            rest[1].cancel()  # the caller of request 2 goes away
            with pytest.raises(asyncio.CancelledError):
                await rest[1]
            index.permits.release()
            assert await self._entered(index) == [1, 3]  # no row for 2
            index.permits.release()
            await first
            for tag, task in ((1, rest[0]), (3, rest[2])):
                response = await task
                assert response.batch_size == 2
                assert response.ids.tolist() == [tag]
            assert self._counter(service, "serve.cancelled") == 1
            assert self._counter(service, "serve.responses") == 3

        service, index = self._run(scenario, max_batch=8, max_delay_s=5.0)
        assert index.calls == [[0], [1, 3]]


class TestProgressiveServing:
    """``submit(..., early_stop=...)`` routes onto the progressive path."""

    @pytest.fixture(scope="class")
    def pair(self):
        dataset = _dataset()
        served = ClimberIndex.build(dataset, _config())
        oracle = ClimberIndex.build(dataset, _config())
        return served, oracle

    def _serve(self, index, queries, **submit_kwargs):
        async def drive():
            service = QueryService(
                index,
                ServeConfig(max_batch=8, max_delay_s=0.05,
                            worker_threads=1),
                registry=MetricsRegistry(),
            )
            async with service:
                responses = await asyncio.gather(*[
                    service.submit(q, k=5, **submit_kwargs)
                    for q in queries
                ])
            return responses, service.stats()

        return asyncio.run(drive())

    def test_early_stop_off_matches_plain_submit(self, pair):
        served, oracle = pair
        queries = _queries(12)
        responses, _ = self._serve(
            served, queries, variant="od-smallest", early_stop="off"
        )
        references = [
            oracle.knn(q, k=5, variant="od-smallest") for q in queries
        ]
        for resp, ref in zip(responses, references):
            _assert_response_matches(resp, ref)
            assert not resp.stopped_early
            assert resp.visit_coverage == 1.0

    def test_early_stop_serves_partial_coverage_honestly(self, pair):
        served, _ = pair
        queries = _queries(16, seed=41)
        responses, stats = self._serve(
            served, queries, variant="od-smallest", early_stop="streak:1"
        )
        stopped = [r for r in responses if r.stopped_early]
        assert stopped, "streak:1 fired on no served query"
        for resp in stopped:
            assert resp.stats.partitions_forgone
            assert resp.visit_coverage < 1.0
            assert resp.coverage == 1.0  # forgone is not failure
            assert resp.ids.shape[0] == 5
        counters = stats["metrics"]["counters"]
        assert counters["serve.early_stopped"] == len(stopped)
        assert counters["serve.partitions_forgone"] == sum(
            len(r.stats.partitions_forgone) for r in stopped
        )
        assert counters["serve.responses"] == len(queries)

    def test_k_exceeding_records_served(self):
        rng = np.random.default_rng(3)
        small = SeriesDataset(rng.standard_normal((12, 32)))
        index = ClimberIndex.build(small, _config(
            n_pivots=8, prefix_length=3, capacity=8, sample_fraction=1.0,
            n_input_partitions=1,
        ))

        async def drive():
            service = QueryService(index, registry=MetricsRegistry())
            async with service:
                plain = await service.submit(small.values[0], k=50)
                progressive = await service.submit(
                    small.values[0], k=50, early_stop="streak:1"
                )
            return plain, progressive

        plain, progressive = asyncio.run(drive())
        for resp in (plain, progressive):
            assert resp.ids.shape[0] <= 12
            assert resp.ids.shape[0] == resp.distances.shape[0]
            assert resp.coverage == 1.0
        assert not progressive.stopped_early  # never before k in hand
        assert np.array_equal(plain.ids, progressive.ids)
        assert np.array_equal(plain.distances, progressive.distances)
