"""Serving-layer load benchmark: QPS, tail latency, batching, and overlap.

The acceptance artifact of the unserialized-DFS PR
(``BENCH_serving.json``):

* **Zero-fault parity oracle** — a hard refusal, not a measurement:
  every answer served through the micro-batching
  :class:`~repro.serve.QueryService` must be bit-identical (ids,
  distances, stats) to the same queries run serially against an
  identically built twin index, and the logical DFS counters
  (``bytes_read``/``partitions_read``) must advance in lockstep.  Any
  mismatch aborts the run before the artifact is written.
* **Load sweep** — closed-loop asyncio load generation with >= 8
  concurrent clients: throughput (QPS) and latency percentiles
  (p50/p90/p99) per serving configuration, including a ``max_batch=1``
  row so the micro-batching win is measured rather than assumed.
* **Idle queueing gate** — work conservation at the serving tier.  One
  closed-loop client never finds the worker busy, so nothing may hold its
  requests for companions: the run fails unless the median
  ``queue_delay_s`` stays under ``IDLE_QUEUE_GATE`` x ``max_delay_s``.
* **Straggler overlap gate** — the lock-convoy regression check at the
  serving tier.  The built store is reopened with a 100%-straggler
  fault plan (every physical open sleeps a fixed delay) and a burst of
  concurrent queries is served; the run fails unless wall clock stays
  under ``OVERLAP_GATE`` x the sum of injected delays — i.e. unless
  storage sleeps genuinely overlap across query shards instead of
  convoying on the old coarse DFS lock.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_common import bench_environment, record_rounds
from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan
from repro.serve import QueryService, ServeConfig
from repro.storage import SimulatedDFS

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_serving.json"

OVERLAP_GATE = 0.6          # wall must stay under this fraction of the
                            # summed injected straggler sleeps
STRAGGLER_DELAY_S = 0.02
IDLE_QUEUE_GATE = 0.25      # a lone client's median queue delay must stay
                            # under this fraction of max_delay_s


def operating_point(smoke: bool):
    if smoke:
        dataset = random_walk_dataset(2_000, 64, seed=1)
        config = dict(
            word_length=8, n_pivots=48, prefix_length=6, capacity=120,
            sample_fraction=0.25, n_input_partitions=16, seed=7,
            min_centroid_separation=1,
        )
    else:
        dataset = random_walk_dataset(8_000, 96, seed=1)
        config = dict(
            word_length=12, n_pivots=96, prefix_length=6, capacity=150,
            sample_fraction=0.2, n_input_partitions=32, seed=7,
            min_centroid_separation=1,
        )
    return dataset, config


def _counter_state(index):
    c = index.dfs.counters
    return (c.bytes_read, c.partitions_read, c.retries, c.read_failures)


# -- zero-fault parity oracle ------------------------------------------------------


def check_serving_parity(dataset, config_kwargs, queries, k) -> dict:
    """Served answers and logical counters vs a serially queried twin.

    ``worker_threads=1`` serialises dispatch execution so the tie-break
    RNG stream matches the oracle's submission-order sweep; batching
    itself must be bit-transparent (the PR-6 ``knn_batch`` parity).
    """
    served_index = ClimberIndex.build(dataset, ClimberConfig(**config_kwargs))
    oracle_index = ClimberIndex.build(dataset, ClimberConfig(**config_kwargs))

    async def drive():
        service = QueryService(
            served_index,
            ServeConfig(max_batch=8, max_delay_s=0.05, worker_threads=1),
            registry=MetricsRegistry(),
        )
        async with service:
            return await asyncio.gather(
                *[service.submit(q, k=k) for q in queries]
            )

    responses = asyncio.run(drive())
    references = [oracle_index.knn(q, k=k) for q in queries]
    for i, (resp, ref) in enumerate(zip(responses, references)):
        if not (np.array_equal(resp.ids, ref.ids)
                and np.array_equal(resp.distances, ref.distances)
                and resp.stats.partitions_failed
                == ref.stats.partitions_failed):
            raise SystemExit(
                f"serving parity failed on query {i}: served answer "
                f"differs from the serial oracle; results not written"
            )
    if _counter_state(served_index) != _counter_state(oracle_index):
        raise SystemExit(
            f"serving parity failed: logical DFS counters diverged "
            f"(served {_counter_state(served_index)} vs serial "
            f"{_counter_state(oracle_index)}); results not written"
        )
    batched = sum(1 for r in responses if r.batch_size > 1)
    return {
        "queries": len(queries),
        "bit_identical": True,
        "counters_identical": True,
        "responses_in_shared_batches": batched,
    }


# -- closed-loop load generation ---------------------------------------------------


def run_load(index, queries, k, n_clients, per_client,
             serve_config: ServeConfig) -> dict:
    """Closed-loop load: ``n_clients`` coroutines, one request in flight
    each, ``per_client`` requests per client."""

    async def drive():
        service = QueryService(index, serve_config,
                               registry=MetricsRegistry())
        latencies: list[float] = []
        queue_delays: list[float] = []
        batch_sizes: list[int] = []

        async def client(ci: int):
            for j in range(per_client):
                q = queries[(ci * per_client + j) % len(queries)]
                resp = await service.submit(q, k=k)
                latencies.append(resp.latency_s)
                queue_delays.append(resp.queue_delay_s)
                batch_sizes.append(resp.batch_size)

        async with service:
            t0 = time.perf_counter()
            await asyncio.gather(*[client(i) for i in range(n_clients)])
            wall = time.perf_counter() - t0
        return wall, latencies, queue_delays, batch_sizes, service.stats()

    wall, latencies, queue_delays, batch_sizes, stats = asyncio.run(drive())
    total = n_clients * per_client
    lat = np.asarray(latencies)
    counters = stats["metrics"]["counters"]
    return {
        "n_clients": n_clients,
        "requests": total,
        "max_batch": serve_config.max_batch,
        "worker_threads": serve_config.worker_threads,
        "wall_s": round(wall, 4),
        "qps": round(total / wall, 1),
        "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 3),
        "p90_ms": round(float(np.percentile(lat, 90)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(lat, 99)) * 1e3, 3),
        "mean_queue_delay_ms": round(float(np.mean(queue_delays)) * 1e3, 3),
        "p50_queue_delay_ms": round(
            float(np.percentile(queue_delays, 50)) * 1e3, 3),
        "mean_batch_size": round(float(np.mean(batch_sizes)), 2),
        "batches": counters["serve.batches"],
        "rejected": counters["serve.rejected"],
    }


# -- idle queueing gate ------------------------------------------------------------


def check_idle_queueing(index, queries, k, requests) -> dict:
    """One closed-loop client against the default 2 ms window.

    Each request arrives at an idle service, so a work-conserving batcher
    dispatches it at once; a batcher that taxes every request with the
    window shows a median queue delay of ``max_delay_s`` here.
    """
    serve_config = ServeConfig(max_delay_s=0.002)
    row = run_load(index, queries, k, 1, requests, serve_config)
    limit_ms = IDLE_QUEUE_GATE * serve_config.max_delay_s * 1e3
    if row["p50_queue_delay_ms"] >= limit_ms:
        raise SystemExit(
            f"idle queueing gate failed: a lone client's median queue "
            f"delay is {row['p50_queue_delay_ms']:.3f}ms, not under "
            f"{limit_ms:.3f}ms ({IDLE_QUEUE_GATE} x max_delay_s); the "
            f"batcher holds requests while a worker is free — results "
            f"not written"
        )
    return {**row, "max_delay_s": serve_config.max_delay_s,
            "gate_ms": limit_ms}


# -- straggler overlap gate --------------------------------------------------------


def measure_overlap(dataset, config_kwargs, queries, k) -> dict:
    """Serve a query burst against a 100%-straggler store.

    Every physical open sleeps ``STRAGGLER_DELAY_S``; the injector's
    per-name attempt counters give the exact total injected sleep, so
    ``wall / injected`` measures how much the serving path overlaps
    storage waits.  Under the old coarse DFS lock the ratio was ~1
    (sleeps serialised); the narrowed lock must keep it under
    ``OVERLAP_GATE``.
    """
    config = ClimberConfig(**{**config_kwargs, "n_workers": 4})
    with tempfile.TemporaryDirectory() as tmp:
        dfs_dir = Path(tmp) / "dfs"
        build_dfs = SimulatedDFS(backing_dir=dfs_dir)
        index = ClimberIndex.build(dataset, config, dfs=build_dfs)
        blob = index.save_global_index()

        slow_dfs = SimulatedDFS(
            backing_dir=dfs_dir,
            fault_plan=FaultPlan(seed=99, straggler_rate=1.0,
                                 straggler_delay_s=STRAGGLER_DELAY_S),
        )
        slow_dfs.attach()
        slow = ClimberIndex.reopen(blob, slow_dfs, config)

        async def drive():
            service = QueryService(
                slow,
                ServeConfig(max_batch=64, max_delay_s=0.005,
                            worker_threads=2),
                registry=MetricsRegistry(),
            )
            async with service:
                t0 = time.perf_counter()
                await asyncio.gather(
                    *[service.submit(q, k=k) for q in queries]
                )
                return time.perf_counter() - t0

        wall = asyncio.run(drive())
        injector = slow_dfs.fault_injector
        attempts = sum(
            injector.attempts(slow_dfs.engine.blob_name(pid))
            for pid in slow_dfs.list_partitions()
        )
    injected = attempts * STRAGGLER_DELAY_S
    result = {
        "queries": len(queries),
        "straggler_delay_s": STRAGGLER_DELAY_S,
        "injected_attempts": attempts,
        "injected_sleep_s": round(injected, 4),
        "wall_s": round(wall, 4),
        "overlap_ratio": round(wall / injected, 4),
        "gate": OVERLAP_GATE,
    }
    if wall >= OVERLAP_GATE * injected:
        raise SystemExit(
            f"overlap gate failed: served burst took {wall:.3f}s against "
            f"{injected:.3f}s of injected straggler sleep "
            f"(ratio {wall / injected:.2f} >= {OVERLAP_GATE}); storage "
            f"sleeps are serialising — results not written"
        )
    return result


# -- driver ------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small operating point for CI")
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args()

    dataset, config_kwargs = operating_point(args.smoke)
    n_parity = 16 if args.smoke else 32
    n_clients = 8 if args.smoke else 12
    per_client = 6 if args.smoke else 25
    queries = sample_queries(dataset, max(n_parity, 64), seed=23).values

    print(f"serving bench over {dataset.count} records "
          f"({'smoke' if args.smoke else 'full'})")

    t0 = time.perf_counter()
    parity = check_serving_parity(dataset, config_kwargs,
                                  queries[:n_parity], args.k)
    record_rounds("serving.parity", [time.perf_counter() - t0])
    print(f"zero-fault parity: ok ({parity['queries']} queries, "
          f"{parity['responses_in_shared_batches']} rode shared batches)")

    load_index = ClimberIndex.build(dataset, ClimberConfig(**config_kwargs))
    sweep = []
    for max_batch in (1, 32):
        row = run_load(
            load_index, queries, args.k, n_clients, per_client,
            ServeConfig(max_batch=max_batch, max_delay_s=0.002,
                        queue_limit=512, admission="block",
                        worker_threads=2),
        )
        sweep.append(row)
        print(f"load max_batch={max_batch:>2}: {row['qps']:>8.1f} QPS  "
              f"p50 {row['p50_ms']:.2f}ms  p90 {row['p90_ms']:.2f}ms  "
              f"p99 {row['p99_ms']:.2f}ms  "
              f"mean batch {row['mean_batch_size']:.1f}")

    idle = check_idle_queueing(load_index, queries, args.k,
                               6 * per_client)
    print(f"idle queueing: median queue delay "
          f"{idle['p50_queue_delay_ms']:.3f}ms < {idle['gate_ms']:.3f}ms  "
          f"(p50 {idle['p50_ms']:.2f}ms end to end)")

    # 32 concurrent queries -> 4 row shards at n_workers=4, so the burst
    # has real cross-shard read parallelism for the sleeps to overlap.
    overlap = measure_overlap(dataset, config_kwargs, queries[:32], args.k)
    print(f"straggler overlap: wall {overlap['wall_s']:.3f}s vs "
          f"{overlap['injected_sleep_s']:.3f}s injected "
          f"(ratio {overlap['overlap_ratio']:.2f} < {OVERLAP_GATE})")

    payload = {
        "smoke": args.smoke,
        "environment": bench_environment(),
        "n_records": dataset.count,
        "k": args.k,
        "zero_fault_parity": parity,
        "load_sweep": sweep,
        "idle_queueing": idle,
        "straggler_overlap": overlap,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
