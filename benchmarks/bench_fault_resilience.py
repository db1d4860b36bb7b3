"""Fault-resilience benchmark: checksum cost, degradation curve, recovery.

The PR-8 acceptance suite, in one artifact (``BENCH_fault_resilience.json``):

* **Checksum overhead** — cold-start query sweeps over the same
  checksummed disk store with ``verify="lazy"`` (the default) vs
  ``verify="off"`` (interleaved, best-of-rounds; each partition is
  CRC-checked once at its first open, amortised across the query stream
  by the handle cache).  Gate: verification costs <= 5% of the sweep,
  or the run fails and the artifact is not written.
* **Degradation curve** — recall and coverage as a function of the
  partition loss rate under ``on_partition_failure="skip"``: the index
  is rebuilt per loss rate under a seeded :class:`FaultPlan` and queried
  against the exact ground truth, so the curve is *measured*, never
  simulated.
* **Retry recovery** — queries under transient-only chaos with the
  retry policy armed: answers must stay bit-identical to the unfaulted
  reference while ``dfs.retries`` absorbs the faults (wall-clock cost
  reported informationally).
* **Determinism + zero-fault parity** — hard correctness refusals, not
  measurements: the same chaos seed must reproduce identical answers and
  counters across two full runs, and a zero-rate fault plan (injector,
  retry loop and eager checksum verification all armed) must be
  bit-transparent against a plain build.  Either failing aborts the run
  before the artifact is written.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_resilience.py [--smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_common import bench_environment, record_rounds
from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.evaluation import exact_ground_truth
from repro.resilience import FaultPlan, RetryPolicy
from repro.storage import SimulatedDFS

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_fault_resilience.json"

CHECKSUM_GATE = 0.05        # eager-verify cold-read overhead ceiling (5%)
LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)
CHAOS_SEED = 20240808


def operating_point(smoke: bool):
    if smoke:
        dataset = random_walk_dataset(2_500, 64, seed=1)
        config = dict(
            word_length=8, n_pivots=48, prefix_length=6, capacity=120,
            sample_fraction=0.25, n_input_partitions=16, seed=7,
            min_centroid_separation=1,
        )
    else:
        dataset = random_walk_dataset(10_000, 96, seed=1)
        config = dict(
            word_length=12, n_pivots=96, prefix_length=6, capacity=150,
            sample_fraction=0.2, n_input_partitions=32, seed=7,
            min_centroid_separation=1,
        )
    return dataset, config


def _answers(index, queries, k, **kwargs):
    return [
        (tuple(int(i) for i in r.ids), tuple(round(float(d), 12)
                                             for d in r.distances))
        for r in index.knn_batch(queries, k, **kwargs)
    ]


# -- checksum overhead -------------------------------------------------------------


def measure_checksum_overhead(dataset, config_kwargs, k,
                              rounds: int, smoke: bool) -> dict:
    """Cold-start query sweeps: CRC verification vs no verification.

    Every round reopens the same checksummed on-disk store fresh (new
    ``SimulatedDFS``, new mmaps) with the partition-handle read cache
    enabled — the configuration a checksummed deployment runs — and
    pushes a query stream through it.  Each partition's sections are
    CRC-checked exactly once, at its first (cold) open, and that cost is
    amortised over every query the cached handle then serves; the
    verify-mode delta on the sweep wall is the overhead a deployment
    actually pays.  Gated on ``lazy`` (the default mode); ``eager`` and
    the bare uncached ``read_all()`` sweep — where CRC dominates because
    mapping zero-copy views does almost no other work, and every read
    re-verifies — are reported informationally.
    """
    sweep_queries = sample_queries(
        dataset, 150 if smoke else 400, seed=44
    ).values
    with tempfile.TemporaryDirectory() as tmp:
        dfs_dir = Path(tmp) / "dfs"
        build_dfs = SimulatedDFS(backing_dir=dfs_dir, checksums=True)
        config = ClimberConfig(**config_kwargs)
        index = ClimberIndex.build(dataset, config, dfs=build_dfs)
        blob = index.save_global_index()
        pids = build_dfs.list_partitions()

        def sweep(verify: str) -> float:
            dfs = SimulatedDFS(backing_dir=dfs_dir, verify=verify,
                               cache_bytes=1 << 30)
            dfs.attach()
            reopened = ClimberIndex.reopen(blob, dfs, config)
            t0 = time.perf_counter()
            reopened.knn_batch(sweep_queries, k)
            return time.perf_counter() - t0

        def raw_sweep(verify: str) -> float:
            dfs = SimulatedDFS(backing_dir=dfs_dir, verify=verify)
            dfs.attach()
            t0 = time.perf_counter()
            for pid in pids:
                dfs.read_partition(pid).read_all()
            return time.perf_counter() - t0

        walls = {"off": [], "lazy": [], "eager": []}
        raw_walls = {"off": [], "lazy": [], "eager": []}
        for mode in walls:            # one untimed warmup sweep per mode
            sweep(mode)
        for _ in range(rounds):
            for mode in walls:
                walls[mode].append(sweep(mode))
                raw_walls[mode].append(raw_sweep(mode))
    best = {mode: min(times) for mode, times in walls.items()}
    raw_best = {mode: min(times) for mode, times in raw_walls.items()}
    for mode, times in walls.items():
        record_rounds(f"resilience.cold_query.{mode}", times)
    return {
        "n_partitions": len(pids),
        "n_queries": len(sweep_queries),
        "rounds": rounds,
        "wall_s": best,
        "raw_read_wall_s": raw_best,
        "raw_read_overhead": raw_best["lazy"] / raw_best["off"] - 1.0,
        "overhead": best["lazy"] / best["off"] - 1.0,
        "eager_overhead": best["eager"] / best["off"] - 1.0,
        "gate": CHECKSUM_GATE,
    }


# -- degradation curve -------------------------------------------------------------


def measure_degradation_curve(dataset, config_kwargs, queries, k) -> list[dict]:
    """Recall and coverage vs loss rate under skip-mode degradation."""
    truth = exact_ground_truth(dataset, queries, k)
    curve = []
    for rate in LOSS_RATES:
        config = ClimberConfig(**config_kwargs, on_partition_failure="skip")
        index = ClimberIndex.build(dataset, config, dfs=SimulatedDFS(
            fault_plan=FaultPlan(seed=CHAOS_SEED, loss_rate=rate),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        ))
        results = index.knn_batch(queries.values, k)
        recalls, coverages = [], []
        degraded = 0
        for i, result in enumerate(results):
            recalls.append(truth.recall_of(i, result.ids))
            coverages.append(result.stats.coverage)
            degraded += result.stats.degraded
        lost = sum(
            index.dfs.fault_injector.plan.lost(
                index.dfs.engine.blob_name(pid)
            )
            for pid in index.dfs.list_partitions()
        )
        curve.append({
            "loss_rate": rate,
            "partitions_lost": int(lost),
            "n_partitions": len(index.dfs.list_partitions()),
            "recall": float(np.mean(recalls)),
            "coverage": float(np.mean(coverages)),
            "degraded_queries": int(degraded),
            "read_failures": index.dfs.counters.read_failures,
        })
        print(f"  loss_rate={rate:.2f}: {lost}/{curve[-1]['n_partitions']} "
              f"partitions lost, recall {curve[-1]['recall']:.3f}, "
              f"coverage {curve[-1]['coverage']:.3f}")
    return curve


# -- retry recovery ----------------------------------------------------------------


def measure_retry_recovery(dataset, config_kwargs, queries, k) -> dict:
    """Transient-only chaos: identical answers, absorbed by retries."""
    reference = ClimberIndex.build(dataset, ClimberConfig(**config_kwargs))
    ref_answers = _answers(reference, queries.values, k)
    t0 = time.perf_counter()
    _answers(reference, queries.values, k)
    clean_wall = time.perf_counter() - t0

    chaotic = ClimberIndex.build(
        dataset, ClimberConfig(**config_kwargs),
        dfs=SimulatedDFS(
            fault_plan=FaultPlan(seed=CHAOS_SEED, transient_rate=0.1),
            retry_policy=RetryPolicy(max_attempts=6, backoff_base_s=0.0005,
                                     jitter=0.5, seed=CHAOS_SEED),
        ),
    )
    t0 = time.perf_counter()
    chaos_answers = _answers(chaotic, queries.values, k)
    chaos_wall = time.perf_counter() - t0
    counters = chaotic.dfs.counters
    if chaos_answers != ref_answers:
        raise SystemExit(
            "retry recovery failed: answers under transient chaos differ "
            "from the unfaulted reference; results not written"
        )
    if counters.read_failures:
        raise SystemExit(
            f"retry recovery failed: {counters.read_failures} reads "
            f"exhausted the retry budget; results not written"
        )
    return {
        "transient_rate": 0.1,
        "retries": counters.retries,
        "read_failures": counters.read_failures,
        "clean_wall_s": clean_wall,
        "chaos_wall_s": chaos_wall,
        "slowdown": chaos_wall / clean_wall - 1.0 if clean_wall else 0.0,
        "answers_identical": True,
    }


# -- hard refusals -----------------------------------------------------------------


def check_zero_fault_parity(dataset, config_kwargs, queries, k) -> dict:
    """A zero-rate plan + eager verification must be bit-transparent."""
    plain = ClimberIndex.build(dataset, ClimberConfig(**config_kwargs))
    armed = ClimberIndex.build(
        dataset,
        ClimberConfig(**config_kwargs, on_partition_failure="skip"),
        dfs=SimulatedDFS(fault_plan=FaultPlan(seed=CHAOS_SEED),
                         verify="eager"),
    )
    ok = (
        _answers(plain, queries.values, k) == _answers(armed, queries.values, k)
        and dataclasses.asdict(plain.dfs.counters)
        == dataclasses.asdict(armed.dfs.counters)
    )
    if not ok:
        raise SystemExit(
            "zero-fault parity failed: an all-zero fault plan changed "
            "answers or counters; results not written"
        )
    return {"ok": True, "counters": dataclasses.asdict(armed.dfs.counters)}


def check_chaos_determinism(dataset, config_kwargs, queries, k) -> dict:
    """The same chaos seed must reproduce the run bit-for-bit, twice."""
    runs = []
    for _ in range(2):
        index = ClimberIndex.build(
            dataset,
            ClimberConfig(**config_kwargs, on_partition_failure="skip"),
            dfs=SimulatedDFS(
                fault_plan=FaultPlan(seed=CHAOS_SEED, transient_rate=0.1,
                                     loss_rate=0.1),
                retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            ),
        )
        answers = _answers(index, queries.values, k)
        failed = [
            tuple(r.stats.partitions_failed)
            for r in index.knn_batch(queries.values, k)
        ]
        runs.append((answers, failed, dataclasses.asdict(index.dfs.counters)))
    if runs[0] != runs[1]:
        raise SystemExit(
            "chaos determinism failed: two runs of the same fault seed "
            "disagree; results not written"
        )
    return {"ok": True, "seed": CHAOS_SEED}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI)")
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=None,
                        help="cold-read best-of rounds")
    args = parser.parse_args()

    dataset, config_kwargs = operating_point(args.smoke)
    n_queries = args.queries or (24 if args.smoke else 64)
    rounds = args.rounds or (5 if args.smoke else 9)
    queries = sample_queries(dataset, n_queries, seed=99)

    print("checksum overhead (cold-start query sweeps):")
    checksum = measure_checksum_overhead(dataset, config_kwargs, args.k,
                                         rounds, args.smoke)
    print(f"  off {1e3 * checksum['wall_s']['off']:.2f} ms, "
          f"lazy {1e3 * checksum['wall_s']['lazy']:.2f} ms "
          f"({100 * checksum['overhead']:+.2f}%), "
          f"eager {100 * checksum['eager_overhead']:+.2f}%; "
          f"raw uncached read sweep "
          f"{100 * checksum['raw_read_overhead']:+.1f}%")

    print("degradation curve (skip mode):")
    curve = measure_degradation_curve(dataset, config_kwargs, queries,
                                      args.k)

    print("retry recovery (transient chaos):")
    recovery = measure_retry_recovery(dataset, config_kwargs, queries,
                                      args.k)
    print(f"  {recovery['retries']} retries absorbed, answers identical, "
          f"slowdown {100 * recovery['slowdown']:+.1f}%")

    parity = check_zero_fault_parity(dataset, config_kwargs, queries,
                                     args.k)
    print("zero-fault parity: ok")
    determinism = check_chaos_determinism(dataset, config_kwargs, queries,
                                          args.k)
    print("chaos determinism: ok")

    if checksum["overhead"] > CHECKSUM_GATE:
        raise SystemExit(
            f"checksum gate failed: lazy verification costs "
            f"{100 * checksum['overhead']:+.2f}% on cold-start query "
            f"sweeps (> {100 * CHECKSUM_GATE:.0f}%); results not written"
        )

    payload = {
        "smoke": args.smoke,
        "environment": bench_environment(),
        "n_records": dataset.count,
        "n_queries": n_queries,
        "k": args.k,
        "chaos_seed": CHAOS_SEED,
        "checksum_overhead": checksum,
        "degradation_curve": curve,
        "retry_recovery": recovery,
        "zero_fault_parity": parity,
        "chaos_determinism": determinism,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
