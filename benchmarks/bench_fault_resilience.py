"""Fault-resilience benchmark: degradation curve, recovery, determinism.

The PR-8 acceptance suite, in one artifact (``BENCH_fault_resilience.json``):

* **Degradation curve** — recall and coverage as a function of the
  partition loss rate under ``on_partition_failure="skip"``: the index
  is rebuilt per loss rate under a seeded :class:`FaultPlan` and queried
  against the exact ground truth, so the curve is *measured*, never
  simulated.
* **Retry recovery** — queries under transient-only and under
  bit-flip-only chaos with the retry policy armed: answers must stay
  bit-identical to the unfaulted reference while ``dfs.retries`` absorbs
  the faults and no read fails (wall-clock cost reported
  informationally).  A flip is caught by the partition checksums every
  open checks, so it is retried like a transient error (DESIGN.md D8,
  D12).
* **Determinism + zero-fault parity** — hard correctness refusals, not
  measurements: the same chaos seed must reproduce identical answers and
  counters across two full runs, and a zero-rate fault plan (injector,
  retry loop and checksum verification all armed) must be
  bit-transparent against a plain build.  Either failing aborts the run
  before the artifact is written.

Checksums have no off switch to race against (DESIGN.md D8): their cost
is part of every open the end-to-end benchmark (``benchmarks/e2e``)
times.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_resilience.py [--smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from bench_common import bench_environment
from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.evaluation import exact_ground_truth
from repro.resilience import FaultPlan, RetryPolicy
from repro.storage import SimulatedDFS

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_fault_resilience.json"

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


#: The faults retry recovery runs under, one kind at a time.
RECOVERY_FAULTS = {"transient": {"transient_rate": 0.1},
                   "bit_flip": {"bit_flip_rate": 0.1}}


def measure_retry_recovery(dataset, config_kwargs, queries, k) -> dict:
    """Transient-only and bit-flip-only chaos: identical answers, no
    failed read, absorbed by retries."""
    reference = ClimberIndex.build(dataset, ClimberConfig(**config_kwargs))
    ref_answers = _answers(reference, queries.values, k)
    t0 = time.perf_counter()
    _answers(reference, queries.values, k)
    clean_wall = time.perf_counter() - t0

    recovery = {}
    for kind, rates in RECOVERY_FAULTS.items():
        chaotic = ClimberIndex.build(
            dataset, ClimberConfig(**config_kwargs),
            dfs=SimulatedDFS(
                fault_plan=FaultPlan(seed=CHAOS_SEED, **rates),
                retry_policy=RetryPolicy(max_attempts=6,
                                         backoff_base_s=0.0005,
                                         jitter=0.5, seed=CHAOS_SEED),
            ),
        )
        t0 = time.perf_counter()
        chaos_answers = _answers(chaotic, queries.values, k)
        chaos_wall = time.perf_counter() - t0
        counters = chaotic.dfs.counters
        if chaos_answers != ref_answers:
            raise SystemExit(
                f"retry recovery failed: answers under {kind} chaos differ "
                f"from the unfaulted reference; results not written"
            )
        if counters.read_failures:
            raise SystemExit(
                f"retry recovery failed: {counters.read_failures} reads "
                f"under {kind} chaos exhausted the retry budget; results "
                f"not written"
            )
        recovery[kind] = {
            **rates,
            "retries": counters.retries,
            "corruption_detected": counters.corruption_detected,
            "read_failures": counters.read_failures,
            "clean_wall_s": clean_wall,
            "chaos_wall_s": chaos_wall,
            "slowdown": chaos_wall / clean_wall - 1.0 if clean_wall else 0.0,
            "answers_identical": True,
        }
    return recovery


# -- hard refusals -----------------------------------------------------------------


def check_zero_fault_parity(dataset, config_kwargs, queries, k) -> dict:
    """A zero-rate plan, injector and retry loop armed, must be
    bit-transparent."""
    plain = ClimberIndex.build(dataset, ClimberConfig(**config_kwargs))
    armed = ClimberIndex.build(
        dataset,
        ClimberConfig(**config_kwargs, on_partition_failure="skip"),
        dfs=SimulatedDFS(fault_plan=FaultPlan(seed=CHAOS_SEED)),
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
    args = parser.parse_args()

    dataset, config_kwargs = operating_point(args.smoke)
    n_queries = args.queries or (24 if args.smoke else 64)
    queries = sample_queries(dataset, n_queries, seed=99)

    print("degradation curve (skip mode):")
    curve = measure_degradation_curve(dataset, config_kwargs, queries,
                                      args.k)

    print("retry recovery (transient and bit-flip chaos):")
    recovery = measure_retry_recovery(dataset, config_kwargs, queries,
                                      args.k)
    for kind, run in recovery.items():
        print(f"  {kind}: {run['retries']} retries absorbed, answers "
              f"identical, slowdown {100 * run['slowdown']:+.1f}%")

    parity = check_zero_fault_parity(dataset, config_kwargs, queries,
                                     args.k)
    print("zero-fault parity: ok")
    determinism = check_chaos_determinism(dataset, config_kwargs, queries,
                                          args.k)
    print("chaos determinism: ok")

    payload = {
        "smoke": args.smoke,
        "environment": bench_environment(),
        "n_records": dataset.count,
        "n_queries": n_queries,
        "k": args.k,
        "chaos_seed": CHAOS_SEED,
        "degradation_curve": curve,
        "retry_recovery": recovery,
        "zero_fault_parity": parity,
        "chaos_determinism": determinism,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
