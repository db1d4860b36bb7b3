#!/usr/bin/env python3
"""Quickstart: build a CLIMBER index and run approximate kNN queries.

Walks through the full public API in ~50 lines:

1. generate a data series dataset (the RandomWalk benchmark),
2. build the two-level pivot index (CLIMBER-INX) with telemetry on,
3. run approximate kNN queries with the three variants,
4. measure recall against exact ground truth,
5. inspect one query plan with ``explain_query`` and the accumulated
   build/query metrics with ``stats()``.

Run:  python examples/quickstart.py
"""

import json
from functools import partial

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.evaluation import (
    evaluate_system,
    exact_ground_truth,
    modeled_query_seconds,
    render_table,
)

K = 20


def main() -> None:
    # 1. A dataset of 8 000 z-normalised random-walk series, 64 points each.
    dataset = random_walk_dataset(8_000, 64, seed=7)
    print(f"dataset: {dataset.count} series of length {dataset.length} "
          f"({dataset.nbytes / 1e6:.1f} MB)")

    # 2. Build the index.  The paper's defaults are 200 pivots / prefix 10
    #    on terabyte data; we scale down proportionally.
    config = ClimberConfig(
        word_length=8,        # PAA segments (CLIMBER-FX step 1)
        n_pivots=32,          # pivot count r
        prefix_length=6,      # P4 signature length m
        capacity=400,         # partition capacity c, in records
        sample_fraction=0.2,  # construction sample (alpha)
        seed=1,
        telemetry=True,       # per-stage spans + query metrics (default off)
    )
    index = ClimberIndex.build(dataset, config)
    print(f"index: {index.n_groups} groups, {index.n_partitions} partitions, "
          f"global index {index.global_index_nbytes / 1024:.1f} KB")

    # 3 + 4. Query with each variant and score against exact ground truth.
    queries = sample_queries(dataset, 20, seed=3)
    truth = exact_ground_truth(dataset, queries, K)
    rows = []
    for variant in ("knn", "adaptive", "od-smallest"):
        ev = evaluate_system(
            f"CLIMBER-{variant}",
            lambda q, k, v=variant: index.knn(q, k, variant=v),
            queries,
            truth,
            K,
            # the table's query_sim_s column: the cost model, on demand
            modeled=partial(modeled_query_seconds, index),
        )
        rows.append(ev.row())
    print()
    print(render_table(f"approximate {K}-NN over {queries.count} queries", rows))

    # 5. EXPLAIN one query: per-stage wall timings, partitions probed,
    #    bytes read (each partition's stored size), cache hits/misses —
    #    plus the answer itself.
    plan = index.explain_query(queries.values[0], 5)
    print(f"\nfirst query -> ids {plan['ids']}, "
          f"distances {[round(d, 3) for d in plan['distances']]}")
    print(f"touched partitions: {plan['partitions']} "
          f"({plan['bytes_read']:,} bytes read)")
    stage_us = {name: f"{1e6 * s:.0f}us" for name, s in plan["stages"].items()}
    print(f"stage walls: {stage_us}")

    # Accumulated metrics: build spans and the queries run above (recall
    # evaluation included) all landed in the index registry.
    stats = index.stats()
    query_hist = stats["metrics"]["histograms"]["query.wall_s"]
    print(f"\n{query_hist['count']} queries recorded, "
          f"p50 {1e6 * query_hist['p50']:.0f}us, "
          f"p99 {1e6 * query_hist['p99']:.0f}us")
    print("dfs counters:", json.dumps(stats["dfs"]))


if __name__ == "__main__":
    main()
