#!/usr/bin/env python3
"""Scalability study: CLIMBER vs a full scan as the data grows.

Demonstrates the cluster cost model: the same scaled-down experiment is
declared at increasing paper-scale dataset sizes (via ``cost_scale``), and
the simulated times reproduce the paper's headline trade-off — the exact
scan grows linearly into minutes while the index keeps answering in
seconds at 80%ish recall (Fig. 7(c,d) in miniature).

Run:  python examples/scalability_study.py
"""

from functools import partial

from repro.baselines import DssScanner
from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.evaluation import (
    evaluate_system,
    exact_ground_truth,
    modeled_build_seconds,
    modeled_query_seconds,
    render_table,
)

K = 20
SCALED_COUNT = 6_000
LENGTH = 64
BLOCK = 64 * 1024 * 1024


def main() -> None:
    dataset = random_walk_dataset(SCALED_COUNT, LENGTH, seed=13)
    queries = sample_queries(dataset, 10, seed=4)
    truth = exact_ground_truth(dataset, queries, K)

    rows = []
    for size_gb in (200, 400, 600):
        # cost_scale maps our scaled bytes onto `size_gb` of paper-scale data.
        cost_scale = size_gb * 1e9 / dataset.nbytes
        index = ClimberIndex.build(
            dataset,
            ClimberConfig(word_length=8, n_pivots=32, prefix_length=6,
                          capacity=300, sample_fraction=0.2, seed=1,
                          n_input_partitions=128,  # paper data arrives in many HDFS blocks
                          cost_scale=cost_scale, sim_partition_bytes=BLOCK),
        )
        dss = DssScanner.build(dataset, n_partitions=32, cost_scale=cost_scale)
        ev_climber = evaluate_system(
            "CLIMBER", lambda q, k: index.knn(q, k), queries, truth, K,
            modeled=partial(modeled_query_seconds, index),
        )
        ev_dss = evaluate_system("Dss", dss.knn, queries, truth, K)
        rows.append({
            "size": f"{size_gb}GB",
            "climber_recall": round(ev_climber.recall, 2),
            "climber_query_s": round(ev_climber.sim_seconds, 1),
            "dss_recall": round(ev_dss.recall, 2),
            "dss_query_s": round(ev_dss.sim_seconds, 1),
            "build_min": round(
                sum(modeled_build_seconds(index).values()) / 60, 1),
        })
    print(render_table(
        "simulated paper-scale behaviour (times from the cluster cost model)",
        rows,
    ))
    print("\nNote: recall is measured for real on the scaled dataset; "
          "times are the calibrated simulator's output (see DESIGN.md §1).")


if __name__ == "__main__":
    main()
