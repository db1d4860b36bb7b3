"""Observability overhead benchmark: telemetry disabled vs absent vs enabled.

The gate: disabled telemetry must cost <= 2% on the query microbench.
Four modes run the identical single-query ``knn`` workload against the
same disk-backed index:

* **absent** — the index holds the shared ``NULL_TELEMETRY`` singleton,
  the closest runnable stand-in for "the instrumentation does not exist"
  (the gated hot-path sites still execute their one attribute lookup —
  that lookup *is* the claimed disabled cost, so it belongs in both
  sides of the gate's denominator);
* **disabled** — a fresh ``Telemetry(enabled=False)`` with its own
  registry, the out-of-the-box configuration;
* **sampled** — ``Telemetry(enabled=True, sample_every=16)``:
  ``record_query`` folds 1 query record in 16 into the registry, the
  rest pay one counter increment.  Recorded, not gated: one folded
  record in 16 already costs a sixteenth of enabled's overhead, so its
  budget belongs with the always-on telemetry cost, not with this gate;
* **enabled** — ``Telemetry(enabled=True)``: every query record folded
  into the stage histograms and counters (reported informationally, not
  gated).

Every query fills its record — stage clocks, cache hits and misses on
``QueryStats`` — in all four modes, so those clocks are on both sides of
every ratio here; what they cost is measured in DESIGN.md D15.

Modes are interleaved round-by-round, in an order rotated every round so
that no mode always runs first.  A mode's overhead is the median over
rounds of its wall divided by ``absent``'s wall *in the same round*: the
two walls of a pair ran moments apart, so host drift cancels inside each
ratio, and the median ignores the rounds a stall hit, where a ratio of
two best-of walls compares two single extreme rounds.  The run fails
(and refuses to write the artifact) if the disabled mode's overhead
exceeds the gate — this is the CI overhead smoke.  A sample
``explain_query`` response (single and batch) is written to
``results/explain_query_sample.json`` for the workflow artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_common import RESULTS_DIR, bench_environment
from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.obs import NULL_TELEMETRY, OBS_SCHEMA, Telemetry
from repro.storage import SimulatedDFS

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_obs_overhead.json"
SAMPLE_PATH = RESULTS_DIR / "explain_query_sample.json"

OVERHEAD_GATE = 0.02  # disabled-mode overhead ceiling (2%)
SAMPLE_EVERY = 16     # sampled-mode fold rate (1 in N query records)


def operating_point(smoke: bool):
    if smoke:
        dataset = random_walk_dataset(2_500, 64, seed=1)
        config = ClimberConfig(
            word_length=8, n_pivots=48, prefix_length=6, capacity=120,
            sample_fraction=0.25, n_input_partitions=16, seed=7,
            min_centroid_separation=1,
        )
    else:
        dataset = random_walk_dataset(10_000, 96, seed=1)
        config = ClimberConfig(
            word_length=12, n_pivots=96, prefix_length=6, capacity=150,
            sample_fraction=0.2, n_input_partitions=32, seed=7,
            min_centroid_separation=1,
        )
    return dataset, config


def measure_modes(blob: bytes, config: ClimberConfig, dfs_dir: Path,
                  queries, k: int, rounds: int) -> dict:
    """Interleaved query walls of the four modes over ``rounds`` rounds.

    Each mode gets its own reopened index over the same partitions (so
    RNG streams and caches are mode-private), and every round runs the
    modes back-to-back, starting one mode later than the round before —
    drift on the host moves all four together, and no mode always pays
    for running first.  ``*_overhead`` is the median of the per-round
    ratios to ``absent`` minus one; ``wall_s`` is each mode's best round.
    """

    def reopen(telemetry: Telemetry) -> ClimberIndex:
        dfs = SimulatedDFS(backing_dir=dfs_dir)
        dfs.attach()
        index = ClimberIndex.reopen(blob, dfs, config)
        index.telemetry = telemetry
        return index

    modes = {
        "absent": reopen(NULL_TELEMETRY),
        "disabled": reopen(Telemetry(enabled=False)),
        "sampled": reopen(Telemetry(enabled=True,
                                    sample_every=SAMPLE_EVERY)),
        "enabled": reopen(Telemetry(enabled=True)),
    }
    walls = {name: [] for name in modes}
    # One untimed warmup sweep per mode (page cache, routing tables).
    for index in modes.values():
        for q in queries:
            index.knn(q, k)
    names = list(modes)
    for round_no in range(rounds):
        shift = round_no % len(names)
        for name in names[shift:] + names[:shift]:
            index = modes[name]
            t0 = time.perf_counter()
            for q in queries:
                index.knn(q, k)
            walls[name].append(time.perf_counter() - t0)
    best = {name: min(series) for name, series in walls.items()}
    absent = np.array(walls["absent"])

    def overhead(name: str) -> float:
        return float(np.median(np.array(walls[name]) / absent)) - 1.0

    n = len(queries)
    enabled_metrics = modes["enabled"].stats()["metrics"]
    return {
        "n_queries": n,
        "k": k,
        "rounds": rounds,
        "wall_s": best,
        "us_per_query": {m: 1e6 * s / n for m, s in best.items()},
        "qps": {m: n / s for m, s in best.items()},
        "sample_every": SAMPLE_EVERY,
        "disabled_overhead": overhead("disabled"),
        "sampled_overhead": overhead("sampled"),
        "enabled_overhead": overhead("enabled"),
        "enabled_query_metrics": enabled_metrics,
        "sampled_query_metrics": modes["sampled"].stats()["metrics"],
    }


def write_explain_sample(blob: bytes, config: ClimberConfig, dfs_dir: Path,
                         queries, k: int) -> dict:
    """Sample explain_query responses (single + batch) for the artifact."""
    dfs = SimulatedDFS(backing_dir=dfs_dir)
    dfs.attach()
    index = ClimberIndex.reopen(blob, dfs, config)
    sample = {
        "schema": OBS_SCHEMA,
        "knn": index.explain_query(queries[0], k),
        "knn_batch": index.explain_query(queries[:4], k),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    SAMPLE_PATH.write_text(json.dumps(sample, indent=2) + "\n")
    print(f"wrote {SAMPLE_PATH}")
    return sample


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI)")
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=None,
                        help="interleaved rounds")
    args = parser.parse_args()

    dataset, config = operating_point(args.smoke)
    # The smoke gates a 2% difference between two modes that run the same
    # code, on hosts whose speed drifts by tens of percent over seconds:
    # many short rounds give the median many pairs to vote.
    n_queries = args.queries or (64 if args.smoke else 100)
    rounds = args.rounds or (121 if args.smoke else 61)

    with tempfile.TemporaryDirectory() as tmp:
        dfs_dir = Path(tmp) / "dfs"
        dfs = SimulatedDFS(backing_dir=dfs_dir)
        index = ClimberIndex.build(dataset, config, dfs=dfs)
        print(f"built: {index.n_groups} groups, {index.n_partitions} "
              f"partitions, {dataset.count} records")
        blob = index.save_global_index()
        queries = sample_queries(dataset, n_queries, seed=99).values

        overhead = measure_modes(blob, config, dfs_dir, queries, args.k,
                                 rounds)
        write_explain_sample(blob, config, dfs_dir, queries, args.k)

    print(f"query wall (best of {rounds} rounds, {n_queries} queries; "
          f"overhead = median paired ratio to absent): "
          f"absent {overhead['us_per_query']['absent']:.1f} us/q, "
          f"disabled {overhead['us_per_query']['disabled']:.1f} us/q "
          f"({100 * overhead['disabled_overhead']:+.2f}%), "
          f"sampled(1/{SAMPLE_EVERY}) "
          f"{overhead['us_per_query']['sampled']:.1f} us/q "
          f"({100 * overhead['sampled_overhead']:+.2f}%), "
          f"enabled {overhead['us_per_query']['enabled']:.1f} us/q "
          f"({100 * overhead['enabled_overhead']:+.2f}%)")

    payload = {
        "smoke": args.smoke,
        "environment": bench_environment(),
        "n_records": dataset.count,
        "n_groups": index.n_groups,
        "n_partitions": index.n_partitions,
        "overhead_gate": OVERHEAD_GATE,
        "overhead": overhead,
    }
    # The gate gates the artifact too: an over-budget disabled mode is a
    # regression, and its numbers must never overwrite committed results.
    if overhead["disabled_overhead"] > OVERHEAD_GATE:
        raise SystemExit(
            f"overhead gate failed: disabled telemetry costs "
            f"{100 * overhead['disabled_overhead']:+.2f}% "
            f"(> {100 * OVERHEAD_GATE:.0f}%); results not written"
        )
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
