"""Progressive kNN acceptance benchmark (``BENCH_progressive.json``).

The PR-10 acceptance suite, in one artifact:

* **Parity gate** — a progressive walk with stopping disabled must land
  on the bit-identical answer :meth:`~repro.core.ClimberIndex.knn`
  returns, across worker counts (1/2/4).
  Any divergence refuses the artifact (``SystemExit``) — the curve below
  is only meaningful if "run to completion" is exact.
* **Recall-vs-partitions-visited curve** — replay the full progressive
  trajectory against exact ground truth and record mean recall@k after
  each visited partition, per dataset family.  The tracked floor:
  recall@10 >= 0.40 must be reachable *before* full coverage on at least
  one family, otherwise early stopping has no budget to save and the
  artifact is refused.
* **Stop-rule operating points** — the served quality of the
  ``streak:1`` / ``streak:2`` rules: mean visited fraction, early-stop
  rate, and realised recall.
* **Drain-overhead gate** — a progressive answer is only worth streaming
  if draining it costs about what the one-shot search costs: on the same
  ``od-smallest`` plans, a drained ``knn_progressive(early_stop="off")``
  may take at most 1.5x the wall of exhaustive ``knn`` (median over
  queries of interleaved best-of rounds), per family, or the artifact is
  refused.

Usage::

    PYTHONPATH=src python benchmarks/bench_progressive.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from bench_common import bench_environment
from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import make_dataset, sample_queries
from repro.evaluation import exact_ground_truth

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_progressive.json"

RECALL_FLOOR = 0.40         # recall@10 reachable before full coverage
PARITY_WORKERS = (1, 2, 4)
STOP_SPECS = ("streak:1", "streak:2")
DRAIN_OVERHEAD_CEILING = 1.5  # drained progressive wall / exhaustive knn wall
DRAIN_ROUNDS = 7
#: Curve + operating points use od-smallest: its promise-ordered plans
#: are the deepest of the three variants, so it is where progressive
#: delivery actually has partitions to forgo.
CURVE_VARIANT = "od-smallest"


def operating_point(smoke: bool):
    if smoke:
        families = ("RandomWalk", "EEG")
        n_records, length, n_queries = 2_500, 64, 16
        config = dict(
            word_length=8, n_pivots=48, prefix_length=6, capacity=120,
            sample_fraction=0.25, n_input_partitions=16, seed=7,
            min_centroid_separation=1,
        )
    else:
        families = ("RandomWalk", "TexMex", "EEG")
        n_records, length, n_queries = 10_000, 96, 40
        config = dict(
            word_length=12, n_pivots=96, prefix_length=6, capacity=150,
            sample_fraction=0.2, n_input_partitions=32, seed=7,
            min_centroid_separation=1,
        )
    return families, n_records, length, n_queries, config


def _final(index, query, k, **kwargs):
    for update in index.knn_progressive(query, k, **kwargs):
        last = update
    return last


def _fingerprint(ids, distances):
    return (
        tuple(int(i) for i in ids),
        tuple(float(d) for d in distances),  # exact bits, no rounding
    )


# ---------------------------------------------------------------------------
# Parity gate
# ---------------------------------------------------------------------------

def check_parity(dataset, config_kwargs, queries, k) -> dict:
    """knn vs full-coverage progressive, twin builds per cell.

    Raises ``SystemExit`` (refusing the artifact) on the first divergent
    cell: differing ids/distance bits, stats, or logical DFS charges.
    """
    cells = []
    for workers in PARITY_WORKERS:
        cfg = ClimberConfig(n_workers=workers, **config_kwargs)
        reference = ClimberIndex.build(dataset, cfg)
        progressive = ClimberIndex.build(dataset, cfg)
        for i, q in enumerate(queries.values):
            ref = reference.knn(q, k)
            got = _final(progressive, q, k, early_stop="off")
            if _fingerprint(ref.ids, ref.distances) != _fingerprint(
                got.ids, got.distances
            ) or got.stopped_early:
                raise SystemExit(
                    f"parity gate failed: progressive(off) diverged "
                    f"from knn on query {i} (n_workers={workers}); "
                    f"results not written"
                )
            if (ref.stats.partitions_loaded
                    != got.stats.partitions_loaded
                    or ref.stats.records_examined
                    != got.stats.records_examined):
                raise SystemExit(
                    f"parity gate failed: progressive(off) charged "
                    f"different work than knn on query {i} "
                    f"(n_workers={workers}); results not written"
                )
        if (reference.dfs.counters.partitions_read
                != progressive.dfs.counters.partitions_read
                or reference.dfs.counters.bytes_read
                != progressive.dfs.counters.bytes_read):
            raise SystemExit(
                f"parity gate failed: DFS counters diverged "
                f"(n_workers={workers}); results not written"
            )
        cells.append({
            "n_workers": workers,
            "n_queries": int(queries.count),
            "identical": True,
        })
    return {"cells": cells, "ok": True}


# ---------------------------------------------------------------------------
# Recall-vs-partitions-visited curve
# ---------------------------------------------------------------------------

def recall_curve(index, queries, truth, k, variant) -> list[dict]:
    """Mean recall@k after each visited partition, full trajectories.

    Queries whose plan is shorter than ``visited`` contribute their final
    (full-coverage) recall — the curve is monotone in expectation and
    ends at the non-progressive recall.
    """
    per_query = []
    for qi, q in enumerate(queries.values):
        exact = set(int(i) for i in truth.neighbors_of(qi)[:k])
        steps = []
        for update in index.knn_progressive(q, k, variant=variant,
                                            early_stop="off"):
            if update.done:
                break
            got = set(int(i) for i in update.ids[:k])
            steps.append((update.partitions_visited,
                          len(got & exact) / max(1, len(exact))))
        per_query.append(steps)

    max_visits = max(len(s) for s in per_query)
    curve = []
    for visited in range(1, max_visits + 1):
        recalls = [
            steps[min(visited, len(steps)) - 1][1] for steps in per_query
        ]
        still_walking = sum(1 for s in per_query if len(s) >= visited)
        curve.append({
            "partitions_visited": visited,
            "mean_recall": float(np.mean(recalls)),
            "queries_still_walking": still_walking,
        })
    return curve


def floor_reached_before_full_coverage(curve) -> bool:
    """The tracked recall floor, strictly before the last curve point."""
    return any(
        point["mean_recall"] >= RECALL_FLOOR
        for point in curve[:-1]
    )


# ---------------------------------------------------------------------------
# Early-stop operating points
# ---------------------------------------------------------------------------

def stop_operating_points(index, queries, truth, k, variant) -> list[dict]:
    points = []
    for spec in STOP_SPECS:
        finals = [
            _final(index, q, k, variant=variant, early_stop=spec)
            for q in queries.values
        ]
        recalls = []
        for qi, final in enumerate(finals):
            exact = set(int(i) for i in truth.neighbors_of(qi)[:k])
            got = set(int(i) for i in final.ids[:k])
            recalls.append(len(got & exact) / max(1, len(exact)))
        points.append({
            "early_stop": spec,
            "mean_recall": float(np.mean(recalls)),
            "mean_visited_fraction": float(np.mean(
                [f.visited_fraction for f in finals]
            )),
            "early_stop_rate": float(np.mean(
                [f.stopped_early for f in finals]
            )),
            "mean_partitions_forgone": float(np.mean(
                [len(f.partitions_forgone) for f in finals]
            )),
        })
    return points


# ---------------------------------------------------------------------------
# Drain-overhead gate
# ---------------------------------------------------------------------------

def drain_overhead_ratio(index, queries, k, variant) -> float:
    """Median over queries of drained-progressive wall / exhaustive wall.

    Each query's two walls are its best of ``DRAIN_ROUNDS`` rounds, the
    two calls alternating inside every round so the host's drift and the
    DFS cache treat both alike.
    """
    exhaustive = np.full(queries.count, np.inf)
    drained = np.full(queries.count, np.inf)
    for _ in range(DRAIN_ROUNDS):
        for qi, q in enumerate(queries.values):
            t0 = time.perf_counter()
            index.knn(q, k, variant=variant)
            t1 = time.perf_counter()
            _final(index, q, k, variant=variant, early_stop="off")
            t2 = time.perf_counter()
            exhaustive[qi] = min(exhaustive[qi], t1 - t0)
            drained[qi] = min(drained[qi], t2 - t1)
    return float(np.median(drained / exhaustive))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI)")
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args()

    families, n_records, length, n_queries, config_kwargs = (
        operating_point(args.smoke)
    )

    # Parity gate first: the cheapest family guards every artifact field.
    parity_dataset = make_dataset(families[0], n_records, length=length,
                                  seed=1)
    parity_queries = sample_queries(parity_dataset, max(8, n_queries // 2),
                                    seed=99)
    print(f"parity gate ({len(PARITY_WORKERS)} worker counts, "
          f"{parity_queries.count} queries each):")
    parity = check_parity(parity_dataset, config_kwargs, parity_queries,
                          args.k)
    print("  progressive(off) == knn in every cell")

    per_family = []
    floor_families = []
    for family in families:
        dataset = make_dataset(family, n_records, length=length, seed=1)
        queries = sample_queries(dataset, n_queries, seed=99)
        truth = exact_ground_truth(dataset, queries, args.k)
        index = ClimberIndex.build(
            dataset, ClimberConfig(**config_kwargs)
        )
        curve = recall_curve(index, queries, truth, args.k, CURVE_VARIANT)
        reached = floor_reached_before_full_coverage(curve)
        if reached:
            floor_families.append(family)
        points = stop_operating_points(index, queries, truth, args.k,
                                       CURVE_VARIANT)
        overhead = drain_overhead_ratio(index, queries, args.k,
                                        CURVE_VARIANT)
        if overhead > DRAIN_OVERHEAD_CEILING:
            raise SystemExit(
                f"drain-overhead gate failed: drained progressive costs "
                f"{overhead:.2f}x exhaustive knn on {family} "
                f"(ceiling {DRAIN_OVERHEAD_CEILING}); results not written"
            )
        per_family.append({
            "family": family,
            "recall_vs_partitions_visited": curve,
            "floor_before_full_coverage": reached,
            "operating_points": points,
            "drain_overhead_ratio": overhead,
        })
        head = ", ".join(
            f"{p['partitions_visited']}:{p['mean_recall']:.2f}"
            for p in curve[:6]
        )
        print(f"  {family}: recall@{args.k} by visit [{head} ...] "
              f"floor>={RECALL_FLOOR:.2f} before full coverage: "
              f"{'yes' if reached else 'no'}")
        for p in points:
            print(f"    {p['early_stop']}: recall {p['mean_recall']:.3f} "
                  f"at {100 * p['mean_visited_fraction']:.0f}% visited "
                  f"(stop rate {100 * p['early_stop_rate']:.0f}%)")
        print(f"    drained progressive / exhaustive knn wall: "
              f"{overhead:.2f}x (ceiling {DRAIN_OVERHEAD_CEILING})")

    if not floor_families:
        raise SystemExit(
            f"recall floor gate failed: recall@{args.k} never reached "
            f"{RECALL_FLOOR} before full coverage on any of "
            f"{', '.join(families)}; results not written"
        )

    payload = {
        "smoke": args.smoke,
        "environment": bench_environment(),
        "n_records": n_records,
        "n_queries": n_queries,
        "k": args.k,
        "recall_floor": RECALL_FLOOR,
        "recall_floor_families": floor_families,
        "drain_overhead_ceiling": DRAIN_OVERHEAD_CEILING,
        "parity": parity,
        "families": per_family,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
