"""Experiment harness shared by every benchmark.

Runs a query workload through any system exposing ``knn(query, k)`` and
aggregates the paper's metrics: recall, simulated query time, partitions
touched, and data accessed.  Every benchmark file builds on this so its
body reads like the experiment description in the paper.

Simulated time is a *model*, labelled as one and kept off every measured
path: neither a CLIMBER index nor its answers carry a modelled clock;
:func:`modeled_build_seconds` and :func:`modeled_query_seconds` compute
one from what the index and an answer's stats count, on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster import (
    ClusterSimulator,
    TaskCost,
    ops_paa,
    ops_signature,
    partition_scan_cost,
)
from repro.core.skeleton import partition_name
from repro.evaluation.groundtruth import GroundTruth
from repro.series import SeriesDataset, series_nbytes

__all__ = ["SystemEvaluation", "evaluate_system", "modeled_build_seconds",
           "modeled_query_seconds"]

KnnFn = Callable[[np.ndarray, int], object]


def modeled_query_seconds(index, stats) -> float:
    """Seconds the cost model gives one answered CLIMBER query at paper scale.

    A pure function of ``stats.partitions_loaded``, the DFS header
    metadata kept per partition name (no payload is read and no logical
    counter charged), ``index.model`` and the config: the driver-side
    routing — one query signature plus a linear scan of the group list,
    independent of the data volume and so not scaled by ``cost_scale`` —
    plus one ``query/scan`` stage over the partitions the query loaded.
    """
    cfg = index.config
    dfs = index.dfs
    route = index.model.task_time(TaskCost(cpu_ops=int(
        ops_signature(cfg.n_pivots, cfg.word_length, cfg.prefix_length)
        + index.n_groups * cfg.prefix_length * 8
    )))
    scan = ClusterSimulator(index.model).run_stage("query/scan", [
        partition_scan_cost(
            dfs.partition_nbytes(name), dfs.record_count(name),
            dfs.series_length(name), cfg.cost_scale, cfg.sim_partition_bytes,
        )
        for name in stats.partitions_loaded
    ])
    return route + scan.sim_seconds


def modeled_build_seconds(index) -> dict[str, float]:
    """Seconds the cost model gives the build of a CLIMBER index at paper
    scale, per construction phase (Fig. 10(a); the sum is Fig. 8(a)/(c)).

    Replays the seven stages of the paper's workflow (Fig. 6) in build
    order — Step 1's sample read and conversion, Step 2's centroid scan
    and Step 3's assembly on the driver, the Step-4 broadcast, full-data
    conversion, shuffle and partition writes — from counts only: the
    skeleton's three sample counts, the base partitions the DFS header
    metadata lists (records, stored bytes and how many; an ``append``'s
    deltas are not the build's), the group count and the global index's
    size.  ``index.model``, ``cost_scale`` and the input partitioning
    come from the index and its config, as in
    :func:`modeled_query_seconds`, so a reopened index models the build
    that made it.
    """
    cfg = index.config
    skeleton = index.skeleton
    dfs = index.dfs
    scale = cfg.cost_scale
    m = cfg.prefix_length
    record_bytes = series_nbytes(skeleton.series_length)
    sig_ops = ops_paa(skeleton.series_length) + ops_signature(
        cfg.n_pivots, cfg.word_length, m)
    base = [name for name in map(partition_name, range(skeleton.n_partitions))
            if dfs.has_partition(name)]
    records = sum(dfs.record_count(name) for name in base)
    data_bytes = records * record_bytes
    chunks = min(cfg.n_input_partitions, records)
    sampled = skeleton.sample_records

    sim = ClusterSimulator(index.model)
    sim.run_scaled_stage("build/skeleton/sample", TaskCost(
        read_bytes=int(sampled * record_bytes * scale),
        cpu_ops=int(sampled * sig_ops * scale),
    ), min_tasks=max(1, round(cfg.sample_fraction * chunks)))
    # Driver-side work grows with the distinct signatures, not the data
    # volume, so it is not scaled by cost_scale.
    sim.run_driver_step("build/skeleton/centroids", TaskCost(
        cpu_ops=skeleton.sample_pivot_sets * max(1, index.n_groups - 1) * m))
    sim.run_driver_step("build/skeleton/assemble", TaskCost(
        cpu_ops=skeleton.sample_signatures * m * 8))
    sim.broadcast("build/redistribute/broadcast", index.global_index_nbytes)
    sim.run_scaled_stage("build/convert", TaskCost(
        read_bytes=int(data_bytes * scale),
        cpu_ops=int(records * sig_ops * scale),
    ), min_tasks=chunks)
    sim.run_scaled_stage("build/redistribute/shuffle", TaskCost(
        shuffle_bytes=int(data_bytes * scale)), min_tasks=chunks)
    sim.run_scaled_stage("build/redistribute/write", TaskCost(
        write_bytes=int(sum(dfs.partition_nbytes(name) for name in base)
                        * scale)), min_tasks=len(base))
    return {
        phase: sim.report.seconds_for(f"build/{stage}")
        for phase, stage in (("skeleton", "skeleton"),
                             ("conversion", "convert"),
                             ("redistribution", "redistribute"))
    }


@dataclass(frozen=True)
class SystemEvaluation:
    """Aggregated query metrics of one system on one workload."""

    system: str
    k: int
    n_queries: int
    recall: float
    sim_seconds: float
    wall_seconds: float
    partitions: float
    records_examined: float
    data_bytes: float

    def row(self) -> dict[str, object]:
        """Flat dict for table rendering / CSV export."""
        return {
            "system": self.system,
            "k": self.k,
            "recall": round(self.recall, 3),
            "query_sim_s": round(self.sim_seconds, 2),
            "partitions": round(self.partitions, 2),
            "records": int(self.records_examined),
            "data_mb": round(self.data_bytes / 1e6, 2),
        }


def evaluate_system(
    name: str,
    knn_fn: KnnFn,
    queries: SeriesDataset,
    truth: GroundTruth,
    k: int,
    modeled: Callable[[object], float] | None = None,
) -> SystemEvaluation:
    """Run every query, compare to ground truth, average the metrics.

    ``knn_fn`` must return an object with ``ids`` and ``stats`` attributes
    (both :class:`~repro.core.index.QueryResult` and
    :class:`~repro.baselines.common.BaselineResult` qualify).  ``modeled``
    maps a result's ``stats`` to its modelled seconds, for a system whose
    stats carry no ``sim_seconds`` — for a :class:`ClimberIndex`,
    ``functools.partial(modeled_query_seconds, index)``; without either,
    ``sim_seconds`` averages to NaN.
    """
    recalls, sims, walls, parts, recs, data = [], [], [], [], [], []
    for qi, q in enumerate(queries.values):
        res = knn_fn(q, k)
        recalls.append(truth.recall_of(qi, res.ids))
        sims.append(
            modeled(res.stats) if modeled is not None
            else getattr(res.stats, "sim_seconds", float("nan"))
        )
        walls.append(res.stats.wall_seconds)
        parts.append(res.stats.n_partitions)
        recs.append(res.stats.records_examined)
        data.append(res.stats.data_bytes)
    return SystemEvaluation(
        system=name,
        k=k,
        n_queries=queries.count,
        recall=float(np.mean(recalls)),
        sim_seconds=float(np.mean(sims)),
        wall_seconds=float(np.mean(walls)),
        partitions=float(np.mean(parts)),
        records_examined=float(np.mean(recs)),
        data_bytes=float(np.mean(data)),
    )
