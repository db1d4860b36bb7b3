"""Shared result types and build-cost helpers for the baseline systems.

All baselines answer queries with the same result shape so the evaluation
harness can treat CLIMBER and every comparator uniformly, and all
*distributed* baselines (Dss, DPiSAX, TARDIS) account their construction
with the same staged cost structure as CLIMBER's builder — only the
per-record CPU work differs, which is exactly the paper's story about
their construction-time differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import ClusterSimulator, CostModel, SimReport, TaskCost
from repro.series import SeriesDataset

__all__ = [
    "BaselineStats",
    "BaselineResult",
    "simulate_distributed_build",
]


@dataclass(frozen=True)
class BaselineStats:
    """Query diagnostics common to every system in the evaluation."""

    system: str
    k: int
    partitions_loaded: tuple[str, ...]
    records_examined: int
    data_bytes: int
    sim_seconds: float
    wall_seconds: float

    @property
    def n_partitions(self) -> int:
        return len(self.partitions_loaded)


@dataclass(frozen=True)
class BaselineResult:
    """kNN answer set of a baseline system."""

    ids: np.ndarray
    distances: np.ndarray
    stats: BaselineStats


def simulate_distributed_build(
    model: CostModel,
    dataset: SeriesDataset,
    *,
    cost_scale: float,
    n_chunks: int,
    sample_fraction: float,
    per_record_ops: int,
    write_fraction: float = 1.0,
) -> SimReport:
    """Simulated cost of a sample/convert/redistribute index build.

    This mirrors the stage structure of CLIMBER's builder (paper Fig. 6),
    parameterised by the per-record conversion CPU cost that distinguishes
    the systems (iSAX words are cheap; pivot signatures cost ``r`` distance
    evaluations; DPiSAX pays heavily for its partitioning-table updates).

    Parameters
    ----------
    write_fraction:
        Fraction of the dataset rewritten during re-distribution (1.0 for
        all index builders; Dss performs no re-distribution).
    """
    sim = ClusterSimulator(model)
    total_bytes = int(dataset.nbytes * cost_scale)
    total_records = int(dataset.count * cost_scale)
    sim.run_scaled_stage(
        "build/skeleton/sample",
        TaskCost(
            read_bytes=int(total_bytes * sample_fraction),
            cpu_ops=int(total_records * sample_fraction) * per_record_ops,
        ),
        min_tasks=max(1, round(sample_fraction * n_chunks)),
    )
    sim.run_driver_step(
        "build/skeleton/assemble",
        TaskCost(cpu_ops=dataset.count * 64),
    )
    sim.run_scaled_stage(
        "build/convert",
        TaskCost(read_bytes=total_bytes, cpu_ops=total_records * per_record_ops),
        min_tasks=n_chunks,
    )
    if write_fraction > 0:
        sim.run_scaled_stage(
            "build/redistribute/shuffle",
            TaskCost(shuffle_bytes=int(total_bytes * write_fraction)),
            min_tasks=n_chunks,
        )
        sim.run_scaled_stage(
            "build/redistribute/write",
            TaskCost(write_bytes=int(total_bytes * write_fraction)),
            min_tasks=n_chunks,
        )
    return sim.fresh_report()
