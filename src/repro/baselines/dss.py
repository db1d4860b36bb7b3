"""Dss: Distributed Sequential Scan — the exact, brute-force baseline.

The paper's ground-truth generator: "the vanilla full scan solution that
scans all data partitions in parallel to generate the exact answer set".
Its recall is 1.0 by construction and its simulated query time is the cost
of streaming the entire dataset off disk, which is what makes it
"prohibitively high and impractical" (Fig. 7).
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.common import BaselineResult, BaselineStats
from repro.cluster import ClusterSimulator, CostModel, TaskCost, ops_euclidean
from repro.exceptions import ConfigurationError
from repro.series import SeriesDataset, knn_bruteforce, knn_merge
from repro.storage import SimulatedDFS

__all__ = ["DssScanner"]


class DssScanner:
    """Exact distributed scan over DFS-resident partitions."""

    def __init__(
        self,
        dfs: SimulatedDFS,
        model: CostModel,
        cost_scale: float,
        series_length: int,
    ) -> None:
        self.dfs = dfs
        self.model = model
        self.cost_scale = cost_scale
        self.series_length = series_length

    @classmethod
    def build(
        cls,
        dataset: SeriesDataset,
        *,
        n_partitions: int = 32,
        model: CostModel | None = None,
        dfs: SimulatedDFS | None = None,
        cost_scale: float = 1.0,
    ) -> "DssScanner":
        """Lay the dataset out across DFS partitions (no index is built)."""
        if n_partitions < 1:
            raise ConfigurationError("n_partitions must be >= 1")
        dfs = dfs if dfs is not None else SimulatedDFS()
        for i, chunk in enumerate(dataset.split_into_chunks(n_partitions)):
            dfs.write_partition_arrays(f"dss{i}", chunk.ids, chunk.values,
                                       {"all": (0, chunk.count)})
        return cls(dfs, model or CostModel(), cost_scale, dataset.length)

    @property
    def build_sim_seconds(self) -> float:
        """Dss builds nothing; the paper omits it from Fig. 8 accordingly."""
        return 0.0

    def knn(self, query: np.ndarray, k: int) -> BaselineResult:
        """Exact kNN by scanning every partition and merging local top-k."""
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        t0 = time.perf_counter()
        sim = ClusterSimulator(self.model)
        partials = []
        costs = []
        examined = 0
        data_bytes = 0
        names = tuple(self.dfs.list_partitions())
        for pname in names:
            part = self.dfs.read_partition(pname)
            ids, vals = part.read_clusters(part.cluster_keys())
            partials.append(knn_bruteforce(query, vals, ids, k))
            examined += part.record_count
            data_bytes += part.nbytes
            costs.append(
                TaskCost(
                    read_bytes=int(part.nbytes * self.cost_scale),
                    cpu_ops=int(
                        part.record_count
                        * ops_euclidean(part.series_length)
                        * self.cost_scale
                    ),
                )
            )
        ids, dists = knn_merge(partials, k)
        sim.run_stage("query/scan", costs)
        report = sim.fresh_report()
        return BaselineResult(
            ids,
            dists,
            BaselineStats(
                system="Dss",
                k=k,
                partitions_loaded=names,
                records_examined=examined,
                data_bytes=data_bytes,
                sim_seconds=report.total_seconds,
                wall_seconds=time.perf_counter() - t0,
            ),
        )
