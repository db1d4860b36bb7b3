"""Analytic cost model for the simulated cluster.

The paper runs on two nodes with 56 Xeon E5-2690 cores, 512 GB RAM and 8 TB
SATA disks each, under Spark + HDFS.  A faithful pure-Python wall-clock
reproduction of terabyte experiments is impossible (see DESIGN.md §1), so
every reported "seconds"/"minutes" figure in our benchmarks is produced by
this model instead: algorithms run for real on scaled data while declaring
the I/O, network, and CPU work they *would* perform at paper scale, and the
model converts that work into simulated time.

The constants below are deliberately round, publicly documented figures for
the paper's hardware generation; what matters for reproduction is the
*ratios* (disk ≪ network ≪ memory; scan cost ≫ few-partition cost), which
drive every trend in Figures 7-12 and Table I.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.series import series_nbytes

__all__ = ["CostModel", "TaskCost", "ops_euclidean", "ops_paa", "ops_signature",
           "partition_scan_cost"]

_MB = 1024 * 1024


def ops_euclidean(length: int) -> int:
    """Approximate scalar float ops of one Euclidean distance of ``length``."""
    return 3 * length


def ops_paa(length: int) -> int:
    """Approximate scalar float ops to PAA-transform one series."""
    return 2 * length


def ops_signature(n_pivots: int, word_length: int, prefix_length: int) -> int:
    """Ops to derive one P4 dual signature: r pivot distances + top-m select."""
    return n_pivots * ops_euclidean(word_length) + 4 * n_pivots + 8 * prefix_length


@dataclass(frozen=True)
class TaskCost:
    """Work declared by one task of a distributed stage.

    All fields are *at paper scale*: callers that ran on scaled-down data
    multiply record counts up before declaring (see
    :func:`repro.datasets.gb_to_count`).
    """

    read_bytes: int = 0
    write_bytes: int = 0
    shuffle_bytes: int = 0
    cpu_ops: int = 0

    def __add__(self, other: "TaskCost") -> "TaskCost":
        return TaskCost(
            self.read_bytes + other.read_bytes,
            self.write_bytes + other.write_bytes,
            self.shuffle_bytes + other.shuffle_bytes,
            self.cpu_ops + other.cpu_ops,
        )


def partition_scan_cost(
    nbytes: int,
    record_count: int,
    series_length: int,
    cost_scale: float,
    sim_partition_bytes: int | None,
) -> TaskCost:
    """Declared cost of loading + ED-scanning one partition at paper scale.

    The one formula every distributed system (CLIMBER and the baselines)
    charges a query with, from a partition's header numbers: one storage
    block per partition touched when ``sim_partition_bytes`` is set (the
    paper's query granularity), honest bytes scaled by ``cost_scale``
    otherwise.
    """
    if sim_partition_bytes is not None:
        block_records = max(1, sim_partition_bytes // series_nbytes(series_length))
        return TaskCost(
            read_bytes=sim_partition_bytes,
            cpu_ops=block_records * ops_euclidean(series_length),
        )
    return TaskCost(
        read_bytes=int(nbytes * cost_scale),
        cpu_ops=int(record_count * ops_euclidean(series_length) * cost_scale),
    )


@dataclass(frozen=True)
class CostModel:
    """Hardware constants of the simulated cluster.

    Defaults describe the paper's testbed (§VII-A): 2 nodes x 56 cores,
    512 GB RAM, SATA disks, datacenter Ethernet.  HDFS replication is 2 —
    a two-node cluster cannot hold the default three replicas.
    """

    n_nodes: int = 2
    cores_per_node: int = 56
    memory_per_node_gb: float = 512.0
    disk_read_mb_s: float = 110.0
    disk_write_mb_s: float = 160.0
    network_mb_s: float = 1_000.0
    cpu_ops_per_s: float = 1.5e9
    software_factor: float = 220.0
    task_overhead_s: float = 0.005
    stage_overhead_s: float = 10.0
    replication_factor: int = 2
    disk_seek_s: float = 0.008

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.cores_per_node < 1:
            raise ConfigurationError("cluster must have >= 1 node and core")
        for name in ("disk_read_mb_s", "disk_write_mb_s", "network_mb_s",
                     "cpu_ops_per_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.replication_factor < 1:
            raise ConfigurationError("replication_factor must be >= 1")

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    @property
    def total_memory_bytes(self) -> int:
        return int(self.memory_per_node_gb * 1e9) * self.n_nodes

    # -- cluster-wide sustained bandwidths ---------------------------------------
    #
    # Cores are per-task resources, but disks and NICs are shared per node:
    # the paper's nodes each have a single SATA drive, so an I/O-heavy stage
    # cannot go faster than n_nodes * one-disk bandwidth no matter how many
    # cores it occupies.  This asymmetry is what makes full scans minutes
    # while few-partition probes stay in seconds (Fig. 7, Table I).

    @property
    def cluster_read_bytes_s(self) -> float:
        return self.n_nodes * self.disk_read_mb_s * _MB

    @property
    def cluster_write_bytes_s(self) -> float:
        return self.n_nodes * self.disk_write_mb_s * _MB

    @property
    def cluster_network_bytes_s(self) -> float:
        return self.n_nodes * self.network_mb_s * _MB

    # -- per-component timings -------------------------------------------------

    def read_time(self, nbytes: int) -> float:
        """Seconds to read ``nbytes`` sequentially from one disk."""
        return self.disk_seek_s + nbytes / (self.disk_read_mb_s * _MB)

    def write_time(self, nbytes: int) -> float:
        """Seconds to write ``nbytes``, including replication traffic.

        HDFS pipelines one local write plus ``replication_factor - 1``
        network copies; the slower of the two paths dominates.
        """
        local = nbytes / (self.disk_write_mb_s * _MB)
        copies = (self.replication_factor - 1) * nbytes / (self.network_mb_s * _MB)
        return self.disk_seek_s + max(local, copies) + min(local, copies) * 0.25

    def shuffle_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` across the network (serialise + send)."""
        return nbytes / (self.network_mb_s * _MB) + nbytes / (8 * self.cpu_ops_per_s)

    def compute_time(self, ops: int) -> float:
        """Seconds for ``ops`` *algorithmic* float operations on one core.

        ``software_factor`` converts textbook flop counts into the
        effective throughput of the paper's JVM/Spark stack (boxing, GC,
        serialisation); native-code baselines (Odyssey, ParlayANN) override
        it with a small factor in their own :class:`CostModel` instances.
        """
        return ops * self.software_factor / self.cpu_ops_per_s

    def task_time(self, cost: TaskCost) -> float:
        """Total simulated seconds for one task's declared work in isolation."""
        return (
            self.read_time(cost.read_bytes) if cost.read_bytes else 0.0
        ) + (
            self.write_time(cost.write_bytes) if cost.write_bytes else 0.0
        ) + (
            self.shuffle_time(cost.shuffle_bytes) if cost.shuffle_bytes else 0.0
        ) + self.compute_time(cost.cpu_ops)
