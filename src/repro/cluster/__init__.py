"""Simulated distributed compute substrate (stands in for Apache Spark)."""

from repro.cluster.costmodel import (
    CostModel,
    TaskCost,
    ops_euclidean,
    ops_paa,
    ops_signature,
    partition_scan_cost,
)
from repro.cluster.simulator import ClusterSimulator, SimReport, StageReport

__all__ = [
    "CostModel",
    "TaskCost",
    "ops_euclidean",
    "ops_paa",
    "ops_signature",
    "partition_scan_cost",
    "ClusterSimulator",
    "SimReport",
    "StageReport",
]
