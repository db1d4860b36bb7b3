"""Simulated distributed storage substrate (stands in for HDFS)."""

from repro.storage.dfs import DfsCounters, SimulatedDFS
from repro.storage.engine import (
    LocalDiskBackend,
    MemoryBackend,
    PartitionV2View,
    StorageBackend,
    StorageEngine,
    encode_partition_v2_arrays,
)
from repro.storage.serialization import (
    array_from_bytes,
    array_to_bytes,
    json_from_bytes,
    json_to_bytes,
)

__all__ = [
    "SimulatedDFS",
    "DfsCounters",
    "StorageEngine",
    "StorageBackend",
    "MemoryBackend",
    "LocalDiskBackend",
    "PartitionV2View",
    "encode_partition_v2_arrays",
    "array_to_bytes",
    "array_from_bytes",
    "json_to_bytes",
    "json_from_bytes",
]
