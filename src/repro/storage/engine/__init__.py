"""Zero-copy storage engine: the columnar partition format over pluggable backends.

The engine decomposes physical partition storage into three layers:

* :mod:`repro.storage.engine.format` — the binary partition format:
  fixed-width struct header with per-section checksums, packed cluster
  directory and 64-byte-aligned raw C-order payloads, checked at every
  open and served as zero-copy NumPy views;
* :mod:`repro.storage.engine.backend` — the :class:`StorageBackend`
  byte-range protocol with in-memory and mmap-backed local-disk
  implementations;
* :mod:`repro.storage.engine.engine` — the :class:`StorageEngine` facade
  that encodes on write, opens partitions checked, and answers
  cluster-range reads by mapping only the requested byte slices.

:class:`~repro.storage.SimulatedDFS` fronts this package; its read/write
counters charge each partition's stored size (DESIGN.md D17).
"""

from repro.storage.engine.backend import (
    LocalDiskBackend,
    MemoryBackend,
    StorageBackend,
)
from repro.storage.engine.engine import PartitionMeta, StorageEngine
from repro.storage.engine.format import (
    FORMAT_V2_MAGIC,
    FORMAT_VERSION,
    PartitionV2View,
    decode_v2_header,
    encode_partition_v2_arrays,
)

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "LocalDiskBackend",
    "StorageEngine",
    "PartitionMeta",
    "PartitionV2View",
    "FORMAT_V2_MAGIC",
    "FORMAT_VERSION",
    "encode_partition_v2_arrays",
    "decode_v2_header",
]
