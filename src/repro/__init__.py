"""CLIMBER reproduction: pivot-based approximate similarity search over big data series.

This package reimplements, from scratch and in pure Python, the CLIMBER
system of *"CLIMBER: Pivot-Based Approximate Similarity Search Over Big
Data Series"* (ICDE 2024) together with every substrate it depends on.

The primary public entry points are re-exported here:

>>> from repro import ClimberConfig, ClimberIndex, random_walk_dataset
>>> index = ClimberIndex.build(random_walk_dataset(1000, 64),
...                            ClimberConfig(word_length=8, n_pivots=16,
...                                          prefix_length=4, capacity=100,
...                                          sample_fraction=0.3))
>>> part = index.dfs.read_partition(index.dfs.list_partitions()[0])
>>> ids, values = part.read_clusters(part.cluster_keys())
>>> result = index.knn(values[0], k=5)
>>> int(result.ids[0]) == int(ids[0])
True

See :mod:`repro.core` for the paper's contribution, :mod:`repro.baselines`
for the comparators, and DESIGN.md for the full system inventory.
"""

from repro.exceptions import (
    ConfigurationError,
    DimensionalityError,
    IndexNotBuiltError,
    MemoryBudgetExceeded,
    NonFiniteValueError,
    PartitionCorruptError,
    PartitionLostError,
    PartitionNotFoundError,
    ReadTimeoutError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    StorageError,
    TransientReadError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DimensionalityError",
    "NonFiniteValueError",
    "IndexNotBuiltError",
    "StorageError",
    "PartitionNotFoundError",
    "PartitionCorruptError",
    "PartitionLostError",
    "TransientReadError",
    "ReadTimeoutError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "MemoryBudgetExceeded",
    "ClimberConfig",
    "ClimberIndex",
    "QueryResult",
    "ProgressiveUpdate",
    "QueryService",
    "QueryResponse",
    "ServeConfig",
    "SeriesDataset",
    "random_walk_dataset",
    "make_dataset",
    "sample_queries",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "__version__",
]


def __getattr__(name):
    """Lazy re-exports of the main public API.

    Importing :mod:`repro` stays cheap; heavyweight submodules load on
    first attribute access.
    """
    if name in ("ClimberConfig", "ClimberIndex", "QueryResult",
                "ProgressiveUpdate"):
        from repro import core

        return getattr(core, name)
    if name in ("FaultPlan", "FaultInjector", "RetryPolicy"):
        from repro import resilience

        return getattr(resilience, name)
    if name in ("QueryService", "QueryResponse", "ServeConfig"):
        from repro import serve

        return getattr(serve, name)
    if name == "SeriesDataset":
        from repro.series import SeriesDataset

        return SeriesDataset
    if name in ("random_walk_dataset", "make_dataset", "sample_queries"):
        from repro import datasets

        return getattr(datasets, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
