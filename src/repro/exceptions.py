"""Exception hierarchy for the CLIMBER reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is out of range or inconsistent."""


class DimensionalityError(ReproError):
    """An array does not have the shape an operation requires."""


class NonFiniteValueError(ReproError):
    """An array holds NaN or infinite values where finite data is required.

    Distances to such a series are undefined, so a query carrying one is
    refused at the boundary instead of being answered with garbage."""


class IndexNotBuiltError(ReproError):
    """A query was issued against an index that has not been built yet."""


class StorageError(ReproError):
    """The simulated distributed file system rejected an operation."""


class PartitionNotFoundError(StorageError):
    """A partition id does not exist in the simulated DFS.

    An index-consistency error, not a storage fault: retry and the
    degraded query mode (``on_partition_failure="skip"``) deliberately do
    *not* treat it as recoverable."""


class PartitionCorruptError(StorageError):
    """Stored partition bytes fail an integrity check.

    Raised when a checksum recorded in the v2 partition header does not
    match the stored section bytes, or when a payload is structurally
    undecodable (short section read, unparsable meta blob)."""


class TransientReadError(StorageError):
    """A read failed in a way that may succeed on retry.

    The simulated-DFS analogue of a dropped connection or a timed-out
    datanode: the :class:`~repro.resilience.FaultInjector` raises it on
    scheduled transient faults and the DFS retry loop treats it as
    recoverable."""


class PartitionLostError(StorageError):
    """A partition's bytes are permanently gone (simulated node loss).

    Never retried — a lost partition stays lost; queries running with
    ``on_partition_failure="skip"`` degrade around it."""


class ReadTimeoutError(StorageError):
    """A read exceeded the :class:`~repro.resilience.RetryPolicy` deadline.

    Recoverable: the straggler that blew the deadline may not recur, so
    the retry loop treats timeouts like transient faults."""


class ServiceError(ReproError):
    """Base class for errors raised by the serving layer (:mod:`repro.serve`)."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a request: the service queue is full.

    Raised by :meth:`~repro.serve.QueryService.submit` in ``"reject"``
    admission mode.  Back off and retry — the index itself is healthy;
    the service is shedding load instead of letting latency grow without
    bound."""


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that is not running."""


class MemoryBudgetExceeded(ReproError):
    """An in-memory system was asked to hold more data than its budget.

    Used by the Odyssey and HNSW baselines to reproduce the ``X`` (did not
    run) cells of Table I: those systems require the data set and index to
    fit in main memory, and fail otherwise.
    """

    def __init__(self, required_bytes: int, budget_bytes: int) -> None:
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"dataset requires {required_bytes} bytes but the memory budget "
            f"is {budget_bytes} bytes"
        )
