"""CLIMBER configuration.

All tunables of Sections IV-VI in one validated dataclass.  Paper defaults
(§VII-A): 200 pivots, prefix length 10, K = 500, CLIMBER-kNN-Adaptive-4X
as the default variant.  The scaled-down defaults used by tests and
benchmarks are set per call site; this class only validates consistency.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.progressive import parse_early_stop
from repro.exceptions import ConfigurationError
from repro.pivots.distances import DecayKind
from repro.resilience import FaultPlan, RetryPolicy

__all__ = [
    "ClimberConfig",
    "PAPER_DEFAULTS",
    "ON_PARTITION_FAILURE_ENV",
    "EARLY_STOP_ENV",
]

#: Environment fallback for ``ClimberConfig.on_partition_failure`` — lets
#: the CI chaos smoke run the whole suite in degraded-query mode without
#: touching call sites.
ON_PARTITION_FAILURE_ENV = "CLIMBER_ON_PARTITION_FAILURE"

#: Environment fallback for ``ClimberConfig.early_stop`` — lets CI arm
#: the progressive stopping rule over a whole tier-1 run without touching
#: call sites (only ``knn_progressive``/``knn_batch_progressive`` consult
#: it; the exact ``knn``/``knn_batch`` paths never stop early).
EARLY_STOP_ENV = "CLIMBER_EARLY_STOP"


@dataclass(frozen=True)
class ClimberConfig:
    """Parameters of CLIMBER-FX, CLIMBER-INX, and the query algorithms.

    Parameters
    ----------
    word_length:
        PAA segments ``w`` (CLIMBER-FX Step 1).
    n_pivots:
        Total pivots ``r`` (paper default 200; sweet spot 150-250, Fig. 10).
    prefix_length:
        Pivot-permutation-prefix length ``m`` (paper default 10; ideal range
        10-20, Fig. 12).
    capacity:
        Partition capacity ``c`` in records (Def. 12).  ``None`` means
        "derive from the DFS block size", matching the paper's HDFS-block
        constraint.
    sample_fraction:
        ``alpha`` — fraction of input partitions sampled to build the index
        skeleton (construction Steps 1-3).
    min_centroid_separation:
        ``epsilon`` in Algorithm 2 — minimum Overlap Distance between any
        two selected centroids.  ``None`` defaults to ``ceil(m / 2)`` (the
        paper gives no value; see DESIGN.md §4).
    max_centroids:
        Optional stopping criterion of Algorithm 2.
    decay, decay_rate:
        Pivot-weight decay function of Def. 9 (exponential with
        ``lambda = 1/2`` by default, as in the paper's Example 1).
    adaptive_factor:
        Partition budget multiplier of CLIMBER-kNN-Adaptive relative to
        CLIMBER-kNN: 2 for the -2X variant, 4 for -4X, 1 disables
        adaptivity.
    seed:
        Seed for pivot selection and the random tie-breaks of
        Algorithms 1 and 3.
    n_input_partitions:
        How many chunks the raw dataset arrives in (the sampling unit of
        construction Step 1).
    cost_scale:
        Paper-scale multiplier for the simulated cost accounting: every
        declared byte/op count is multiplied by this factor so a scaled-down
        run reports paper-scale simulated times.  1.0 reports the honest
        scaled cost.  See DESIGN.md §1.
    sim_partition_bytes:
        When set, each partition touched by a *query* is charged as one
        storage block of this many bytes (the paper's 64 MB HDFS block)
        instead of the scaled partition's bytes times ``cost_scale``.
        Needed because a 10^5 scale-down cannot match total data volume and
        per-block volume simultaneously; queries are block-granular in the
        paper, so benches set this to 64 MB.  ``None`` keeps honest scaled
        accounting.
    dfs_cache_bytes:
        Byte budget of the DFS partition read-cache used when the builder
        creates its own :class:`~repro.storage.SimulatedDFS` (callers
        passing a DFS configure caching on it directly).  0 (the default)
        disables caching.  The cache is purely physical: simulated cost
        accounting and the DFS's logical read counters are identical with
        it on or off.
    n_workers:
        Worker count of the parallel execution layer
        (:mod:`repro.core.parallel`): build conversion blocks, trie
        compiles, partition encodes and ``knn_batch`` query shards all run
        on this many workers.  ``None`` (the default) resolves through the
        ``CLIMBER_N_WORKERS`` environment variable, else 1.  Purely
        physical: any worker count produces **bit-identical** results —
        same partition bytes, counters and kNN answers as ``n_workers=1``
        (the parity suite proves it).
    executor:
        Executor kind behind ``n_workers``: ``"thread"`` (default — the
        hot numpy kernels release the GIL, and thread pools share the
        index's object graph), ``"process"`` (pickle-friendly stages only;
        shared-structure stages fall back to threads), or ``"serial"``.
    telemetry:
        Enable the observability layer (:mod:`repro.obs`): per-stage build
        spans, per-query latency histograms and ``explain_query`` probes.
        Purely observational — query results, partition bytes and logical
        DFS counters are bit-identical with it on or off (the obs parity
        test proves it).  Off by default; disabled mode costs one
        attribute lookup per gated site.
    telemetry_sample_every:
        Sampling period of the enabled-mode per-query probes: 1 (default)
        probes every query; ``N > 1`` probes one query in N and the rest
        pay only the ``query.count`` increment — the always-on production
        sampling mode (enabled-mode overhead drops to ~disabled level).
        Sampled-out queries still return exact answers/stats; only the
        per-query stage histograms subsample.
    partition_checksums:
        Whether builder-created DFS instances write partitions with
        per-section CRC32 checksums (header version 3; the default).
        Purely physical: answers, logical counters and simulated costs
        are identical with checksums on or off, and either generation of
        stored payload stays readable.
    verify_checksums:
        Read-side verification mode: ``"off"``, ``"lazy"`` (default) or
        ``"eager"`` (see :class:`~repro.storage.engine.PartitionV2View`).
        Corruption raises
        :class:`~repro.exceptions.PartitionCorruptError`.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` injected under the
        builder-created DFS.  ``None`` consults the ``CLIMBER_FAULT_*``
        environment knobs (:meth:`FaultPlan.from_env`); the resolved plan
        is exposed as :attr:`effective_fault_plan`.
    retry_policy:
        :class:`~repro.resilience.RetryPolicy` of the DFS read path;
        ``None`` uses the DFS default (3 attempts, seeded-jitter
        exponential backoff).
    on_partition_failure:
        Default degraded-query mode for ``knn``/``knn_batch``:
        ``"raise"`` propagates storage failures, ``"skip"`` drops the
        failed partition from the candidate read set and answers from
        the rest (stats record ``partitions_failed``/``coverage``).
        ``None`` (default) resolves through the
        ``CLIMBER_ON_PARTITION_FAILURE`` environment variable, else
        ``"raise"``.
    early_stop:
        Default stopping knob of the *progressive* query path
        (``knn_progressive``/``knn_batch_progressive``; the exact
        ``knn``/``knn_batch`` paths never stop early): ``"off"``,
        ``"confidence"`` (calibrated streak at
        :attr:`early_stop_confidence`), ``"confidence:0.95"`` or
        ``"streak:3"`` — see :func:`repro.core.progressive.parse_early_stop`.
        ``None`` (default) resolves through the ``CLIMBER_EARLY_STOP``
        environment variable, else ``"off"``.
    early_stop_confidence:
        Confidence level used when :attr:`early_stop` resolves to plain
        ``"confidence"`` (default 0.9): the calibrated fraction of
        queries whose early answer must already equal the full-budget
        answer.
    """

    word_length: int = 16
    n_pivots: int = 200
    prefix_length: int = 10
    capacity: int | None = None
    sample_fraction: float = 0.1
    min_centroid_separation: int | None = None
    max_centroids: int | None = None
    decay: DecayKind = "exponential"
    decay_rate: float | None = None
    adaptive_factor: int = 4
    seed: int = 0
    n_input_partitions: int = 32
    cost_scale: float = 1.0
    sim_partition_bytes: int | None = None
    dfs_cache_bytes: int = 0
    n_workers: int | None = None
    executor: str = "thread"
    telemetry: bool = False
    telemetry_sample_every: int = 1
    partition_checksums: bool = True
    verify_checksums: str = "lazy"
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    on_partition_failure: str | None = None
    early_stop: str | None = None
    early_stop_confidence: float = 0.9

    def __post_init__(self) -> None:
        if self.word_length < 1:
            raise ConfigurationError("word_length must be >= 1")
        if self.n_pivots < 2:
            raise ConfigurationError("n_pivots must be >= 2")
        if not 1 <= self.prefix_length <= self.n_pivots:
            raise ConfigurationError(
                f"prefix_length must be in [1, n_pivots={self.n_pivots}]"
            )
        if self.capacity is not None and self.capacity < 1:
            raise ConfigurationError("capacity must be >= 1 when given")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigurationError("sample_fraction must be in (0, 1]")
        if self.min_centroid_separation is not None and not (
            0 <= self.min_centroid_separation <= self.prefix_length
        ):
            raise ConfigurationError(
                "min_centroid_separation must be in [0, prefix_length]"
            )
        if self.max_centroids is not None and self.max_centroids < 1:
            raise ConfigurationError("max_centroids must be >= 1 when given")
        if self.adaptive_factor < 1:
            raise ConfigurationError("adaptive_factor must be >= 1")
        if self.n_input_partitions < 1:
            raise ConfigurationError("n_input_partitions must be >= 1")
        if self.cost_scale <= 0:
            raise ConfigurationError("cost_scale must be positive")
        if self.sim_partition_bytes is not None and self.sim_partition_bytes < 1024:
            raise ConfigurationError("sim_partition_bytes must be >= 1024")
        if self.dfs_cache_bytes < 0:
            raise ConfigurationError("dfs_cache_bytes must be >= 0")
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1 when given")
        if self.executor not in ("serial", "thread", "process"):
            raise ConfigurationError(
                f"executor must be 'serial', 'thread' or 'process', "
                f"got {self.executor!r}"
            )
        if self.telemetry_sample_every < 1:
            raise ConfigurationError("telemetry_sample_every must be >= 1")
        if self.verify_checksums not in ("off", "lazy", "eager"):
            raise ConfigurationError(
                f"verify_checksums must be 'off', 'lazy' or 'eager', "
                f"got {self.verify_checksums!r}"
            )
        if self.on_partition_failure not in (None, "raise", "skip"):
            raise ConfigurationError(
                f"on_partition_failure must be 'raise' or 'skip', "
                f"got {self.on_partition_failure!r}"
            )
        if self.early_stop is not None:
            parse_early_stop(self.early_stop)  # raises on a bad spec
        if not 0.0 < self.early_stop_confidence < 1.0:
            raise ConfigurationError(
                f"early_stop_confidence must be in (0, 1), "
                f"got {self.early_stop_confidence!r}"
            )

    @property
    def effective_fault_plan(self) -> FaultPlan | None:
        """Explicit :attr:`fault_plan`, else the ``CLIMBER_FAULT_*`` env plan."""
        if self.fault_plan is not None:
            return self.fault_plan
        return FaultPlan.from_env()

    @property
    def effective_on_partition_failure(self) -> str:
        """Resolved degraded-query mode: explicit → env → ``"raise"``."""
        if self.on_partition_failure is not None:
            return self.on_partition_failure
        raw = os.environ.get(ON_PARTITION_FAILURE_ENV, "").strip()
        if not raw:
            return "raise"
        if raw not in ("raise", "skip"):
            raise ConfigurationError(
                f"{ON_PARTITION_FAILURE_ENV}={raw!r} must be 'raise' or 'skip'"
            )
        return raw

    @property
    def effective_early_stop(self) -> str:
        """Resolved progressive stopping knob: explicit → env → ``"off"``."""
        if self.early_stop is not None:
            return self.early_stop
        raw = os.environ.get(EARLY_STOP_ENV, "").strip()
        if not raw:
            return "off"
        parse_early_stop(raw)  # raises on a bad env spec
        return raw

    @property
    def effective_n_workers(self) -> int:
        """Resolved worker count: ``n_workers`` → ``CLIMBER_N_WORKERS`` → 1."""
        from repro.core.parallel import resolve_n_workers

        return resolve_n_workers(self.n_workers)

    @property
    def epsilon(self) -> int:
        """Effective minimum centroid separation for Algorithm 2."""
        if self.min_centroid_separation is not None:
            return self.min_centroid_separation
        return (self.prefix_length + 1) // 2


PAPER_DEFAULTS = ClimberConfig(
    word_length=16,
    n_pivots=200,
    prefix_length=10,
    sample_fraction=0.01,
    adaptive_factor=4,
)
"""The paper's default configuration (§VII-A), for reference in benches."""
