"""CLIMBER configuration.

All tunables of Sections IV-VI in one validated dataclass.  Paper defaults
(§VII-A): 200 pivots, prefix length 10, K = 500, CLIMBER-kNN-Adaptive-4X
as the default variant.  The scaled-down defaults used by tests and
benchmarks are set per call site; this class only validates consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pivots.distances import DecayKind, decay_weights

__all__ = [
    "ClimberConfig",
    "PAPER_DEFAULTS",
    "check_fields",
    "is_integer",
    "parse_early_stop",
]


def is_integer(value) -> bool:
    """The one rule for a count: a Python or NumPy integer, never a
    ``bool`` — for ``k`` and every integer field of a config."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite Python or NumPy real number, never a ``bool`` — the rule
    for every float field of a config."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return is_integer(value)


def parse_early_stop(spec) -> int | None:
    """The progressive stop rule ``spec`` names: a streak, or ``None``.

    The one grammar of ``early_stop``, wherever it is passed
    (:class:`ClimberConfig`, ``knn_progressive``,
    ``knn_batch_progressive``, ``QueryService.submit``): ``"off"`` never
    stops early; ``"streak:<s>"`` or an integer ``s >= 1`` (Python or
    NumPy, never a ``bool``) stops once the running top-k has survived
    ``s`` consecutive partition visits unchanged, with ``k`` answers in
    hand.  A string's case and surrounding blanks do not matter.
    """
    text = spec.strip().lower() if isinstance(spec, str) else None
    if text == "off":
        return None
    if is_integer(spec):
        streak = int(spec)
    elif text is not None and text.startswith("streak:"):
        try:
            streak = int(text[len("streak:"):])
        except ValueError:
            streak = 0
    else:
        raise ConfigurationError(
            f"early_stop must be 'off', 'streak:<s>' or an integer s >= 1, "
            f"got {spec!r}"
        )
    if streak < 1:
        raise ConfigurationError(
            f"early_stop streak must be an integer >= 1, got {spec!r}"
        )
    return streak


#: Annotation -> (test, what the test asks for), for :func:`check_fields`.
_FIELD_RULES = {
    "int": (is_integer, "an integer"),
    "float": (is_real, "a finite real number"),
    "bool": (lambda value: isinstance(value, bool), "a bool"),
    "DecayKind": (lambda value: isinstance(value, str)
                  and value in get_args(DecayKind),
                  f"one of {get_args(DecayKind)}"),
}


def check_fields(config) -> None:
    """Refuse, with :class:`ConfigurationError`, a config dataclass whose
    field holds a value of the wrong type for its annotation: ``int`` an
    integer, ``float`` a finite real number, ``bool`` a bool,
    ``DecayKind`` one of its names — never a ``bool`` where a number is
    asked for.  An annotation ending ``| None`` also takes ``None``;
    fields of any other annotation are left to the config's own
    checks."""
    for field in fields(config):
        value = getattr(config, field.name)
        kind = field.type.removesuffix(" | None")
        if kind not in _FIELD_RULES or (kind != field.type and value is None):
            continue
        accepts, wanted = _FIELD_RULES[kind]
        if not accepts(value):
            raise ConfigurationError(
                f"{field.name} must be {wanted}, got {value!r}"
            )


@dataclass(frozen=True)
class ClimberConfig:
    """Parameters of CLIMBER-FX, CLIMBER-INX, and the query algorithms.

    Every field holds a concrete value, and precedence is the same
    everywhere: a per-call argument if the call takes one and it is given,
    else the field here.  Nothing is read from the process environment
    (DESIGN.md D5).  Storage knobs — read cache, fault plan, retry
    policy — are not here: they live on the
    :class:`~repro.storage.SimulatedDFS` the caller passes to
    ``ClimberIndex.build`` / ``reopen`` (a build without ``dfs=`` gets
    ``SimulatedDFS()``).  Partition checksums are no knob (DESIGN.md D8).

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
    n_workers:
        Worker count of the parallel execution layer
        (:mod:`repro.core.parallel`): build conversion blocks, partition
        encodes and ``knn_batch`` query shards all run
        on this many workers — 1 (the default) is serial, more are a
        thread pool.  Purely physical: any worker count produces
        **bit-identical** results — same partition bytes, counters and kNN
        answers as ``n_workers=1`` (the parity suite proves it).
    telemetry:
        Enable the observability layer (:mod:`repro.obs`): per-stage build
        spans and the per-query latency histograms and counters.  Every
        query fills its own record either way
        (``QueryStats.stage_seconds``, ``cache_hits``, ``cache_misses``);
        this only decides whether :meth:`~repro.obs.Telemetry.record_query`
        folds it into the registry.  Purely observational — query
        results, partition bytes and logical DFS counters are
        bit-identical with it on or off (the obs parity test proves it).
        Off by default; disabled mode costs one attribute lookup per
        gated site.
    telemetry_sample_every:
        Sampling period of the enabled-mode per-query metrics: 1 (default)
        folds every finished query's record into the registry; ``N > 1``
        folds one in N (a tick shared by all threads, inside
        ``record_query``) and the rest pay only the ``query.count``
        increment.  Sampled-out queries still return exact answers and
        their full record on ``QueryStats``; only the registry's
        per-query counters and histograms subsample.
    on_partition_failure:
        Degraded-query mode of every query call that does not pass its
        own: ``"raise"`` (the default) propagates storage failures,
        ``"skip"`` drops the failed partition from the candidate read set
        and answers from the rest (stats record
        ``partitions_failed``/``coverage``).
    early_stop:
        Stopping knob of the *progressive* query path
        (``knn_progressive``/``knn_batch_progressive``; the exact
        ``knn``/``knn_batch`` paths never stop early) for calls that do
        not pass their own: ``"off"`` (the default) or a streak,
        ``"streak:3"`` or ``3`` — see :func:`parse_early_stop`.
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
    n_workers: int = 1
    telemetry: bool = False
    telemetry_sample_every: int = 1
    on_partition_failure: str = "raise"
    early_stop: str = "off"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.word_length < 1:
            raise ConfigurationError("word_length must be >= 1")
        if self.n_pivots < 2:
            raise ConfigurationError("n_pivots must be >= 2")
        if not 1 <= self.prefix_length <= self.n_pivots:
            raise ConfigurationError(
                f"prefix_length must be in [1, n_pivots={self.n_pivots}]"
            )
        # Raises on a decay_rate outside its decay kind's range.
        decay_weights(self.prefix_length, self.decay, self.decay_rate)
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
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.n_input_partitions < 1:
            raise ConfigurationError("n_input_partitions must be >= 1")
        if self.cost_scale <= 0:
            raise ConfigurationError("cost_scale must be positive")
        if self.sim_partition_bytes is not None and self.sim_partition_bytes < 1024:
            raise ConfigurationError("sim_partition_bytes must be >= 1024")
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if self.telemetry_sample_every < 1:
            raise ConfigurationError("telemetry_sample_every must be >= 1")
        if self.on_partition_failure not in ("raise", "skip"):
            raise ConfigurationError(
                f"on_partition_failure must be 'raise' or 'skip', "
                f"got {self.on_partition_failure!r}"
            )
        parse_early_stop(self.early_stop)  # raises on a bad spec

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
