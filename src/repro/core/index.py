"""The CLIMBER index and its query algorithms (Section VI).

:class:`ClimberIndex` is the public entry point of this library: build it
over a :class:`~repro.series.SeriesDataset` and issue approximate kNN
queries with any of the paper's three variants:

* ``variant="knn"`` — CLIMBER-kNN (Algorithm 3): route to the single best
  trie node, search its partition(s), expand within the same partition if
  the node holds fewer than k records.
* ``variant="adaptive"`` — CLIMBER-kNN-Adaptive: when the best node is
  smaller than k, expand over the memorised runner-up trie nodes across
  the best-matching groups, capped at ``adaptive_factor`` times the
  partitions CLIMBER-kNN would touch (2X and 4X in the paper).
* ``variant="od-smallest"`` — the OD-Smallest comparator of §VII-C: scan
  every partition of every group tied at the smallest Overlap Distance.

Query pipeline
--------------
A query flows through four stages:

1. **Signature** — PAA transform + pivot permutation prefix
   (:meth:`ClimberIndex.query_signature`); batched over all rows of a
   :meth:`ClimberIndex.knn_batch` call.
2. **Routing** — OD/WD against every group centroid via the vectorised
   :class:`~repro.core.routing.RoutingTable` (built once per index,
   rebuilt by :meth:`ClimberIndex.reopen`); one ``(q, groups)`` matrix
   serves a whole batch.
3. **Planning** — the per-variant trie-node selection and the partitions
   and clusters covering it (:meth:`RoutingTable.plan`, over flat node
   ids); nothing is read yet.
4. **Record scan** — the routed walk (:class:`_RoutedWalk`): partition
   loads (served from the DFS read cache when enabled), each run scored
   once where the storage engine mapped it, and a top-k selection over
   the scores.  ``knn``/``knn_batch`` run the walk to its end;
   ``knn_progressive`` drives the same walk one visit at a time.

``QueryStats`` reports *logical* partition touches, so the paper's
access-volume metrics are independent of any caching; what a query would
cost on the paper's cluster is a model computed from those stats on
demand (:func:`repro.evaluation.modeled_query_seconds`), never here.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.cluster import CostModel
from repro.core.assignment import GroupAssigner
from repro.core.builder import (
    BuildArtifacts,
    build_index_artifacts,
    check_records,
)
from repro.core.config import ClimberConfig, is_integer, parse_early_stop
from repro.core.parallel import make_executor, split_ranges
from repro.core.progressive import ProgressiveUpdate
from repro.core.routing import GroupCandidate, RoutingTable
from repro.core.routing import select_primary as _select_primary
from repro.core.skeleton import SkeletonWithPivots, partition_name
from repro.exceptions import (
    ConfigurationError,
    DimensionalityError,
    NonFiniteValueError,
    PartitionNotFoundError,
    StorageError,
)
from repro.obs import (
    NULL_TELEMETRY,
    OBS_SCHEMA,
    QUERY_STAGES,
    Telemetry,
    global_registry,
)
from repro.pivots import decay_weights, permutation_prefixes, wd_tie_tolerance
from repro.series import SeriesDataset, paa_transform
from repro.series.distance import block_scores, knn_select

__all__ = [
    "ClimberIndex",
    "ProgressiveUpdate",
    "QueryResult",
    "QueryStats",
    "GroupCandidate",
]

_QUERY_SHARD_ROWS = 8
"""Rows per ``knn_batch`` shard.  Fixed by row count — never by worker
count — so the task list (and with it every deterministic per-shard
result) is identical for any ``n_workers``; 8 rows amortise task overhead
while a typical benchmark batch still yields enough shards to fill a
pool."""

# Indices into a walk's stage clocks (``QUERY_STAGES`` order); the
# prologue fills signature and route before the walk exists.
_SELECT, _READ, _REFINE = 2, 3, 4


@dataclass(frozen=True)
class QueryStats:
    """Diagnostics of one kNN query (metrics of Figs. 7, 9, 11, 12)."""

    variant: str
    k: int
    best_od: int
    group_ids: tuple[int, ...]
    path_len: int
    gn_size: float
    n_selected_nodes: int
    partitions_loaded: tuple[str, ...]
    data_bytes: int
    records_examined: int
    expanded_within_partition: bool
    wall_seconds: float
    partitions_failed: tuple[str, ...] = ()
    """Partitions the query *wanted* but could not read — non-empty only
    under ``on_partition_failure="skip"`` with live storage faults."""
    partitions_forgone: tuple[str, ...] = ()
    """Planned partitions a *progressive* query deliberately never visited
    because its early-stopping rule fired (always empty for ``knn``/
    ``knn_batch`` and for progressive runs that reached full coverage)."""
    stage_seconds: tuple[float, ...] = (0.0,) * len(QUERY_STAGES)
    """Wall seconds per stage, in :data:`~repro.obs.QUERY_STAGES` order:
    signature, route, select, read, refine.  A batch row carries an even
    share (span ÷ rows) of its batch's signature and route spans.  A
    clock, like ``wall_seconds``."""
    cache_hits: int = 0
    """Reads of this query that the DFS read cache served (0 with the
    cache off)."""
    cache_misses: int = 0
    """Reads of this query that opened their partition into the DFS read
    cache (0 with the cache off)."""

    @property
    def n_partitions(self) -> int:
        return len(self.partitions_loaded)

    @property
    def degraded(self) -> bool:
        """True when the answer was computed without some partitions."""
        return bool(self.partitions_failed)

    @property
    def coverage(self) -> float:
        """Fraction of wanted partitions actually read (1.0 = complete).

        A query that wanted nothing (its routed plan resolved to zero
        physical partitions — possible for an empty index or when every
        planned partition was never materialised) is complete by
        definition: coverage is 1.0, never a zero-denominator error.
        Forgone partitions (early stopping) do not count against
        coverage — they were skipped by choice, not lost; see
        :attr:`visit_coverage` for the dial that includes them.
        """
        total = len(self.partitions_loaded) + len(self.partitions_failed)
        if total == 0:
            return 1.0
        return len(self.partitions_loaded) / total

    @property
    def visit_coverage(self) -> float:
        """Fraction of the *planned* partitions actually visited.

        Counts early-stop forgone partitions against the denominator, so
        a progressive answer served at 40% of its plan reports 0.4 here
        while :attr:`coverage` (failures only) may still be 1.0.  Defined
        as 1.0 when the plan was empty.
        """
        total = (
            len(self.partitions_loaded)
            + len(self.partitions_failed)
            + len(self.partitions_forgone)
        )
        if total == 0:
            return 1.0
        return (
            len(self.partitions_loaded) + len(self.partitions_failed)
        ) / total


@dataclass(frozen=True)
class QueryResult:
    """Approximate kNN answer set plus query diagnostics."""

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats


class _RoutedWalk:
    """One query's walk over its routed plan, from planning to its stats.

    Plan → visit → expand → select → :class:`QueryStats` → telemetry
    exist here once, and so does the query's record: the walk times its
    own stages and counts the cache hits and misses of its own reads,
    whichever other walks run meanwhile.  :meth:`ClimberIndex._knn_routed`
    runs the walk to its end; the progressive calls drive it one
    :meth:`visit` at a time and may :meth:`finish` it early.  Every record is scored
    once, when its run is read, on the run as the storage engine mapped
    it; the answer is a selection over those scores, so two drivers that
    made the same visits return the same bits.
    """

    def __init__(
        self,
        index: "ClimberIndex",
        query: np.ndarray,
        k: int,
        variant: str,
        adaptive_factor: int | None,
        candidates: list[GroupCandidate],
        primary: GroupCandidate | None,
        on_failure: str | None,
        prologue: tuple[float, float],
    ) -> None:
        # ``prologue`` is the (signature, route) seconds spent before the
        # walk exists; the wall clock starts where they did.
        self._t_mark = time.perf_counter()
        self._t0 = self._t_mark - prologue[0] - prologue[1]
        self._seconds = [*prologue, 0.0, 0.0, 0.0]
        self._hits = self._misses = 0
        self._index = index
        self.k = k
        self._variant = variant
        self._candidates = candidates
        if on_failure is None:
            on_failure = index.config.on_partition_failure
        self._skip_failures = on_failure == "skip"
        if primary is None:
            primary = index.select_primary(candidates)
        self._primary = primary
        self._n_selected, to_load = index._routing.plan(
            variant, primary, candidates, k,
            index.config.adaptive_factor if adaptive_factor is None
            else adaptive_factor,
        )
        #: The routed plan as ``(physical partition, wanted cluster keys)``
        #: in visit order: sorted base names, each base (when present)
        #: before the delta partitions appended to it later.
        self.plan: list[tuple[str, set[str]]] = []
        for pname in sorted(to_load):
            wanted = set(to_load[pname])
            if index.dfs.has_partition(pname):
                self.plan.append((pname, wanted))
            for delta in index.dfs.delta_partitions(pname):
                self.plan.append((delta, wanted))
        self.visited = 0
        self._neg2q = -2.0 * query
        self.query_sq = float(np.dot(query, query))
        self._scored: list[tuple[np.ndarray, np.ndarray]] = []
        self._loaded: list[str] = []
        self._failed: list[str] = []
        self._data_bytes = 0
        self._fallback_pool: list[tuple] = []
        self._charge(_SELECT)

    # The walk charges wall time to stages between marks; it may be
    # suspended between visits, so every entry point sets its own mark.

    def _mark(self) -> None:
        self._t_mark = time.perf_counter()

    def _charge(self, stage: int) -> None:
        now = time.perf_counter()
        self._seconds[stage] += now - self._t_mark
        self._t_mark = now

    def _score(
        self, run: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score one ``(ids, values, norms)`` run where it lies — the
        stored norms plus one matrix-vector product; keep 16 bytes a
        record, not the run."""
        ids, values, norms = run
        scored = (ids, block_scores(values, self._neg2q, norms))
        self._scored.append(scored)
        self._charge(_REFINE)
        return scored

    def visit(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Open the next planned partition, read and score its wanted clusters.

        Returns the ``(ids, scores)`` of the records read, or ``None`` when
        the partition holds none of the wanted clusters or was skipped as
        unreadable.  The open and the cluster read succeed or fail
        atomically from the query's view: a failure after retry exhaustion
        either aborts the query (mode ``"raise"``) or drops the whole
        partition (mode ``"skip"``) — never a half-read partition.
        :class:`PartitionNotFoundError` is never skipped: a partition the
        index references but the store never held is index/store
        inconsistency, not a transient fault.
        """
        actual, wanted = self.plan[self.visited]
        self.visited += 1
        self._mark()
        try:
            part, hit = self._index.dfs.read_partition_with_hit(actual)
            if hit:
                self._hits += 1
            elif hit is not None:
                self._misses += 1
            present: list[str] = []
            other: list[str] = []
            for key in part.cluster_keys():
                (present if key in wanted else other).append(key)
            # One cluster-range read per partition, served from the
            # payload mapping the open already checksummed: it slices the
            # runs these keys cover (adjacent clusters coalesce), with
            # their stored norms.
            run = part.read_clusters_with_norms(present) if present else None
        except StorageError as err:
            if not self._skip_failures or isinstance(err, PartitionNotFoundError):
                raise
            self._failed.append(actual)
            self._charge(_READ)
            return None
        self._loaded.append(actual)
        self._data_bytes += part.nbytes
        if other:
            # Remember the rest of the partition for the within-partition
            # expansion CLIMBER-kNN applies when the node is too small;
            # the records are only materialised if that happens.
            self._fallback_pool.append((actual, part, other, run is not None))
        self._charge(_READ)
        return None if run is None else self._score(run)

    def _expand_within_partitions(self) -> bool:
        """Fold in the visited partitions' other clusters when the targeted
        ones hold fewer than ``k`` records; whether that happened."""
        n_targeted = sum(ids.shape[0] for ids, _ in self._scored)
        if n_targeted >= self.k or not self._fallback_pool:
            return False
        for actual, part, other, contributed in self._fallback_pool:
            try:
                run = part.read_clusters_with_norms(other)
            except StorageError as err:
                if not self._skip_failures or isinstance(err, PartitionNotFoundError):
                    raise
                if not contributed:
                    # The partition contributed nothing usable after all:
                    # retract its load accounting and reclassify it as
                    # failed.  (A partition whose *targeted* clusters were
                    # already folded in stays loaded — only its expansion
                    # read degraded.)
                    self._loaded.remove(actual)
                    self._failed.append(actual)
                    self._data_bytes -= part.nbytes
                continue
            self._charge(_READ)
            self._score(run)
        return True

    def finish(self) -> QueryResult:
        """Expand if short, select the top-k, account; the walk's answer.

        Planned partitions not yet visited are reported as forgone.  The
        answer owns its memory: selection gathers the chosen rows into
        fresh arrays, nothing in it aliases a mapped partition.
        """
        self._mark()
        expanded = self._expand_within_partitions()
        self._charge(_READ)

        # Refinement is a selection over 16 bytes a record; no series is
        # copied, stacked or read again.
        ids = np.empty(0, dtype=np.int64)
        dists = np.empty(0, dtype=np.float64)
        examined = 0
        if self._scored:
            all_ids = np.concatenate([run_ids for run_ids, _ in self._scored])
            scores = np.concatenate([run for _, run in self._scored])
            chosen, dists = knn_select(scores, all_ids, self.k, self.query_sq)
            ids = all_ids[chosen]
            examined = all_ids.shape[0]
        self._charge(_REFINE)

        primary = self._primary
        stats = QueryStats(
            variant=self._variant,
            k=self.k,
            best_od=primary.od,
            group_ids=tuple(c.entry.group_id for c in self._candidates),
            path_len=primary.path_len,
            gn_size=primary.gn_count,
            n_selected_nodes=self._n_selected,
            partitions_loaded=tuple(self._loaded),
            data_bytes=self._data_bytes,
            records_examined=examined,
            expanded_within_partition=expanded,
            wall_seconds=self._t_mark - self._t0,
            partitions_failed=tuple(self._failed),
            partitions_forgone=tuple(
                actual for actual, _ in self.plan[self.visited:]
            ),
            stage_seconds=tuple(self._seconds),
            cache_hits=self._hits,
            cache_misses=self._misses,
        )
        tel = self._index._tel
        if tel.enabled:
            tel.record_query(stats)
        return QueryResult(ids, dists, stats)


def _partition_record_counts(dfs) -> list[int]:
    """Records per stored partition, from DFS header metadata (no payload
    read)."""
    return [dfs.record_count(p) for p in dfs.list_partitions()]


class ClimberIndex:
    """A built CLIMBER index over one data series dataset."""

    def __init__(self, artifacts: BuildArtifacts, config: ClimberConfig,
                 model: CostModel, telemetry: Telemetry | None = None) -> None:
        self._art = artifacts
        self.config = config
        self.model = model
        self._rng = np.random.default_rng(config.seed + 1)
        self._weights = decay_weights(
            config.prefix_length, config.decay, config.decay_rate
        )
        self._routing = RoutingTable(artifacts.skeleton, self._weights)
        # Telemetry resolution: an explicit argument wins; else adopt the
        # build's telemetry (so build.* and query.* metrics share one
        # registry); else create one per index from config.telemetry —
        # never the shared NULL_TELEMETRY singleton, so stats()/
        # reset_stats() always scope to this index.
        if telemetry is not None:
            self._tel = telemetry
        elif artifacts.telemetry is not NULL_TELEMETRY:
            self._tel = artifacts.telemetry
        else:
            self._tel = Telemetry(
                enabled=config.telemetry,
                sample_every=config.telemetry_sample_every,
            )

    @property
    def telemetry(self) -> Telemetry:
        """This index's telemetry (latency recording honours ``.enabled``)."""
        return self._tel

    @telemetry.setter
    def telemetry(self, telemetry: Telemetry) -> None:
        self._tel = telemetry

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: SeriesDataset,
        config: ClimberConfig | None = None,
        dfs=None,
        model: CostModel | None = None,
        telemetry: Telemetry | None = None,
    ) -> "ClimberIndex":
        """Build the index (paper Fig. 6); see :class:`ClimberConfig`.

        A dataset :meth:`append` would refuse is refused here too, before
        anything is stored.  ``telemetry`` overrides the
        :class:`~repro.obs.Telemetry` the build and the returned index
        record into (default: created from ``config.telemetry``).
        ``model`` only rides on ``index.model`` for the evaluation
        functions (``repro.evaluation.modeled_build_seconds`` /
        ``modeled_query_seconds``); the build itself models nothing.
        """
        config = config or ClimberConfig()
        model = model or CostModel()
        artifacts = build_index_artifacts(
            dataset, config, dfs=dfs, telemetry=telemetry,
        )
        return cls(artifacts, config, model)

    # -- incremental maintenance ------------------------------------------------

    def append(self, dataset: SeriesDataset) -> dict[str, object]:
        """Route new records into the existing index (incremental append).

        The paper motivates CLIMBER with sources that generate series
        continuously (ECG devices, weblogs); this routes a new batch
        through the *frozen* skeleton — same pivots, same groups, same
        tries — into fresh *delta* partition files next to the originals.
        Queries transparently read base + delta partitions, and the
        convention-based delta naming survives :meth:`reopen`.

        The skeleton is not rebalanced: like the paper's unseen-signature
        handling, records that cannot complete a root-to-leaf walk land in
        their group's default partition.  Periodic full rebuilds remain the
        answer to heavy drift.

        A batch is refused whole, before anything is stored or counted, by
        :func:`~repro.core.builder.check_records` (as :meth:`build` is).

        Returns a summary dict (records appended, partitions written).
        """
        check_records(dataset, self.series_length)
        cfg = self.config
        paa = paa_transform(dataset.values, cfg.word_length)
        ranked = permutation_prefixes(paa, self._art.pivots, cfg.prefix_length)
        gids = self._art.assigner.assign(ranked).group_indices

        # Batch route through the frozen skeleton's flat tries —
        # the same bulk pipeline construction Step 4 uses: one descend
        # sweep per group present in the batch, one stable lexsort into
        # final cluster layout, partitions encoded straight from array
        # slices.  Records whose walk stalls (or reaches an unpacked leaf)
        # land in their group's default partition, as before.
        router = self._art.skeleton.flat_router()
        kid_of = router.route(ranked, gids)
        order, parts = router.partition_layout(kid_of)

        dfs = self.dfs
        encoded = []
        for pid, start, end, header in parts:
            base = partition_name(pid)
            # Appends write ``<base>.d0``, ``<base>.d1``, ...: no registry
            # is persisted, a reopened DFS rebuilds its delta index from
            # the names it attaches.
            delta_id = f"{base}.d{len(dfs.delta_partitions(base))}"
            encoded.append((
                delta_id,
                dfs.engine.encode_arrays(delta_id, dataset.ids, dataset.values,
                                         header, rows=order[start:end]),
            ))
        # One store call for the whole append: the deltas land together or
        # not at all, and on disk as one file (DESIGN.md D6).
        dfs.write_encoded_partitions(encoded)
        self._art.n_records += dataset.count
        return {
            "records_appended": dataset.count,
            "delta_partitions": [delta_id for delta_id, _ in encoded],
        }

    # -- persistence ---------------------------------------------------------------

    def save_global_index(self) -> bytes:
        """Serialise the broadcastable structure (skeleton + pivots).

        Together with the DFS partitions this is the index's full
        persistent state — exactly what the paper's driver broadcasts in
        construction Step 4.
        """
        return SkeletonWithPivots(self._art.skeleton, self._art.pivots).to_bytes()

    @classmethod
    def reopen(
        cls,
        global_index: bytes,
        dfs,
        config: ClimberConfig,
        model: CostModel | None = None,
    ) -> "ClimberIndex":
        """Reconstruct a queryable index from persisted state.

        O(partitions), not O(bytes): record counts come from the DFS
        partition-header metadata when available, so no payload is read.
        The routing table is rebuilt by the constructor.

        Parameters
        ----------
        global_index:
            Bytes from :meth:`save_global_index`.
        dfs:
            The storage holding the data partitions written at build time.
        config:
            The configuration the index was built with (routing depends on
            word length, prefix length, and decay settings).
        """
        model = model or CostModel()
        loaded = SkeletonWithPivots.from_bytes(global_index)
        skeleton = loaded.skeleton
        persisted = {
            "prefix_length": skeleton.prefix_length,
            "n_pivots": skeleton.n_pivots,
            "word_length": skeleton.word_length,
        }
        for name, value in persisted.items():
            if value != getattr(config, name):
                raise ConfigurationError(
                    f"persisted skeleton has {name}={value}, "
                    f"config has {name}={getattr(config, name)}"
                )
        if loaded.pivots.shape != (config.n_pivots, config.word_length):
            raise ConfigurationError(
                f"persisted pivot matrix has shape {loaded.pivots.shape}, "
                f"config implies {(config.n_pivots, config.word_length)}"
            )
        assigner = GroupAssigner(
            skeleton.centroids,
            skeleton.n_pivots,
            skeleton.prefix_length,
            weights=decay_weights(config.prefix_length, config.decay,
                                  config.decay_rate),
            rng=np.random.default_rng(config.seed),
        )
        artifacts = BuildArtifacts(
            skeleton=skeleton,
            pivots=loaded.pivots,
            dfs=dfs,
            assigner=assigner,
            n_records=sum(_partition_record_counts(dfs)),
        )
        return cls(artifacts, config, model)

    # -- introspection ---------------------------------------------------------------

    @property
    def skeleton(self):
        return self._art.skeleton

    @property
    def pivots(self) -> np.ndarray:
        return self._art.pivots

    @property
    def dfs(self):
        return self._art.dfs

    @property
    def routing(self) -> RoutingTable:
        """The vectorised routing engine (centroid membership + weights)."""
        return self._routing

    @property
    def n_groups(self) -> int:
        return len(self._art.skeleton.groups)

    @property
    def n_partitions(self) -> int:
        return self._art.skeleton.n_partitions

    @property
    def n_records(self) -> int:
        return self._art.n_records

    @property
    def series_length(self) -> int:
        """Length of the indexed series, as the skeleton records it."""
        return self._art.skeleton.series_length

    @property
    def global_index_nbytes(self) -> int:
        """The paper's "global index size" (Figs. 8(b), 12): the bytes of
        :meth:`save_global_index`."""
        return len(self.save_global_index())

    def describe(self) -> dict[str, object]:
        """Structural summary of the index (for logging and examples).

        Returns group count, partition statistics, trie-node totals, and
        the serialised global-index size.  Partition record counts come
        from DFS metadata when available, so no payloads are read.
        """
        skeleton = self._art.skeleton
        partition_records = _partition_record_counts(self.dfs)
        root_counts = skeleton.node_count[skeleton.node_offset[:-1]]
        return {
            "records": self.n_records,
            "groups": self.n_groups,
            "partitions": self.n_partitions,
            "partitions_written": len(partition_records),
            "trie_nodes": skeleton.total_trie_nodes(),
            "global_index_bytes": self.global_index_nbytes,
            "largest_group_est": float(root_counts.max(initial=0.0)),
            "mean_partition_records": (
                float(np.mean(partition_records)) if partition_records else 0.0
            ),
            "max_partition_records": (
                int(max(partition_records)) if partition_records else 0
            ),
        }

    # -- query pipeline ---------------------------------------------------------------

    def query_signature(self, query: np.ndarray) -> np.ndarray:
        """Rank-sensitive signature of a query series (Algorithm 3 L2-4)."""
        q = np.asarray(query, dtype=np.float64).reshape(1, -1)
        paa = paa_transform(q, self.config.word_length)
        return permutation_prefixes(paa, self._art.pivots, self.config.prefix_length)[0]

    def group_candidates(
        self, ranked_sig: np.ndarray, od_slack: int = 0
    ) -> list[GroupCandidate]:
        """Groups at (or near) the smallest OD, ordered by (OD, WD, id).

        Implements Algorithm 3 lines 5-9 plus the bookkeeping the adaptive
        variant memorises: §VI allows memorising "all groups having the
        same smallest OD distance *or having a distance less than a certain
        threshold*" — ``od_slack`` is that threshold above the minimum.
        Falls back to group G0 when nothing overlaps.  OD/WD against all
        centroids come from the vectorised :class:`RoutingTable`.
        """
        od = self._routing.od_matrix(
            np.asarray(ranked_sig, dtype=np.int64).reshape(1, -1)
        )
        return self._routing.candidates(ranked_sig, od[0], od_slack=od_slack)

    def select_primary(self, candidates: list[GroupCandidate]) -> GroupCandidate:
        """Tie-breaking of Algorithm 3 lines 7-19: WD, path length, node size.

        Only groups at the strictly smallest OD compete for primary; any
        slack candidates exist purely for adaptive expansion.
        """
        return _select_primary(
            candidates, self._rng,
            wd_tol=wd_tie_tolerance(self._routing.total_weight),
        )

    # -- record-level search ------------------------------------------------------------

    @staticmethod
    def check_query_args(
        k: int,
        variant: str,
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
    ) -> None:
        """Refuse a ``k`` that is not an integer >= 1 (Python or NumPy
        integer, not ``bool``), an unknown ``variant``, an
        ``adaptive_factor`` that is neither ``None`` nor such an integer,
        or an ``on_partition_failure`` that is neither ``None``,
        ``"raise"`` nor ``"skip"``; every query entry point,
        :meth:`QueryService.submit` included, calls this first."""
        if not is_integer(k) or k < 1:
            raise ConfigurationError(f"k must be an integer >= 1, got {k!r}")
        if not isinstance(variant, str) or variant not in (
            "knn", "adaptive", "od-smallest"
        ):
            raise ConfigurationError(f"unknown variant {variant!r}")
        if adaptive_factor is not None and not (
            is_integer(adaptive_factor) and adaptive_factor >= 1
        ):
            raise ConfigurationError(
                f"adaptive_factor must be None or an integer >= 1, "
                f"got {adaptive_factor!r}"
            )
        if on_partition_failure is not None and not (
            isinstance(on_partition_failure, str)
            and on_partition_failure in ("raise", "skip")
        ):
            raise ConfigurationError(
                f"on_partition_failure must be 'raise' or 'skip', "
                f"got {on_partition_failure!r}"
            )

    def check_queries(self, queries: np.ndarray) -> np.ndarray:
        """``queries`` as a validated ``(q, n)`` float64 matrix.

        The one gate every query entry point passes before any routing or
        DFS read: a 1-D series or a 2-D batch, of the indexed length, real
        numbers (float, signed or unsigned integer dtypes — complex,
        boolean, string and object arrays are refused, never cast), all
        values finite.  Raises :class:`DimensionalityError` on a dtype or
        shape mismatch and :class:`NonFiniteValueError` on NaN/inf, naming
        the first offending row.
        """
        try:
            arr = np.asarray(queries)
        except (TypeError, ValueError) as err:
            raise DimensionalityError(
                f"queries are not a numeric array: {err}"
            ) from None
        if arr.dtype.kind not in "fiu":
            raise DimensionalityError(
                f"queries are not a real-numeric array: dtype {arr.dtype}"
            )
        arr = arr.astype(np.float64, copy=False)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionalityError(
                f"expected a 1-D series or a (q, n) batch, got ndim={arr.ndim}"
            )
        if arr.shape[0] == 0:
            return arr
        n = self.series_length
        if arr.shape[1] != n:
            raise DimensionalityError(
                f"query length {arr.shape[1]} != indexed length {n}"
            )
        if not np.isfinite(arr).all():
            row = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
            raise NonFiniteValueError(
                f"query row {row} holds NaN or infinite values"
            )
        return arr

    def check_query(self, query: np.ndarray) -> np.ndarray:
        """One query — 1-D or ``(1, n)`` — as a validated 1-D series."""
        arr = self.check_queries(query)
        if arr.shape[0] != 1:
            raise DimensionalityError(
                f"expected one series (1-D or (1, n)), got shape {arr.shape}"
            )
        return arr[0]

    def knn(
        self,
        query: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
    ) -> QueryResult:
        """Approximate kNN query (Def. 4).

        Parameters
        ----------
        query:
            A raw series of the indexed length (z-normalised like the data).
        k:
            Number of neighbours.
        variant:
            ``"knn"``, ``"adaptive"`` or ``"od-smallest"`` (see module doc).
        adaptive_factor:
            Partition-budget multiplier override, an integer >= 1 (2 for
            -2X, 4 for -4X); ``None`` defers to ``config.adaptive_factor``.
        on_partition_failure:
            ``"raise"`` (default) propagates storage failures; ``"skip"``
            drops unreadable partitions from the candidate set and answers
            from the remainder, recording them in
            ``stats.partitions_failed`` (``stats.degraded`` /
            ``stats.coverage``).  ``None`` defers to
            ``config.on_partition_failure``.  A partition the
            index references but the store has never held
            (:class:`~repro.exceptions.PartitionNotFoundError`) always
            raises — that is index/store inconsistency, not a fault.

        Raises
        ------
        DimensionalityError, NonFiniteValueError
            ``query`` is not one finite series of the indexed length
            (see :meth:`check_queries`); nothing has been read by then.
        """
        return self._knn_routed(self._start_walk(
            query, k, variant, adaptive_factor, on_partition_failure
        ))

    def _start_walk(
        self,
        query: np.ndarray,
        k: int,
        variant: str,
        adaptive_factor: int | None,
        on_partition_failure: str | None,
    ) -> _RoutedWalk:
        """Validate, route and plan one query; its walk.

        Stages 1-3 run here, eagerly — signature, routing and primary
        selection consume the index RNG stream the same way for
        :meth:`knn` and :meth:`knn_progressive` — and nothing has been
        read when this returns.
        """
        self.check_query_args(k, variant, adaptive_factor,
                              on_partition_failure)
        query = self.check_query(query)
        t0 = time.perf_counter()
        ranked = self.query_signature(query)
        t_route = time.perf_counter()
        candidates = self.group_candidates(
            ranked, od_slack=1 if variant == "adaptive" else 0
        )
        return _RoutedWalk(
            self, query, k, variant, adaptive_factor, candidates, None,
            on_partition_failure,
            (t_route - t0, time.perf_counter() - t_route),
        )

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
    ) -> list[QueryResult]:
        """Answer a batch of kNN queries (rows of ``queries``).

        The batch pipeline shares work across rows: one PAA transform, one
        signature computation and one OD routing matrix over the
        *distinct* signatures (duplicate queries — common in periodic
        monitoring traffic — are routed once) serve the whole batch, and
        partition loads are shared through the DFS read cache when it is
        enabled.  Results and per-query stats are identical to calling
        :meth:`knn` once per row; only ``wall_seconds`` reflects the
        shared-work split.

        With ``config.n_workers > 1`` the per-row node selection and
        record scans run as row shards on a thread pool.  The split keeps
        answers bit-identical to the
        serial sweep for any worker count: the shared OD matrix is
        computed once up front; the only RNG consumer
        (:meth:`select_primary`) runs on this thread in row order before
        the fan-out; and each shard's remaining work is a pure function of
        its rows.  Logical DFS counters are exact either way (commutative
        sums under the DFS lock); only the *physical*
        ``cache_hits``/``cache_misses`` split may shift with worker
        interleaving, as any real cache's would.
        """
        return self._walk_rows(
            queries, k, variant, adaptive_factor, on_partition_failure,
            self._knn_routed,
        )

    def _walk_rows(
        self,
        queries: np.ndarray,
        k: int,
        variant: str,
        adaptive_factor: int | None,
        on_partition_failure: str | None,
        drive,
    ) -> list:
        """The batch calls' body: route every row, ``drive(walk)`` each.

        Rows run as shards on the configured executor.
        """
        self.check_query_args(k, variant, adaptive_factor,
                              on_partition_failure)
        arr = self.check_queries(queries)
        if arr.shape[0] == 0:
            return []
        candidates_of, primaries, prologue = self._route_batch(arr, variant)

        def run_shard(span):
            return [
                drive(_RoutedWalk(
                    self, arr[i], k, variant, adaptive_factor,
                    candidates_of[i], primaries[i], on_partition_failure,
                    prologue,
                ))
                for i in range(*span)
            ]

        with make_executor(self.config.n_workers) as executor:
            shards = executor.map(
                self._tel.wrap_tasks("query.shard", run_shard),
                split_ranges(arr.shape[0], _QUERY_SHARD_ROWS),
            )
        return [answer for shard in shards for answer in shard]

    def _route_batch(
        self, arr: np.ndarray, variant: str
    ) -> tuple[list[list[GroupCandidate]], list[GroupCandidate],
               tuple[float, float]]:
        """The batch pipelines' shared prologue: signatures, routing, primaries.

        Returns ``(candidates_of, primaries, prologue)``, one entry per
        row of ``arr`` in the first two.  ``prologue`` is each row's even
        share (span ÷ rows) of the signature and routing spans, so the
        rows' stage clocks sum to the spans and per-query
        ``wall_seconds`` stay comparable to :meth:`knn`'s; with telemetry
        enabled the whole spans go to ``query.batch.signature_s`` /
        ``query.batch.route_s``.

        Routing is the single-query path's, row by row — one OD row, then
        Weight Distances accumulated lazily for just the chosen groups —
        so a batch of one costs one :meth:`knn`.  Primary selection is the
        only ``_rng`` consumer; running it here, serially in row order,
        pins the RNG stream to the serial sweep's before the RNG-free
        shard scans fan out.
        """
        t0 = time.perf_counter()
        paa = paa_transform(arr, self.config.word_length)
        ranked = permutation_prefixes(
            paa, self._art.pivots, self.config.prefix_length
        )
        od_slack = 1 if variant == "adaptive" else 0
        t_route = time.perf_counter()
        # Identical signatures route identically, so the OD matrix is
        # computed once per *distinct* signature (row bytes as dict keys,
        # in first-occurrence order) and fanned back out.  Row results are
        # independent of batch composition, so each query sees
        # bit-identical distances with or without the deduplication.
        slot_of: dict[bytes, int] = {}
        slots = [
            slot_of.setdefault(sig.tobytes(), len(slot_of)) for sig in ranked
        ]
        uniq = np.frombuffer(b"".join(slot_of), dtype=ranked.dtype)
        od = self._routing.od_matrix(uniq.reshape(len(slot_of), -1))
        candidates_of = []
        primaries = []
        for sig, slot in zip(ranked, slots):
            candidates_of.append(
                self._routing.candidates(sig, od[slot], od_slack=od_slack)
            )
            primaries.append(self.select_primary(candidates_of[-1]))
        spans = (t_route - t0, time.perf_counter() - t_route)
        tel = self._tel
        if tel.enabled:
            for stage, seconds in zip(QUERY_STAGES, spans):
                tel.registry.histogram(f"query.batch.{stage}_s").observe(seconds)
        n_rows = arr.shape[0]
        return (candidates_of, primaries,
                (spans[0] / n_rows, spans[1] / n_rows))

    def _knn_routed(self, walk: _RoutedWalk) -> QueryResult:
        """Stage 4 of the pipeline: run the planned walk to its end."""
        for _ in walk.plan:
            walk.visit()
        return walk.finish()

    # -- progressive queries -----------------------------------------------------------

    def _streak(self, early_stop: object) -> int | None:
        """Stop rule of a progressive call: the call's, else the config's."""
        return parse_early_stop(
            self.config.early_stop if early_stop is None else early_stop
        )

    def knn_progressive(
        self,
        query: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        early_stop: str | int | None = None,
    ) -> Iterator[ProgressiveUpdate]:
        """Progressive kNN: stream improving answers partition by partition.

        The routed plan of the equivalent :meth:`knn` call is walked in
        its promise order, yielding one
        :class:`~repro.core.progressive.ProgressiveUpdate` per physical
        partition visited (running top-k, improvement, stability) and a
        final update carrying the full :class:`QueryStats`.  With
        ``early_stop`` disabled the final update is **bit-identical** to
        :meth:`knn` — same ids, distances, stats fields (bar
        ``wall_seconds``) and logical DFS counters — because both calls
        drive the one routed walk: every record is scored once, when its
        run is read, and both answers are the same selection over the
        same scores.

        Parameters beyond :meth:`knn`'s
        ------------------------------
        early_stop:
            ``"off"``, or a streak ``s`` as ``"streak:<s>"`` or an
            integer: stop once the top-k has survived ``s`` consecutive
            partition visits unchanged (see
            :func:`~repro.core.config.parse_early_stop`).  ``None`` defers
            to ``config.early_stop``.  The rule never fires before ``k``
            answers are in hand, so an index holding fewer than ``k``
            records always runs to full coverage.

        Note: validation, signature and routing run eagerly at call time
        (consuming the index RNG stream exactly like :meth:`knn`); only
        the partition visits are lazy.
        """
        streak = self._streak(early_stop)
        walk = self._start_walk(
            query, k, variant, adaptive_factor, on_partition_failure
        )
        return self._stream_walk(walk, streak)

    def knn_batch_progressive(
        self,
        queries: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        early_stop: str | int | None = None,
    ) -> list[ProgressiveUpdate]:
        """Progressive kNN over a batch: one *final* update per row.

        The batch preamble is :meth:`knn_batch`'s — shared PAA/signature
        work, one routing matrix over distinct signatures, serial
        ``select_primary`` in row order pinning the RNG stream — and each
        row then runs its own progressive walk (with the shared early-stop
        rule) inside the same sharded fan-out.  Intermediate updates are
        consumed internally; the returned
        :class:`~repro.core.progressive.ProgressiveUpdate` per row carries
        the answer, its stats and the forgone coverage.  With stopping
        disabled every row is bit-identical to :meth:`knn_batch`.
        """
        streak = self._streak(early_stop)

        def drain(walk):
            final = None
            for final in self._stream_walk(walk, streak):
                pass
            return final

        return self._walk_rows(
            queries, k, variant, adaptive_factor, on_partition_failure, drain,
        )

    def _stream_walk(
        self, walk: _RoutedWalk, streak: int | None
    ) -> Iterator[ProgressiveUpdate]:
        """Drive ``walk`` one visit at a time, yielding the running top-k.

        The running top-k is kept from the scores each visit already
        produced — a visit whose best record lies beyond the current k-th
        neighbour touches nothing — and is exact over the records seen so
        far.  The final update is :meth:`_RoutedWalk.finish`'s selection
        over those same scores: with stopping off it is what
        :meth:`_knn_routed` returns for the same plan, bit for bit; after
        an early stop it equals the last running top-k.
        """
        k = walk.k
        query_sq = walk.query_sq
        n_planned = len(walk.plan)
        top_ids = np.empty(0, dtype=np.int64)
        top_scores = top_dists = np.empty(0, dtype=np.float64)
        kth = float("inf")
        stable = 0
        stopped = False

        while walk.visited < n_planned:
            scored = walk.visit()
            prev_kth = kth
            new_neighbors = 0
            if scored is not None and (
                np.sqrt(max(scored[1].min() + query_sq, 0.0)) <= kth
            ):
                cand_ids = np.concatenate((top_ids, scored[0]))
                cand_scores = np.concatenate((top_scores, scored[1]))
                chosen, top_dists = knn_select(cand_scores, cand_ids, k, query_sq)
                new_neighbors = int(
                    np.count_nonzero(chosen >= top_ids.shape[0])
                )
                top_ids = cand_ids[chosen]
                top_scores = cand_scores[chosen]
                if top_ids.shape[0] >= k:
                    kth = float(top_dists[k - 1])
            # A visit that let no record in — an unreadable (skipped)
            # partition included — extends the stable streak.
            stable = 0 if new_neighbors else stable + 1
            if np.isfinite(prev_kth) and prev_kth > 0 and kth < prev_kth:
                improvement = (prev_kth - kth) / prev_kth
            else:
                improvement = 0.0

            yield ProgressiveUpdate(
                ids=top_ids,
                distances=top_dists,
                k=k,
                partitions_visited=walk.visited,
                partitions_planned=n_planned,
                new_neighbors=new_neighbors,
                kth_distance=kth,
                improvement=improvement,
                stable_steps=stable,
                stability=stable / walk.visited,
                done=False,
            )
            if (streak is not None and stable >= streak
                    and top_ids.shape[0] >= k):
                # A rule firing on the last planned partition forgoes
                # nothing — that is a full-coverage answer, not an early
                # stop, so the flag (and the early_stops counter) stays
                # down.
                stopped = walk.visited < n_planned
                break

        # The stop rule requires k answers in hand, and fewer than k
        # targeted records means fewer than k in hand, so the walk's
        # within-partition expansion only ever runs at full coverage.
        result = walk.finish()
        stats = result.stats
        visited = walk.visited
        if self._tel.enabled:
            self._tel.record_progressive(stats, visited, n_planned, stopped)
        yield ProgressiveUpdate(
            ids=result.ids,
            distances=result.distances,
            k=k,
            partitions_visited=visited,
            partitions_planned=n_planned,
            new_neighbors=0,
            kth_distance=(
                float(result.distances[k - 1])
                if result.distances.shape[0] >= k else float("inf")
            ),
            improvement=0.0,
            stable_steps=stable,
            stability=stable / visited if visited else 1.0,
            done=True,
            stopped_early=stopped,
            partitions_forgone=stats.partitions_forgone,
            stats=stats,
        )

    # -- observability surface ---------------------------------------------------------

    @staticmethod
    def _explain_entry(result: QueryResult | ProgressiveUpdate) -> dict:
        """One query's structured breakdown (explain_query response body);
        ``result`` is a :class:`QueryResult` or a final progressive update."""
        stats = result.stats
        return {
            "variant": stats.variant,
            "k": stats.k,
            "stages": dict(zip(QUERY_STAGES, stats.stage_seconds)),
            "partitions_probed": stats.n_partitions,
            "partitions": list(stats.partitions_loaded),
            "bytes_read": stats.data_bytes,
            "records_examined": stats.records_examined,
            "cache": {"hits": stats.cache_hits, "misses": stats.cache_misses},
            "best_od": stats.best_od,
            "groups_considered": list(stats.group_ids),
            "n_selected_nodes": stats.n_selected_nodes,
            "expanded_within_partition": stats.expanded_within_partition,
            "degraded": stats.degraded,
            "coverage": stats.coverage,
            "partitions_failed": list(stats.partitions_failed),
            "wall_seconds": stats.wall_seconds,
            "ids": [int(i) for i in result.ids],
            "distances": [float(d) for d in result.distances],
        }

    @staticmethod
    def _explain_progressive(updates: list[ProgressiveUpdate]) -> dict:
        """The progressive-plan section of an explain entry."""
        final = updates[-1]
        return {
            "partitions_planned": final.partitions_planned,
            "partitions_visited": final.partitions_visited,
            "visited_fraction": final.visited_fraction,
            "stopped_early": final.stopped_early,
            "partitions_forgone": list(final.partitions_forgone),
            "steps": [
                {
                    "partitions_visited": u.partitions_visited,
                    "new_neighbors": u.new_neighbors,
                    "kth_distance": u.kth_distance,
                    "improvement": u.improvement,
                    "stable_steps": u.stable_steps,
                    "stability": u.stability,
                }
                for u in updates
                if not u.done
            ],
        }

    @staticmethod
    def _explain_totals(entries: list[dict]) -> dict:
        """Aggregate section of a batch explain response.

        The aggregate ``coverage`` guards its denominator: a batch whose
        queries wanted no partitions at all (every candidate set empty or
        deduplicated away) is fully covered by definition — 1.0, never a
        division by zero.
        """
        total_loaded = sum(len(e["partitions"]) for e in entries)
        total_failed = sum(len(e["partitions_failed"]) for e in entries)
        wanted = total_loaded + total_failed
        return {
            "partitions_probed": sum(
                e["partitions_probed"] for e in entries
            ),
            "bytes_read": sum(e["bytes_read"] for e in entries),
            "records_examined": sum(
                e["records_examined"] for e in entries
            ),
            "cache_hits": sum(e["cache"]["hits"] for e in entries),
            "cache_misses": sum(e["cache"]["misses"] for e in entries),
            "wall_seconds": sum(e["wall_seconds"] for e in entries),
            "degraded_queries": sum(e["degraded"] for e in entries),
            "partitions_failed": total_failed,
            "coverage": (total_loaded / wanted) if wanted else 1.0,
        }

    def explain_query(
        self,
        query: np.ndarray,
        k: int,
        variant: str = "adaptive",
        adaptive_factor: int | None = None,
        on_partition_failure: str | None = None,
        progressive: bool = False,
        early_stop: str | int | None = None,
    ) -> dict:
        """Run a query and return its structured per-stage breakdown.

        The query-plan view of one ``knn`` call (1-D ``query``) or one
        ``knn_batch`` call (2-D ``query``): per-stage wall timings
        (signature/route/select/read/refine), partitions probed, logical
        bytes read, records examined, DFS cache hits/misses, and the
        answer set itself — everything JSON-able, stamped with
        :data:`~repro.obs.OBS_SCHEMA`.

        With ``progressive=True`` (implied by passing ``early_stop``) the
        query runs through :meth:`knn_progressive` and each entry gains a
        ``"progressive"`` section: the routed plan size, how much of it
        was visited vs forgone, and the per-step improvement/stability
        trajectory.  Batch rows then run as serial per-row progressive
        walks (RNG-equivalent to the batch pipeline).

        Works regardless of ``config.telemetry``: every query fills its
        own record (``QueryStats.stage_seconds``, ``cache_hits``,
        ``cache_misses``) and explain reads it.  The query *runs for
        real*: it consumes the index RNG stream exactly like the
        equivalent ``knn`` / ``knn_batch`` call and charges the DFS
        logical counters — explain is a recorded query, not a dry run.
        """
        self.check_query_args(k, variant, adaptive_factor,
                              on_partition_failure)
        arr = np.asarray(query)
        run_progressive = progressive or early_stop is not None
        mode = "knn" if arr.ndim == 1 else "knn_batch"
        shared_stages: list[str] = []
        if run_progressive:
            mode += "_progressive"
            entries = []
            for row in self.check_queries(arr):
                # Per-row walks compute their own signatures/routes, so
                # nothing is amortised across rows here.
                updates = list(self.knn_progressive(
                    row, k, variant, adaptive_factor,
                    on_partition_failure=on_partition_failure,
                    early_stop=early_stop,
                ))
                entry = self._explain_entry(updates[-1])
                entry["progressive"] = self._explain_progressive(updates)
                entries.append(entry)
        elif arr.ndim == 1:
            entries = [self._explain_entry(self.knn(
                arr, k, variant, adaptive_factor,
                on_partition_failure=on_partition_failure,
            ))]
        else:
            shared_stages = ["signature", "route"]
            entries = [
                self._explain_entry(result)
                for result in self.knn_batch(
                    arr, k, variant, adaptive_factor,
                    on_partition_failure=on_partition_failure,
                )
            ]
        if arr.ndim == 1:
            return {**entries[0], "schema": OBS_SCHEMA, "mode": mode}
        return {
            "schema": OBS_SCHEMA,
            "mode": mode,
            "batch_size": len(entries),
            "shared_stages": shared_stages,
            "queries": entries,
            "totals": self._explain_totals(entries),
        }

    def stats(self) -> dict:
        """Process-lifetime aggregates of this index, as one JSON-able dict.

        Four sections: a structural ``index`` summary, the index-scoped
        ``metrics`` registry (build spans, query histograms and counters —
        populated when telemetry is enabled), the always-on ``dfs``
        logical counters (+ cache occupancy), and the ``process`` global
        registry (:func:`repro.obs.global_registry`).
        """
        dfs_section: dict[str, object] = dataclasses.asdict(self.dfs.counters)
        dfs_section["cache_used_bytes"] = self.dfs.cache_used_bytes
        return {
            "schema": OBS_SCHEMA,
            "telemetry_enabled": self._tel.enabled,
            "index": {
                "records": self.n_records,
                "groups": self.n_groups,
                "partitions": self.n_partitions,
            },
            "metrics": self._tel.registry.snapshot(),
            "dfs": dfs_section,
            "process": global_registry().snapshot(),
        }

    def reset_stats(self) -> None:
        """Zero this index's metric registry (histograms, query counters).

        Scoped on purpose: the DFS *logical* counters (paper access-volume
        accounting) and the process-global registry are not touched —
        reset them via ``dfs.registry.reset()`` /
        ``repro.obs.global_registry().reset()`` explicitly if a test needs
        a clean slate.
        """
        self._tel.registry.reset()
