"""CLIMBER-INX construction (paper Fig. 6).

The four steps, executed on the input dataset:

1. partition-level sampling; PAA + pivot selection + rank-sensitive
   signatures of the sample;
2. aggregation of signatures and data-driven centroid selection
   (Algorithm 2);
3. group formation (Algorithm 1), per-group trie partitioning (§IV-D) and
   FFD leaf packing (Def. 13) — yielding the index skeleton;
4. broadcast of skeleton + pivots, full-data signature conversion, and
   re-distribution of every record into its physical partition.

The build models nothing: what it would cost on the paper's cluster
(Figs. 8, 10(a)) is :func:`repro.evaluation.modeled_build_seconds`, from
the sample counts the skeleton keeps and the stored partitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from repro.core.assignment import GroupAssigner
from repro.core.centroids import compute_centroids
from repro.core.config import ClimberConfig
from repro.core.packing import first_fit_decreasing
from repro.core.parallel import Executor, make_executor, split_ranges
from repro.core.skeleton import GroupEntry, IndexSkeleton, partition_name
from repro.exceptions import ConfigurationError, NonFiniteValueError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.pivots import decay_weights, permutation_prefixes, select_random_pivots
from repro.series import SeriesDataset, paa_transform
from repro.storage import SimulatedDFS

__all__ = ["BuildArtifacts", "build_index_artifacts", "check_records",
           "split_group"]


@dataclass
class BuildArtifacts:
    """Everything the builder produces; consumed by ClimberIndex."""

    skeleton: IndexSkeleton
    pivots: np.ndarray
    dfs: SimulatedDFS
    assigner: GroupAssigner
    n_records: int
    telemetry: Telemetry = field(default_factory=lambda: NULL_TELEMETRY)
    """The telemetry the build recorded into (``build.*`` histograms and
    span timings when enabled).  ``ClimberIndex.build`` adopts it so query
    metrics land on the same registry."""


def check_records(dataset: SeriesDataset, length: int | None = None) -> None:
    """Refuse a batch whole, before a byte is stored (``build`` and
    ``append`` both start here): :class:`ConfigurationError` for a series
    length other than ``length`` (the indexed one, if any) or repeated ids,
    :class:`NonFiniteValueError` naming the first NaN/inf row — stored, it
    would sit under a meaningless signature where no query finds it."""
    if length is not None and dataset.length != length:
        raise ConfigurationError(
            f"series length {dataset.length} != indexed length {length}"
        )
    values = dataset.values
    # min/max see NaN and ±inf without a full-size boolean temporary.
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        row = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
        raise NonFiniteValueError(f"row {row} holds NaN or infinite values")
    ids = np.sort(dataset.ids)  # a fraction of what np.unique costs
    if (ids[1:] == ids[:-1]).any():
        raise ConfigurationError("ids repeat within the batch")


def build_index_artifacts(
    dataset: SeriesDataset,
    config: ClimberConfig,
    dfs: SimulatedDFS | None = None,
    telemetry: Telemetry | None = None,
) -> BuildArtifacts:
    """Run the full four-step construction workflow.

    Step 4 streams the dataset through PAA -> ``permutation_prefixes`` ->
    vectorised ``assign`` in row blocks, routes every record through the
    skeleton's :class:`~repro.core.trie_flat.FlatTrieRouter` in bulk and
    writes each partition straight from the sorted arrays.

    Parameters
    ----------
    telemetry:
        :class:`~repro.obs.Telemetry` the build records per-stage spans
        into (``build.skeleton_s``/``convert_s``/``redistribute_s``
        histograms, per-block and per-encode task timings).  ``None``
        creates one from ``config.telemetry`` — disabled by default, so
        the build pays one flag check per stage.  Observation only: the
        produced partitions, counters and RNG stream are bit-identical
        with telemetry on or off.
    """
    tel = telemetry if telemetry is not None else (
        Telemetry(enabled=True, sample_every=config.telemetry_sample_every)
        if config.telemetry else NULL_TELEMETRY
    )
    t0 = time.perf_counter()
    check_records(dataset)
    if dataset.length < config.word_length:
        raise ConfigurationError(
            f"series length {dataset.length} < word length {config.word_length}"
        )
    dfs = dfs if dfs is not None else SimulatedDFS()
    rng = np.random.default_rng(config.seed)
    n = dataset.length
    w, r, m = config.word_length, config.n_pivots, config.prefix_length
    capacity = config.capacity or dfs.block_records(n)

    # ------------------------------------------------------------------ Step 1
    # The input partitions are views of the dataset; only the sampled
    # ones are gathered, and only until their PAA is taken.
    chunks = dataset.split_into_chunks(config.n_input_partitions)
    n_sampled = max(1, round(config.sample_fraction * len(chunks)))
    sample_idx = np.sort(rng.choice(len(chunks), size=n_sampled, replace=False))
    sample_paa = paa_transform(
        np.concatenate([chunks[i].values for i in sample_idx], axis=0), w
    )
    alpha = sample_paa.shape[0] / dataset.count
    if r > sample_paa.shape[0]:
        raise ConfigurationError(
            f"sample holds {sample_paa.shape[0]} series < n_pivots {r}; "
            "increase sample_fraction or decrease n_pivots"
        )
    pivots = select_random_pivots(sample_paa, r, rng)
    sample_ranked = permutation_prefixes(sample_paa, pivots, m)

    # ------------------------------------------------------------------ Step 2
    # Signature aggregation is pure array work: one lexicographic
    # np.unique over the sample's ranked signatures (replacing a Python
    # Counter over tuples that walked every sampled row), and a second over
    # their sorted rows for the rank-insensitive statistics.  Downstream is
    # order-insensitive: compute_centroids re-sorts by (-frequency,
    # signature) internally, and the distinct ranked rows come out in the
    # same lexicographic order the old ``sorted(counter)`` produced.
    distinct_ranked, distinct_freqs = np.unique(
        np.asarray(sample_ranked, dtype=np.int64), axis=0, return_counts=True
    )
    unranked_rows, unranked_inverse = np.unique(
        np.sort(distinct_ranked, axis=1), axis=0, return_inverse=True
    )
    unranked_freq_arr = np.zeros(unranked_rows.shape[0], dtype=np.int64)
    np.add.at(
        unranked_freq_arr,
        np.asarray(unranked_inverse).reshape(-1),
        distinct_freqs,
    )
    unranked_sigs = [tuple(int(p) for p in row) for row in unranked_rows]
    unranked_freqs = unranked_freq_arr.tolist()
    centroids = compute_centroids(
        unranked_sigs,
        unranked_freqs,
        sample_fraction=alpha,
        capacity=capacity,
        epsilon=config.epsilon,
        max_centroids=config.max_centroids,
        n_pivots=r,
    )

    # ------------------------------------------------------------------ Step 3
    weights = decay_weights(m, config.decay, config.decay_rate)
    assigner = GroupAssigner(centroids, r, m, weights=weights, rng=rng)
    group_of_sig = assigner.assign(distinct_ranked).group_indices

    n_groups = len(centroids) + 1
    # Each group's members in the lexicographic order of distinct_ranked:
    # the order split_group's contiguous ranges need.
    members: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in range(n_groups)]
    for row, freq, gid in zip(
        distinct_ranked.tolist(), distinct_freqs.tolist(), group_of_sig.tolist()
    ):
        members[gid].append((tuple(row), freq / alpha))

    groups: list[GroupEntry] = []
    node_offset, node_pivot, node_count, subtree_end, leaf_pid = [0], [], [], [], []
    next_pid = 0
    for gid in range(n_groups):
        pivot, count, end, pid, default_pid = split_group(
            [s for s, _ in members[gid]], [c for _, c in members[gid]],
            capacity, next_pid,
        )
        subtree_end += [e + node_offset[-1] for e in end]
        node_offset.append(node_offset[-1] + len(pivot))
        node_pivot += pivot
        node_count += count
        leaf_pid += pid
        next_pid = max(pid) + 1
        groups.append(GroupEntry(
            gid, () if gid == 0 else centroids[gid - 1], default_pid
        ))
    skeleton = IndexSkeleton(
        prefix_length=m,
        n_pivots=r,
        word_length=w,
        series_length=n,
        groups=groups,
        n_partitions=next_pid,
        node_offset=node_offset,
        node_pivot=node_pivot,
        node_count=node_count,
        subtree_end=subtree_end,
        leaf_pid=leaf_pid,
        sample_records=sample_paa.shape[0],
        sample_signatures=len(distinct_ranked),
        sample_pivot_sets=len(unranked_sigs),
    )
    if tel.enabled:
        tel.registry.histogram("build.skeleton_s").observe(
            time.perf_counter() - t0
        )

    # ------------------------------------------------------------------ Step 4
    # Full-data signature conversion + group assignment.  Tie-break draws
    # depend only on the global row order, never on how rows are blocked
    # into assign calls, so the conversion is free to use larger blocks
    # than the input chunking.  Block conversion and partition encodes
    # run on the configured executor (serial for n_workers=1 —
    # bit-identical results either way).
    with make_executor(config.n_workers) as executor:
        with tel.trace("build.convert"):
            ranked_all, gids_all = _convert_fused(
                dataset, pivots, assigner, w, m, executor=executor,
                telemetry=tel,
            )
        # Re-distribution of every record into its physical partition.
        with tel.trace("build.redistribute"):
            _redistribute_flat(
                dataset, skeleton, ranked_all, gids_all, dfs,
                executor=executor, telemetry=tel,
            )
    if tel.enabled:
        tel.registry.histogram("build.wall_s").observe(time.perf_counter() - t0)
    return BuildArtifacts(
        skeleton=skeleton,
        pivots=pivots,
        dfs=dfs,
        assigner=assigner,
        n_records=dataset.count,
        telemetry=tel,
    )


def split_group(
    signatures: list[tuple[int, ...]],
    counts: list[float],
    capacity: float,
    first_pid: int,
) -> tuple[list[int], list[float], list[int], list[int], int]:
    """Split one group into its partition trie (§IV-D, Fig. 5) and pack
    the leaves First Fit Decreasing (Def. 13) into ``first_pid, ...``.

    ``signatures`` are the group's distinct ranked signatures, sorted, and
    ``counts`` their estimated full-scale records.  A node above
    ``capacity`` splits while signature positions remain: its members are
    a contiguous range, its children the runs of equal pivot at its depth,
    its count Python ``sum`` over the range in order (counts decide ties).
    Returns the pre-order arrays in local ids — edge pivot, count, subtree
    end, leaf partition — and the least loaded partition, the default.
    """
    prefix_len = len(signatures[0]) if signatures else 0
    pivot: list[int] = []
    count: list[float] = []
    end: list[int] = []
    leaves: list[tuple[tuple[int, ...], int]] = []
    # Work items: (first member, end member, depth, edge pivot, count), or
    # a node id whose subtree ends once its children are emitted.
    stack: list = [(0, len(signatures), 0, -1, float(sum(counts)))]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            end[item] = len(pivot)
            continue
        lo, hi, depth, edge, total = item
        node = len(pivot)
        pivot.append(edge)
        count.append(total)
        end.append(node + 1)
        if total <= capacity or depth >= prefix_len:
            leaves.append((tuple(signatures[lo][:depth]) if depth else (), node))
            continue
        stack.append(node)
        children = []
        for p, run in groupby(range(lo, hi), lambda i: signatures[i][depth]):
            first = next(run)
            stop = first + 1 + sum(1 for _ in run)
            children.append((first, stop, depth + 1, p,
                             float(sum(counts[first:stop]))))
        stack.extend(reversed(children))

    # Leaves are keyed by path: FFD breaks size ties on str(key).
    node_of = dict(leaves)
    bins = first_fit_decreasing(
        [(path, count[node]) for path, node in leaves], capacity
    )
    leaf_pid = [-1] * len(pivot)
    loads = []
    for pid, paths in enumerate(bins, start=first_pid):
        load = 0.0
        for path in paths:
            leaf_pid[node_of[path]] = pid
            load += count[node_of[path]]
        loads.append(load)
    return pivot, count, end, leaf_pid, first_pid + int(np.argmin(loads))


def _convert_block(task):
    """One conversion block: PAA -> signatures -> deferred assignment.

    A pure function of its task tuple.  The RNG-dependent tie resolution
    is *not* done here: :meth:`GroupAssigner.assign_deferred` returns the
    pending draws and the caller resolves them serially in block order,
    which is what keeps every worker count on the exact RNG stream of a
    sequential sweep.
    """
    values, pivots, assigner, word_length, prefix_length = task
    paa = paa_transform(values, word_length)
    ranked = permutation_prefixes(paa, pivots, prefix_length)
    gids, _od_ties, pending = assigner.assign_deferred(ranked)
    return ranked, gids, pending


def _convert_fused(
    dataset: SeriesDataset,
    pivots: np.ndarray,
    assigner: GroupAssigner,
    word_length: int,
    prefix_length: int,
    executor: Executor,
    block_rows: int = 4096,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> tuple[np.ndarray, np.ndarray]:
    """Streamed full-data conversion into preallocated output arrays.

    One PAA -> ``permutation_prefixes`` -> deferred-``assign`` pass per
    ``block_rows`` slice of the dataset — a block size picked so every
    intermediate (distance matrix, overlap gather, WD pairs) stays
    cache-resident: sweeps at the benchmark operating point put the
    optimum at a few thousand rows, with >2x degradation by 64k rows once
    the ``(d, k)`` matrices spill.

    The blocks are independent tasks on ``executor``.  Blocking is fixed
    by ``block_rows`` — never by the worker count — and
    the RNG tail (:meth:`GroupAssigner.resolve_ties`) runs on this thread
    in block order after the map, so signatures, group indices and the RNG
    stream are bit-identical for every worker count, and to the pre-split
    per-block ``assign`` loop this replaced.
    """
    n = dataset.count
    ranked_all = np.empty((n, prefix_length), dtype=np.int32)
    gids_all = np.empty(n, dtype=np.int64)
    spans = split_ranges(n, block_rows)
    tasks = [
        (dataset.values[start:end], pivots, assigner, word_length,
         prefix_length)
        for start, end in spans
    ]
    # Per-block task timing: build.convert.block_s + per-worker counters.
    results = executor.map(
        telemetry.wrap_tasks("build.convert.block", _convert_block), tasks
    )
    for (start, end), (ranked, gids, pending) in zip(spans, results):
        ranked_all[start:end] = ranked
        block = gids_all[start:end]
        block[...] = gids
        assigner.resolve_ties(block, pending)
    return ranked_all, gids_all


def _redistribute_flat(
    dataset: SeriesDataset,
    skeleton: IndexSkeleton,
    ranked_all: np.ndarray,
    gids_all: np.ndarray,
    dfs: SimulatedDFS,
    executor: Executor,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> None:
    """Bulk Step-4 redistribution over the skeleton's flat tries.

    One :meth:`FlatTrieRouter.route` resolves every record's cluster in
    ``prefix_length`` ``searchsorted`` sweeps over the global trie, one
    stable argsort over the precomputed ``(partition, cluster key)`` ranks
    groups the records into the partition layout (sorted keys, each
    cluster contiguous), and each partition is gathered straight from the
    dataset arrays into its payload buffer — no per-record Python, no
    intermediate partition objects, no sorted copy of the dataset.

    Every build is *encode, then store*: the per-partition payload encodes
    are pure functions of the record arrays and run on ``executor``, each
    task gathering its rows straight from the dataset arrays through the
    live engine handle.  The payloads go, in partition order, to one
    :meth:`SimulatedDFS.write_encoded_partitions` call as a generator —
    one segment file on disk, visible whole or not at all (DESIGN.md D18)
    — and the counters are charged on this thread, so the stored bytes
    and every counter are identical for any worker count.
    """
    with telemetry.trace("build.redistribute.compile"):
        router = skeleton.flat_router()
    with telemetry.trace("build.redistribute.route"):
        kid_of = router.route(ranked_all, gids_all)
        order, parts = router.partition_layout(kid_of)
    engine = dfs.engine
    with telemetry.trace("build.redistribute.write"):
        def encode_one(item):
            pid, start, end, header = item
            return engine.encode_arrays(
                partition_name(pid), dataset.ids, dataset.values,
                header, rows=order[start:end],
            )

        encode = telemetry.wrap_tasks("build.redistribute.encode", encode_one)
        # A serial build streams: each payload is written into the segment
        # and dropped before the next is encoded, so peak memory stays one
        # partition above the dataset instead of a second copy of it.
        run = executor.map if executor.n_workers > 1 else map
        payloads = run(encode, parts)
        dfs.write_encoded_partitions(
            (partition_name(pid), payload)
            for (pid, *_), payload in zip(parts, payloads)
        )
