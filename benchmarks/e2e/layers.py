"""Per-layer numbers of a traced run, taken from outside the program.

The program has no span of its own on the measured path yet, so a traced
run times each whole public call and then *replays* that query's layers
through their public functions with the same inputs: PAA, signature,
group routing, one partition open and one cluster read per partition the
query loaded, the refine kernel over exactly the rows it examined, and
the simulated-cluster accounting.  Every call leaves one span (name,
start, end, parent, query id) in memory; ``run.py`` writes them out when
the run ends.  What the replay cannot reach — node selection, read
planning, delta lookups, stats — is the walk's own time,
``walk.other_us`` = whole − Σ replayed.

The replay reads *every* cluster of a loaded partition, the walk only
the clusters under the selected trie nodes, so ``storage.read_clusters_us``
is an upper bound; the refine replay is cut to ``stats.records_examined``
rows so that it is not.
"""

from __future__ import annotations

import time

import numpy as np

from estimators import percentile
from repro.cluster import (
    ClusterSimulator,
    TaskCost,
    ops_euclidean,
    ops_signature,
)
from repro.core import GroupAssigner
from repro.obs import Telemetry
from repro.pivots import decay_weights, permutation_prefixes
from repro.series import knn_bruteforce, paa_transform
from repro.storage import SimulatedDFS
from workloads import dir_bytes, timed_knn_pass

__all__ = ["SpanLog", "trace_run", "trace_queries", "bulk_layers",
           "telemetry_overhead"]

_pc = time.perf_counter

TRACED_QUERIES = 500

REPLAYED = ("series.paa", "pivots.signature", "routing.candidates",
            "storage.open", "storage.read_clusters", "series.refine",
            "cluster.sim")


class SpanLog:
    """In-memory spans of one traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, query: int,
            parent: int | None) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end,
                           "query": query, "parent": parent})
        return len(self.spans) - 1


def _replay(log: SpanLog, root: int, qid: int, query, stats, index, dfs,
            k: int, variant: str) -> dict[str, float]:
    """Replay one answered query's layers; seconds per layer."""
    cfg = index.config
    spent = dict.fromkeys(REPLAYED, 0.0)

    def span(name, t0):
        t1 = _pc()
        log.add(name, t0, t1, qid, root)
        spent[name] += t1 - t0

    t0 = _pc()
    paa = paa_transform(query.reshape(1, -1), cfg.word_length)
    span("series.paa", t0)
    t0 = _pc()
    ranked = permutation_prefixes(paa, index.pivots, cfg.prefix_length)[0]
    span("pivots.signature", t0)
    t0 = _pc()
    index.group_candidates(ranked, od_slack=1 if variant == "adaptive" else 0)
    span("routing.candidates", t0)

    ids_parts, val_parts, costs = [], [], []
    for name in stats.partitions_loaded:
        t0 = _pc()
        part = dfs.read_partition(name)
        keys = part.cluster_keys()
        span("storage.open", t0)
        t0 = _pc()
        ids, values = part.read_clusters(keys)
        span("storage.read_clusters", t0)
        ids_parts.append(ids)
        val_parts.append(values)
        costs.append(TaskCost(
            read_bytes=int(part.nbytes * cfg.cost_scale),
            cpu_ops=int(part.record_count * ops_euclidean(part.series_length)
                        * cfg.cost_scale),
        ))
    if ids_parts:
        examined = stats.records_examined
        all_ids = np.concatenate(ids_parts)[:examined]
        all_values = np.vstack(val_parts)[:examined]
        t0 = _pc()
        knn_bruteforce(query, all_values, all_ids, k)
        span("series.refine", t0)

    t0 = _pc()
    sim = ClusterSimulator(index.model)
    sim.run_driver_step("query/route", TaskCost(cpu_ops=int(
        ops_signature(cfg.n_pivots, cfg.word_length, cfg.prefix_length)
        + index.n_groups * cfg.prefix_length * 8)))
    sim.run_stage("query/scan", costs)
    sim.fresh_report()
    span("cluster.sim", t0)
    return spent


def trace_queries(log: SpanLog, index, dfs, queries, qids, k: int,
                  variant: str) -> dict[str, float]:
    """Trace ``queries`` and report each layer's share of the whole call.

    Untraced and traced passes over the same queries alternate, in
    mirrored order, so that the host's speed and the caches treat both
    alike; the ratio of their whole-call medians is the tracing overhead.
    """
    half = len(queries) // 2
    halves = [(queries[:half], qids[:half]), (queries[half:], qids[half:])]
    untraced: list[float] = []
    whole: list[float] = []
    layers: dict[str, list[float]] = {name: [] for name in REPLAYED}
    other: list[float] = []

    def traced_pass(qs, ids):
        for query, qid in zip(qs, ids):
            t0 = _pc()
            result = index.knn(query, k, variant=variant)
            t1 = _pc()
            root = log.add("knn", t0, t1, int(qid), None)
            spent = _replay(log, root, int(qid), query, result.stats,
                            index, dfs, k, variant)
            whole.append(t1 - t0)
            for name, seconds in spent.items():
                layers[name].append(seconds)
            other.append(t1 - t0 - sum(spent.values()))

    def untraced_pass(qs):
        lat, _, _ = timed_knn_pass(index, qs, k, variant)
        untraced.extend(lat)

    untraced_pass(halves[0][0])
    traced_pass(*halves[0])
    traced_pass(*halves[1])
    untraced_pass(halves[1][0])

    us = 1e6
    return {
        "series.paa_us": percentile(layers["series.paa"], 50) * us,
        "pivots.signature_us": percentile(layers["pivots.signature"], 50) * us,
        "routing.candidates_us": percentile(layers["routing.candidates"], 50) * us,
        "storage.open_us": percentile(layers["storage.open"], 50) * us,
        "storage.read_clusters_us": percentile(layers["storage.read_clusters"], 50) * us,
        "series.refine_us": percentile(layers["series.refine"], 50) * us,
        "cluster.sim_us": percentile(layers["cluster.sim"], 50) * us,
        "walk.other_us": percentile(other, 50) * us,
        "trace.whole_us": percentile(whole, 50) * us,
        "trace.coverage_frac": (
            sum(sum(v) for v in layers.values()) / sum(whole)),
        "trace.overhead_frac": (
            percentile(whole, 50) / percentile(untraced, 50) - 1.0),
    }


def _median_seconds(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = _pc()
        fn()
        times.append(_pc() - t0)
    return percentile(times, 50)


def bulk_layers(index, store, scratch, data, ids, rows_built: int,
                build_s: float, stored_bytes: int) -> dict[str, float]:
    """Throughput of the build's layers over ``data``, each called alone.

    ``builder.other_frac`` is the share of the measured build wall that
    these replayed stages, scaled to the ``rows_built`` records of that
    build, do not account for: sampling, skeleton and trie construction,
    routing and sorting into the final layout.
    """
    cfg = index.config
    n = data.shape[0]
    paa = paa_transform(data, cfg.word_length)
    ranked = permutation_prefixes(paa, index.pivots, cfg.prefix_length)
    skeleton = index.skeleton
    assigner = GroupAssigner(
        skeleton.centroids, skeleton.n_pivots, skeleton.prefix_length,
        weights=decay_weights(cfg.prefix_length, cfg.decay, cfg.decay_rate),
        rng=np.random.default_rng(cfg.seed),
    )
    paa_s = _median_seconds(lambda: paa_transform(data, cfg.word_length))
    prefix_s = _median_seconds(
        lambda: permutation_prefixes(paa, index.pivots, cfg.prefix_length))
    assign_s = _median_seconds(lambda: assigner.assign(ranked))

    part_rows = min(cfg.capacity, n)
    n_parts = 20
    dfs = SimulatedDFS(backing_dir=scratch)
    t0 = _pc()
    for i in range(n_parts):
        lo = (i * part_rows) % (n - part_rows + 1)
        dfs.write_partition_arrays(
            f"bulk{i}", ids[lo:lo + part_rows], data[lo:lo + part_rows],
            {"all": (0, part_rows)})
    write_s = _pc() - t0
    write_bytes_per_s = dir_bytes(scratch) / write_s

    def attach():
        SimulatedDFS(backing_dir=store).attach()

    replayed_s = (rows_built * (paa_s + prefix_s + assign_s) / n
                  + stored_bytes / write_bytes_per_s)
    return {
        "series.paa_rows_per_s": n / paa_s,
        "pivots.prefix_rows_per_s": n / prefix_s,
        "assignment.assign_rows_per_s": n / assign_s,
        "storage.write_mb_per_s": write_bytes_per_s / 1e6,
        "storage.attach_ms": _median_seconds(attach) * 1e3,
        "builder.other_frac": 1.0 - replayed_s / build_s,
    }


def telemetry_overhead(index, chunks, k: int, variant: str) -> float:
    """Share by which enabling ``index.telemetry`` slows ``knn``.

    Passes with telemetry on and off alternate over the same queries and
    each side reports its best pass, like every other latency.
    """
    saved = index.telemetry
    on, off = [], []
    try:
        for i, queries in enumerate(chunks):
            for enabled in ((True, False) if i % 2 else (False, True)):
                index.telemetry = Telemetry(enabled=enabled)
                lat, _, _ = timed_knn_pass(index, queries, k, variant)
                (on if enabled else off).append(percentile(lat, 50))
    finally:
        index.telemetry = saved
    return min(on) / min(off) - 1.0


def trace_run(workload, scratch) -> tuple[dict[str, float], list[dict]]:
    """The traced phases of a run, against the index the passes just used.

    Returns the per-layer metrics and the spans.  ``scratch`` is an empty
    directory for the write-rate probe.
    """
    scale = workload.scale
    log = SpanLog()
    traced = np.arange(min(TRACED_QUERIES, scale.n_checked))
    metrics = trace_queries(
        log, workload.index, workload.dfs, workload.queries[traced],
        traced, workload.k, workload.variant)
    metrics["obs.telemetry_on_overhead_frac"] = telemetry_overhead(
        workload.index,
        [workload.queries[workload.chunk(i)] for i in range(4)],
        workload.k, workload.variant)
    rows = scale.bulk_rows
    metrics.update(bulk_layers(
        workload.index, workload.store, scratch,
        workload.data[:rows], workload.ids[:rows], workload.rows_built,
        workload.build_s, workload.logical_bytes))
    metrics.update(workload.trace_extras())
    return metrics, log.spans
