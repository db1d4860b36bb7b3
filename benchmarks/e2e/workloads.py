"""The four workloads of the end-to-end benchmark.

Each workload drives ``repro`` through its public API only, at one shared
operating point, and hands the program nothing but generated arrays and a
plain config: the workload's name never crosses into ``src/``.

A workload has three stages.  ``make_inputs`` is the harness's share of
set-up (data, queries, exact ground truth).  ``prepare`` is the program's
share (build, persist, reopen from disk as a restarted process would,
one warm-up pass); ``run.py`` repeats it and takes the median.
``run_pass`` is one timed pass; ``run.py`` calls it ``n_passes(--seconds)``
times.  That count is fixed by the workload and ``--seconds`` alone, not
by how fast the passes go: a run reports its best pass, and the faster of
two trees must not get more draws than the slower.

Counts and recall come from the first ``counted_passes`` passes, which
between them ask every checked query once.  Their operations are a fixed
function of ``--seed``, so those numbers repeat exactly.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from estimators import best_pass, percentile
from repro.core import ClimberConfig, ClimberIndex
from repro.exceptions import ServiceOverloadedError
from repro.serve import QueryService, ServeConfig
from repro.series import SeriesDataset
from repro.storage import SimulatedDFS

__all__ = ["SCALES", "WORKLOADS", "Scale", "Workload", "dir_bytes",
           "timed_knn_pass"]

SERIES_LENGTH = 128
N_APPENDS = 5

# Streams of the seed: one generator per purpose, so adding a draw to one
# never shifts another.
_DATA, _QUERIES, _POPULARITY, _ARRIVALS = 1, 2, 3, 4

_pc = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``full`` is the one that is measured."""

    name: str
    n_records: int
    ingest_base: int
    append_rows: int
    n_queries: int
    n_checked: int
    pass_ops: int
    capacity: int
    sample_fraction: float
    input_partitions: int
    bulk_rows: int
    setup_repeats: int
    short_allowed: int
    """How many of the queries may be answered with fewer than
    ``min(k, n)`` results.  The index is approximate: a query routed to
    a sparse corner examines fewer than ``k`` records and returns what
    it saw.  Measured at the full scale over seeds 1-10: at most 1 query
    in 2 000, on ``lookup`` and ``serve``; none on ``scan`` and
    ``ingest``.  Recall charges every neighbour a short answer lacks;
    one query more than this and the run is not correct, whatever the
    program reports about the query.  Queries are counted, not
    operations, so that a short query that happens to be popular on
    ``serve`` does not fail the run."""


SCALES = {
    # Every query is checked against exact ground truth: over 500 of them
    # mean recall moved 6.2 % between seeds from sampling alone, over all
    # 2 000 it moves 2.5 %, for two more seconds of harness set-up.
    "full": Scale("full", 100_000, 50_000, 1_000, 2_000, 2_000, 250,
                  500, 0.05, 64, 50_000, 3, 4),
    # Same code paths on 2k records, for the smoke test: no number taken
    # at this scale means anything.
    "smoke": Scale("smoke", 2_000, 1_500, 100, 160, 40, 20,
                   50, 0.25, 8, 1_000, 1, 8),
}


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def latency_ms(seconds) -> dict[str, float]:
    """The two latency metrics of one pass of per-operation ``seconds``."""
    return {"query_p50_ms": percentile(seconds, 50) * 1e3,
            "query_p95_ms": percentile(seconds, 95) * 1e3}


def timed_knn_pass(index, queries, k, variant):
    """Closed loop of ``index.knn`` calls: per-call seconds, wall, results.

    An exception is kept as that call's result, so one failing operation
    is counted by the check and does not end the run.
    """
    knn = index.knn
    lat = np.empty(len(queries))
    results = []
    start = _pc()
    for j, query in enumerate(queries):
        t0 = _pc()
        try:
            result = knn(query, k, variant=variant)
        except Exception as err:  # counted as a failed operation
            result = err
        lat[j] = _pc() - t0
        results.append(result)
    return lat, _pc() - start, results


class Workload:
    """State and bookkeeping common to the four workloads."""

    name = ""
    k = 10
    variant = "adaptive"
    recall_floor = 0.0
    cache_share = 0.0
    """DFS read cache as a share of the store's logical bytes."""
    passes_per_s = 1.0
    """Timed passes per second of ``--seconds``: about four fifths of
    what the reference host does at the seed commit, so that a run lasts
    about ``--seconds`` there and no longer on a tree that is faster."""
    median_pass_metrics: tuple[str, ...] = ()
    """Per-pass metrics for which a run reports its median pass, not its
    best: see ``Ingest``."""
    samples_per_pass = 1
    """Latency samples behind each per-pass percentile, in units of
    ``scale.pass_ops``."""

    def __init__(self, seed: int, scale: Scale, workdir: Path,
                 trace: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.trace = trace
        self.n_records = scale.n_records
        self.passes: list[dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.short_queries: set[int] = set()
        self.failures: Counter[str] = Counter()
        self.recalls: dict[int, float] = {}
        self.counts: Counter[str] = Counter()
        self.generation = 0
        self.index = None
        self.dfs = None
        self.rows_built = scale.n_records
        self.build_s = 0.0
        self.reopen_s = 0.0
        self.stored_bytes = 0
        self.logical_bytes = 0

    # -- inputs -----------------------------------------------------------------

    def make_data(self, rng: np.random.Generator) -> np.ndarray:
        return oracle.random_walk(self.n_records, SERIES_LENGTH, rng)

    def make_inputs(self) -> None:
        self.data = self.make_data(stream(self.seed, _DATA))
        self.ids = np.arange(self.data.shape[0], dtype=np.int64)
        self.queries = oracle.perturbed_queries(
            self.data, self.scale.n_queries, stream(self.seed, _QUERIES)
        )
        self.truth = oracle.exact_knn(
            self.data, self.queries[: self.scale.n_checked], self.k
        )

    def config(self) -> ClimberConfig:
        """The shared operating point.  Every knob with an environment
        fallback is pinned, so the environment cannot change the run."""
        return ClimberConfig(
            word_length=16, n_pivots=96, prefix_length=6,
            capacity=self.scale.capacity,
            sample_fraction=self.scale.sample_fraction,
            n_input_partitions=self.scale.input_partitions,
            seed=self.seed, n_workers=1,
            on_partition_failure="raise", early_stop="off",
        )

    @property
    def counted_passes(self) -> int:
        return self.scale.n_checked // self.scale.pass_ops

    def n_passes(self, seconds: float) -> int:
        """Timed passes of a run that measures for ``seconds``."""
        return max(self.counted_passes, round(self.passes_per_s * seconds))

    def chunk(self, p: int) -> np.ndarray:
        """Query numbers of pass ``p``: the passes cycle through the set."""
        n_chunks = self.scale.n_queries // self.scale.pass_ops
        first = (p % n_chunks) * self.scale.pass_ops
        return np.arange(first, first + self.scale.pass_ops)

    # -- store lifecycle --------------------------------------------------------

    def new_store(self) -> tuple[Path, Path]:
        """Drop the previous store and name the next one."""
        self.close()
        self.generation += 1
        self.store = self.workdir / f"store{self.generation}"
        return self.store, self.workdir / f"global{self.generation}.bin"

    def close(self) -> None:
        if self.dfs is not None:
            self.dfs.engine.close()
        self.index = self.dfs = None
        if self.generation:
            shutil.rmtree(self.store, ignore_errors=True)

    def build(self, store: Path, blob_path: Path) -> float:
        """Build over the first ``rows_built`` records and persist."""
        rows = self.rows_built
        t0 = _pc()
        dfs = SimulatedDFS(backing_dir=store)
        built = ClimberIndex.build(
            SeriesDataset(self.data[:rows], self.ids[:rows]),
            self.config(), dfs=dfs,
        )
        blob_path.write_bytes(built.save_global_index())
        seconds = _pc() - t0
        self.logical_bytes = dfs.total_bytes
        return seconds

    def reopen(self, store: Path, blob_path: Path):
        """What a restarted process sees: a fresh DFS over the directory
        and an index rebuilt from the persisted global index."""
        dfs = SimulatedDFS(
            backing_dir=store,
            cache_bytes=int(self.cache_share * self.logical_bytes),
        )
        dfs.attach()
        index = ClimberIndex.reopen(blob_path.read_bytes(), dfs, self.config())
        return dfs, index

    def prepare(self) -> None:
        store, blob_path = self.new_store()
        self.build_s = self.build(store, blob_path)
        self.stored_bytes = dir_bytes(store) + blob_path.stat().st_size
        t0 = _pc()
        self.dfs, self.index = self.reopen(store, blob_path)
        first = self.index.knn(self.queries[0], self.k, variant=self.variant)
        self.reopen_s = _pc() - t0
        self.check(0, first, self.n_records)
        self.run_pass(0, record=False)

    # -- checking ---------------------------------------------------------------

    def verdict(self, qi: int, result, n_visible: int) -> str | None:
        """Why the operation on query ``qi`` failed, or ``None``."""
        if isinstance(result, ServiceOverloadedError):
            return "rejected"
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}"
        return oracle.check_answer(
            self.queries[qi], result.ids, result.distances,
            self.k, self.data, n_visible,
        )

    def check(self, qi: int, result, n_visible: int,
              recalls: dict[int, float] | None = None) -> bool:
        """Count one operation; with ``recalls`` given, also score it."""
        self.attempted += 1
        why = self.verdict(qi, result, n_visible)
        if why == oracle.SHORT_ANSWER:
            self.short_queries.add(qi)
            why = None
        if why is not None:
            self.failed += 1
            self.failures[why] += 1
            return False
        if (recalls is not None and qi < self.scale.n_checked
                and qi not in recalls):
            recalls[qi] = oracle.recall(result.ids, self.truth[qi])
        return True

    def check_pass(self, qis, results, n_visible: int,
                   recalls: dict[int, float] | None = None) -> int:
        """Check a pass's results; returns how many were correct."""
        return sum(
            self.check(int(qi), result, n_visible, recalls)
            for qi, result in zip(qis, results)
        )

    def count_stats(self, results) -> None:
        """Fold the exact per-query diagnostics of a counted pass."""
        for result in results:
            stats = getattr(result, "stats", None)
            if stats is None:
                continue
            self.counts["ops"] += 1
            self.counts["partitions"] += len(stats.partitions_loaded)
            self.counts["records"] += stats.records_examined
            self.counts["expanded"] += bool(stats.expanded_within_partition)
            self.counts["short"] += len(result.ids) < self.k
            self.counts["groups"] += len(stats.group_ids)

    def fold_counters(self, before, n_ops: int, counted: bool) -> None:
        """Fold the DFS counter deltas of one pass of ``n_ops`` operations.

        Access volume is kept for counted passes only (it must repeat
        exactly); retries, failed reads and detected corruption are kept
        for every pass, because any of them flags the run.
        """
        after = self.dfs.counters
        fields = ["retries", "read_failures", "corruption_detected"]
        if counted:
            fields += ["partitions_read", "bytes_read", "cache_hits",
                       "cache_misses"]
            self.counts["dfs.ops"] += n_ops
        for field in fields:
            self.counts[f"dfs.{field}"] += (
                getattr(after, field) - getattr(before, field)
            )

    # -- results ----------------------------------------------------------------

    def mean_recall(self, recalls: dict[int, float] | None = None) -> float:
        recalls = self.recalls if recalls is None else recalls
        return float(np.mean(list(recalls.values()))) if recalls else 0.0

    def is_correct(self) -> bool:
        return (self.failed == 0
                and len(self.short_queries) <= self.scale.short_allowed
                and self.mean_recall() >= self.recall_floor)

    def layer_counts(self) -> dict[str, float]:
        """Per-layer metrics that are exact counts of the counted passes."""
        c = self.counts
        ops = max(1, c["ops"])
        dfs_ops = max(1, c["dfs.ops"])
        reads = c["dfs.cache_hits"] + c["dfs.cache_misses"]
        return {
            "routing.groups_per_query": c["groups"] / ops,
            "walk.partitions_per_query": c["partitions"] / ops,
            "walk.records_examined_per_query": c["records"] / ops,
            "walk.expanded_frac": c["expanded"] / ops,
            "walk.short_answer_frac": c["short"] / ops,
            "storage.cache_hit_frac": c["dfs.cache_hits"] / reads if reads else 0.0,
            "storage.partitions_read_per_query": c["dfs.partitions_read"] / dfs_ops,
            "storage.bytes_read_per_query": c["dfs.bytes_read"] / dfs_ops,
            "storage.retries": float(c["dfs.retries"]),
            "storage.read_failures": float(c["dfs.read_failures"]),
            "storage.corruption_detected": float(c["dfs.corruption_detected"]),
        }

    def trace_extras(self) -> dict[str, float]:
        """Phases a workload runs in a traced run only."""
        return {}

    def metrics(self, better: dict[str, str]) -> dict[str, float]:
        """Every metric this workload measured, by its published name.

        A metric measured once per pass takes the value of the run's
        best pass (see ``estimators``) unless the workload names it in
        ``median_pass_metrics``; ``better`` maps a metric name to
        ``"lower"`` or ``"higher"``.
        """
        out = {
            "build_records_per_s": self.rows_built / self.build_s,
            "reopen_ms": self.reopen_s * 1e3,
        }
        for name in self.passes[0]:
            values = [p[name] for p in self.passes]
            if name in self.median_pass_metrics:
                out[name] = percentile(values, 50)
            else:
                out[name] = best_pass(values, better[name])
        out.update(self.layer_counts())
        out["recall_at_k"] = self.mean_recall()
        out["failed_frac"] = self.failed / self.attempted
        out["stored_bytes_per_user_byte"] = (
            self.stored_bytes / self.data.nbytes)
        return out

    def run_pass(self, p: int, record: bool = True) -> None:
        raise NotImplementedError


class Lookup(Workload):
    name = "lookup"
    recall_floor = 0.25
    passes_per_s = 4.0

    def run_pass(self, p: int, record: bool = True) -> None:
        qis = self.chunk(p)
        counted = record and p < self.counted_passes
        before = self.dfs.counters
        lat, wall, results = timed_knn_pass(
            self.index, self.queries[qis], self.k, self.variant
        )
        correct = self.check_pass(qis, results, self.n_records,
                                  self.recalls if counted else None)
        self.fold_counters(before, len(qis), counted)
        if counted:
            self.count_stats(results)
        if record:
            self.passes.append(
                {**latency_ms(lat), "query_per_s": correct / wall})


class Scan(Workload):
    name = "scan"
    k = 50
    variant = "od-smallest"
    recall_floor = 0.5
    passes_per_s = 1.25
    samples_per_pass = 2
    cache_share = 2.0
    early_stop = "streak:2"
    prog_recall_floor = 0.5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.prog_recalls: dict[int, float] = {}
        self.first_answer_ms: list[float] = []

    def make_data(self, rng):
        return oracle.clustered_vectors(self.n_records, SERIES_LENGTH, rng)

    def progressive_pass(self, queries):
        """Drain ``knn_progressive`` per query: seconds to the final update.

        A traced run also notes when the first update arrived; an
        end-to-end run makes no clock call inside the drain.
        """
        progressive = self.index.knn_progressive
        lat = np.empty(len(queries))
        finals = []
        start = _pc()
        for j, query in enumerate(queries):
            t0 = _pc()
            try:
                updates = progressive(query, self.k, variant=self.variant,
                                      early_stop=self.early_stop)
                if self.trace:
                    final = next(updates)
                    self.first_answer_ms.append((_pc() - t0) * 1e3)
                for final in updates:
                    pass
            except Exception as err:  # counted as a failed operation
                final = err
            lat[j] = _pc() - t0
            finals.append(final)
        return lat, _pc() - start, finals

    def run_pass(self, p: int, record: bool = True) -> None:
        qis = self.chunk(p)
        counted = record and p < self.counted_passes
        before = self.dfs.counters
        lat_a, wall_a, results = timed_knn_pass(
            self.index, self.queries[qis], self.k, self.variant
        )
        lat_b, wall_b, finals = self.progressive_pass(self.queries[qis])
        correct = self.check_pass(qis, results, self.n_records,
                                  self.recalls if counted else None)
        correct += self.check_pass(qis, finals, self.n_records,
                                   self.prog_recalls if counted else None)
        self.fold_counters(before, 2 * len(qis), counted)
        if counted:
            self.count_stats(results)
            for final in finals:
                if not isinstance(final, Exception):
                    self.counts["prog.ops"] += 1
                    self.counts["prog.stopped"] += bool(final.stopped_early)
                    self.counts["prog.visited"] += final.partitions_visited
                    self.counts["prog.planned"] += final.partitions_planned
        if record:
            # The caller of this workload asks both ways, so its three
            # bounded timings are taken over both halves of the pass: a
            # slower exhaustive call and a slower drain each move all of
            # them.  The halves apart are per-layer metrics.
            self.passes.append({
                **latency_ms(np.concatenate([lat_a, lat_b])),
                "query_per_s": correct / (wall_a + wall_b),
                "exhaustive_p50_ms": percentile(lat_a, 50) * 1e3,
                "prog_p50_ms": percentile(lat_b, 50) * 1e3,
            })

    def is_correct(self) -> bool:
        return (super().is_correct()
                and self.mean_recall(self.prog_recalls) >= self.prog_recall_floor)

    def metrics(self, better: dict[str, str]) -> dict[str, float]:
        out = super().metrics(better)
        c = self.counts
        out["prog.visit_coverage"] = c["prog.visited"] / max(1, c["prog.planned"])
        out["prog.stopped_early_frac"] = c["prog.stopped"] / max(1, c["prog.ops"])
        out["prog_recall_at_k"] = self.mean_recall(self.prog_recalls)
        out["prog.overhead_ratio"] = (
            out["prog_p50_ms"] / out["exhaustive_p50_ms"])
        if self.first_answer_ms:
            out["prog.first_answer_ms"] = percentile(self.first_answer_ms, 50)
        return out


class Serve(Workload):
    name = "serve"
    recall_floor = 0.25
    passes_per_s = 0.7
    cache_share = 0.25
    zipf_exponent = 1.2
    window = 16
    open_rate_per_s = 300.0
    hi_rate_per_s = 900.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.responses: list = []
        self.gen_late_ms: list[float] = []

    def serve_config(self, admission: str) -> ServeConfig:
        return ServeConfig(max_batch=32, max_delay_s=0.002, queue_limit=256,
                           admission=admission, worker_threads=1)

    def make_inputs(self) -> None:
        super().make_inputs()
        # Which queries are hot is fixed for the run; it is drawn, so the
        # hot ones are not simply the checked first rows.
        self.by_popularity = stream(self.seed, _POPULARITY).permutation(
            self.scale.n_queries)

    def requests(self, p: int, phase: int, size: int) -> np.ndarray:
        return oracle.zipf_choices(
            self.by_popularity, size, self.zipf_exponent,
            stream(self.seed, _POPULARITY, p, phase),
        )

    async def closed_pass(self, qis):
        """One generator keeps ``window`` requests outstanding."""
        service = QueryService(self.index, self.serve_config("block"))
        out: list = [None] * len(qis)
        pending = iter(range(len(qis)))

        async def slot():
            for i in pending:
                try:
                    out[i] = await service.submit(
                        self.queries[qis[i]], self.k, variant=self.variant)
                except Exception as err:  # counted as a failed operation
                    out[i] = err

        async with service:
            t0 = _pc()
            await asyncio.gather(*(slot() for _ in range(self.window)))
            wall = _pc() - t0
        return out, wall

    async def open_pass(self, qis, due):
        """Send each request when it is due, whatever came back so far.

        Returns the results, each request's seconds from its *due* time to
        its answer, and how late the generator sent it.
        """
        service = QueryService(self.index, self.serve_config("reject"))
        n = len(qis)
        out: list = [None] * n
        sent = np.zeros(n)
        done = np.zeros(n)

        async def one(i):
            try:
                out[i] = await service.submit(
                    self.queries[qis[i]], self.k, variant=self.variant)
            except Exception as err:  # counted as a failed operation
                out[i] = err
            done[i] = _pc()

        async with service:
            tasks = []
            t0 = _pc()
            for i in range(n):
                wait = t0 + due[i] - _pc()
                if wait > 0:
                    await asyncio.sleep(wait)
                sent[i] = _pc()
                tasks.append(asyncio.ensure_future(one(i)))
            await asyncio.gather(*tasks)
        return out, done - (t0 + due), sent - (t0 + due)

    def open_phase(self, p: int, phase: int, rate_per_s: float, size: int):
        qis = self.requests(p, phase, size)
        due = oracle.poisson_due_times(
            rate_per_s, size, stream(self.seed, _ARRIVALS, p, phase))
        out, latency, late = asyncio.run(self.open_pass(qis, due))
        return qis, out, latency, late

    def run_pass(self, p: int, record: bool = True) -> None:
        ops = self.scale.pass_ops
        counted = record and p < self.counted_passes
        recalls = self.recalls if counted else None
        before = self.dfs.counters
        qis_a = self.requests(p, 0, 2 * ops)
        out_a, wall_a = asyncio.run(self.closed_pass(qis_a))
        qis_b, out_b, latency, late = self.open_phase(
            p, 1, self.open_rate_per_s, ops)
        correct_a = self.check_pass(qis_a, out_a, self.n_records, recalls)
        self.check_pass(qis_b, out_b, self.n_records, recalls)
        self.fold_counters(before, 3 * ops, counted)
        answered = np.array([not isinstance(r, Exception) for r in out_b])
        if counted:
            self.count_stats(out_a + out_b)
            self.responses += [r for r, ok in zip(out_b, answered) if ok]
        if record:
            self.gen_late_ms += list(late * 1e3)
            served = latency[answered] if answered.any() else latency
            self.passes.append(
                {**latency_ms(served), "query_per_s": correct_a / wall_a})

    def trace_extras(self) -> dict[str, float]:
        """Open loop at three times the measured rate, in traced runs only.

        Its failures are its own metric and are kept out of the run's
        ``failed`` count: a refusal here is the answer to the question
        the phase asks.
        """
        p50s, failed, sent = [], 0, 0
        for r in range(3):
            qis, out, latency, _ = self.open_phase(
                1_000_000 + r, 2, self.hi_rate_per_s, 2 * self.scale.pass_ops)
            ok = np.array([
                self.verdict(int(qi), result, self.n_records)
                in (None, oracle.SHORT_ANSWER)
                for qi, result in zip(qis, out)
            ])
            failed += int((~ok).sum())
            sent += len(out)
            if ok.any():
                p50s.append(percentile(latency[ok], 50) * 1e3)
        return {
            "serve.hi_rate_p50_ms": percentile(p50s, 50) if p50s else 0.0,
            "serve.hi_rate_failed_frac": failed / sent,
        }

    def metrics(self, better: dict[str, str]) -> dict[str, float]:
        out = super().metrics(better)
        # Every service of this index shares its registry, so the counter
        # is the total over all passes.
        registry = self.index.telemetry.registry
        out["serve.rejected"] = float(registry.counter("serve.rejected").value)
        if self.gen_late_ms:
            out["serve.gen_late_p95_ms"] = percentile(self.gen_late_ms, 95)
        if self.responses:
            queue = [r.queue_delay_s for r in self.responses]
            execute = [r.latency_s - r.queue_delay_s for r in self.responses]
            out["serve.queue_delay_p50_ms"] = percentile(queue, 50) * 1e3
            out["serve.exec_p50_ms"] = percentile(execute, 50) * 1e3
            out["serve.batch_size_mean"] = float(
                np.mean([r.batch_size for r in self.responses]))
        return out


class Ingest(Workload):
    name = "ingest"
    recall_floor = 0.25
    passes_per_s = 0.5
    # Four fifths of the wall of an append is the file system creating
    # and renaming some 150 small files, and on the reference host that
    # cost drops from 0.43 to 0.17 ms a file for a pass or two now and
    # then (a loop of bare write + rename shows the same, without the
    # program).  The best pass would report whether the run met that
    # mode; the median pass reports the append.  The latencies of the
    # queries, which write nothing, keep the best pass.
    median_pass_metrics = ("query_per_s", "build_records_per_s",
                           "append_records_per_s", "reopen_ms")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.base_rows = self.rows_built = self.scale.ingest_base
        self.n_records = self.base_rows + N_APPENDS * self.scale.append_rows

    def prepare(self) -> None:
        self.run_pass(0, record=False)

    def run_pass(self, p: int, record: bool = True) -> None:
        """Build, reopen, query, append, reopen again, query again.

        Each pass starts from an empty store.  Only the calls into the
        program are timed; the checks between them are not.
        """
        scale = self.scale
        counted = record and p < self.counted_passes
        store, blob_path = self.new_store()
        build_s = self.build_s = self.build(store, blob_path)

        t0 = _pc()
        dfs, index = self.reopen(store, blob_path)
        first = index.knn(self.queries[0], self.k, variant=self.variant)
        reopen_s = self.reopen_s = _pc() - t0
        self.check(0, first, self.base_rows)

        touch = self.chunk(p + 4)
        _, _, results = timed_knn_pass(
            index, self.queries[touch], self.k, self.variant)
        self.check_pass(touch, results, self.base_rows)

        t0 = _pc()
        for a in range(N_APPENDS):
            lo = self.base_rows + a * scale.append_rows
            hi = lo + scale.append_rows
            index.append(SeriesDataset(self.data[lo:hi], self.ids[lo:hi]))
        append_s = _pc() - t0
        dfs.engine.close()

        # Durability: everything appended must be visible to a process
        # that has only the files.
        t0 = _pc()
        self.dfs, self.index = self.reopen(store, blob_path)
        reopen2_s = _pc() - t0
        self.attempted += 1
        if self.index.n_records != self.n_records:
            self.failed += 1
            self.failures["records lost across reopen"] += 1
        self.stored_bytes = dir_bytes(store) + blob_path.stat().st_size

        qis = self.chunk(p)
        before = self.dfs.counters
        lat, wall, results = timed_knn_pass(
            self.index, self.queries[qis], self.k, self.variant)
        correct = self.check_pass(qis, results, self.n_records,
                                  self.recalls if counted else None)
        self.fold_counters(before, len(qis), counted)
        if counted:
            self.count_stats(results)
        if record:
            # From the first append to the last answer over base + deltas:
            # the appends are 46 % of this wall, so halving their speed
            # lowers the rate by a third, past its bound.  The build
            # before them is bounded by setup_s on every workload.
            self.passes.append({
                **latency_ms(lat),
                "query_per_s": correct / (append_s + reopen2_s + wall),
                "build_records_per_s": self.base_rows / build_s,
                "append_records_per_s": N_APPENDS * scale.append_rows / append_s,
                "reopen_ms": reopen_s * 1e3,
            })


WORKLOADS = {w.name: w for w in (Lookup, Scan, Serve, Ingest)}
