"""Telemetry layer: registry exactness, gating, EXPLAIN and stats.

The contracts under test (see :mod:`repro.obs`):

* **Exact totals under concurrency** — counter values and histogram
  ``count``/``sum`` are read-modify-write under a per-metric lock, so a
  4-worker hammer must land on the arithmetically exact totals.
* **Zero behavioural footprint** — telemetry enabled vs disabled changes
  *nothing* observable about a query except wall-clock noise: identical
  ids/distances/sim accounting and identical logical DFS counters.
* **One record per query** — every walk fills its own stage clocks and
  the cache hits and misses of its own reads, telemetry on or off;
  ``record_query`` folds 1 in ``sample_every`` of them, exactly, from
  any number of threads.
* **EXPLAIN is a recorded query, not a dry run** — ``explain_query``
  returns the per-stage breakdown of a query that really executed
  (consumes RNG, charges the DFS), with totals consistent per entry.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex, QueryStats
from repro.core.parallel import ThreadExecutor
from repro.datasets import random_walk_dataset, sample_queries
from repro.exceptions import ConfigurationError
from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    NULL_SPAN,
    NULL_TELEMETRY,
    OBS_SCHEMA,
    QUERY_STAGES,
    Counter,
    Histogram,
    MetricsRegistry,
    Telemetry,
)
from repro.storage import SimulatedDFS


def _config(telemetry=False, **overrides):
    defaults = dict(
        word_length=8, n_pivots=24, prefix_length=4, capacity=64,
        sample_fraction=0.5, n_input_partitions=8, seed=5,
        telemetry=telemetry,
    )
    defaults.update(overrides)
    return ClimberConfig(**defaults)


@pytest.fixture(scope="module")
def obs_dataset():
    return random_walk_dataset(1_200, 48, seed=11)


@pytest.fixture(scope="module")
def obs_queries(obs_dataset):
    return sample_queries(obs_dataset, 6, seed=99).values


@pytest.fixture(scope="module")
def enabled_index(obs_dataset):
    """A telemetry-enabled index for structure (not RNG-order) assertions."""
    return ClimberIndex.build(obs_dataset, _config(telemetry=True))


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_inc_and_reset(self):
        c = Counter("c")
        c.inc()
        c.inc(41)
        assert c.value == 42
        c.reset()
        assert c.value == 0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_exact_totals(self):
        h = Histogram("h")
        values = [0.25, 0.5, 1.0, 2.0, 4.0]  # dyadic: float-sum is exact
        for v in values:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == len(values)
        assert snap["sum"] == sum(values)
        assert snap["min"] == 0.25 and snap["max"] == 4.0
        assert snap["mean"] == sum(values) / len(values)

    def test_histogram_quantiles_bracketed_and_ordered(self):
        h = Histogram("h")
        for v in [1e-5] * 50 + [1e-3] * 40 + [0.5] * 10:
            h.observe(v)
        snap = h.snapshot()
        assert snap["min"] <= snap["p50"] <= snap["p90"] <= snap["p99"]
        assert snap["p99"] <= snap["max"]
        # p50 must land in the bulk (the 1e-5 bucket region), p99 near top.
        assert snap["p50"] < 1e-3
        assert snap["p99"] > 1e-3

    def test_histogram_empty_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0 and snap["sum"] == 0.0
        assert snap["p50"] is None and snap["max"] is None

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=())
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_registry_get_or_create_caches_handles(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_registry_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_snapshot_schema_and_json(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("b").set(7)
        reg.histogram("c").observe(0.5)
        snap = reg.snapshot()
        assert snap["schema"] == OBS_SCHEMA
        assert snap["counters"] == {"a": 3}
        assert snap["gauges"] == {"b": 7}
        assert snap["histograms"]["c"]["count"] == 1
        assert json.loads(reg.to_json()) == snap

    def test_reset_keeps_registrations_and_handles(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        h = reg.histogram("b")
        c.inc(5)
        h.observe(1.0)
        reg.reset()
        assert reg.names() == ["a", "b"]
        assert c.value == 0 and h.count == 0
        c.inc()  # the cached handle is still the registered metric
        assert reg.snapshot()["counters"]["a"] == 1

    def test_default_bounds_ascending(self):
        assert list(DEFAULT_LATENCY_BOUNDS) == sorted(DEFAULT_LATENCY_BOUNDS)
        assert DEFAULT_LATENCY_BOUNDS[0] == 1e-6


# ---------------------------------------------------------------------------
# Tracing / gating
# ---------------------------------------------------------------------------

class TestTrace:
    def test_disabled_trace_is_the_shared_null_span(self):
        tel = Telemetry(enabled=False)
        assert tel.trace("anything") is NULL_SPAN
        with tel.trace("anything"):
            pass
        assert tel.registry.names() == []

    def test_enabled_trace_records_histogram(self):
        tel = Telemetry(enabled=True)
        with tel.trace("route"):
            pass
        snap = tel.registry.snapshot()
        assert snap["histograms"]["route_s"]["count"] == 1

    def test_wrap_tasks_identity_when_disabled(self):
        def fn(x):
            return x + 1

        assert Telemetry(enabled=False).wrap_tasks("t", fn) is fn

    def test_record_query_noop_when_disabled(self):
        tel = Telemetry(enabled=False)
        tel.record_query(object())  # would explode if it touched stats
        assert tel.registry.names() == []

    def test_null_telemetry_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False


# ---------------------------------------------------------------------------
# Concurrency: exact totals under a 4-worker hammer
# ---------------------------------------------------------------------------

class TestConcurrentHammer:
    N_TASKS = 800

    def test_exact_totals_under_four_workers(self):
        reg = MetricsRegistry()
        counter = reg.counter("hammer.count")
        hist = reg.histogram("hammer")

        def task(i):
            counter.inc(i % 7)
            hist.observe(1.0)       # float-exact sum under any ordering
            hist.observe(0.25)
            return i

        executor = ThreadExecutor(4)
        try:
            out = executor.map(task, range(self.N_TASKS))
        finally:
            executor.close()
        assert out == list(range(self.N_TASKS))
        assert counter.value == sum(i % 7 for i in range(self.N_TASKS))
        snap = hist.snapshot()
        assert snap["count"] == 2 * self.N_TASKS
        assert snap["sum"] == 1.25 * self.N_TASKS
        assert snap["min"] == 0.25 and snap["max"] == 1.0

    def test_wrap_tasks_accounts_every_task(self):
        tel = Telemetry(enabled=True)

        def fn(i):
            return i * 2

        wrapped = tel.wrap_tasks("hammer.task", fn)
        executor = ThreadExecutor(4)
        try:
            out = executor.map(wrapped, range(self.N_TASKS))
        finally:
            executor.close()
        assert out == [i * 2 for i in range(self.N_TASKS)]
        snap = tel.registry.snapshot()
        assert snap["histograms"]["hammer.task_s"]["count"] == self.N_TASKS
        worker_tasks = [
            v for name, v in snap["counters"].items()
            if name.startswith("parallel.worker.") and name.endswith(".tasks")
        ]
        assert sum(worker_tasks) == self.N_TASKS

    def test_sampling_tick_is_exact_under_four_threads(self):
        """``record_query`` from four threads under ``sample_every=4``
        folds exactly ceil(n / 4) records, whatever the interleaving."""
        n = 801
        tel = Telemetry(enabled=True, sample_every=4)
        stats = QueryStats(
            variant="knn", k=3, best_od=0, group_ids=(0,), path_len=1,
            gn_size=1.0, n_selected_nodes=1, partitions_loaded=("p0",),
            data_bytes=10, records_examined=4,
            expanded_within_partition=False, wall_seconds=0.5,
            stage_seconds=(0.25,) * len(QUERY_STAGES), cache_hits=1,
        )
        executor = ThreadExecutor(4)
        try:
            executor.map(lambda _: tel.record_query(stats), range(n))
        finally:
            executor.close()
        snap = tel.registry.snapshot()
        folded = -(-n // 4)
        assert snap["counters"]["query.count"] == n
        assert snap["counters"]["query.cache_hits"] == folded
        assert snap["histograms"]["query.wall_s"]["count"] == folded
        for stage in QUERY_STAGES:
            hist = snap["histograms"][f"query.stage.{stage}_s"]
            assert hist["count"] == folded
            assert hist["sum"] == 0.25 * folded


# ---------------------------------------------------------------------------
# Enabled vs disabled: zero behavioural footprint
# ---------------------------------------------------------------------------

class TestEnabledDisabledParity:
    def test_mirrored_query_sequences_identical(self, obs_dataset, obs_queries):
        """Same build + same query sequence, telemetry on vs off: identical
        answers, identical per-query accounting, identical logical DFS
        counters.  The sequence mixes knn, knn_batch and explain_query
        (explain consumes RNG like a real query, so it must be mirrored
        on both sides to keep the streams aligned)."""
        outcomes = {}
        for enabled in (False, True):
            dfs = SimulatedDFS()
            index = ClimberIndex.build(
                obs_dataset, _config(telemetry=enabled), dfs=dfs
            )
            trail = []
            for q in obs_queries[:3]:
                trail.append(index.knn(q, 5))
            trail.extend(index.knn_batch(obs_queries, 5))
            explain = index.explain_query(obs_queries[0], 5)
            outcomes[enabled] = (trail, explain, dfs.counters)

        trail_off, explain_off, dfs_off = outcomes[False]
        trail_on, explain_on, dfs_on = outcomes[True]
        for a, b in zip(trail_off, trail_on):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.stats.partitions_loaded == b.stats.partitions_loaded
            assert a.stats.data_bytes == b.stats.data_bytes
            assert a.stats.records_examined == b.stats.records_examined
        assert explain_off["ids"] == explain_on["ids"]
        assert explain_off["distances"] == explain_on["distances"]
        assert explain_off["partitions"] == explain_on["partitions"]
        assert dfs_off == dfs_on

    def test_build_artifacts_identical(self, obs_dataset):
        """Telemetry must not perturb construction: identical partition
        bytes and skeleton with the flag on and off."""
        blobs = {}
        for enabled in (False, True):
            dfs = SimulatedDFS()
            index = ClimberIndex.build(
                obs_dataset, _config(telemetry=enabled), dfs=dfs
            )
            engine = dfs.engine
            parts = {}
            for pid in dfs.list_partitions():
                name = engine.blob_name(pid)
                parts[pid] = bytes(
                    engine.backend.read_range(name, 0, engine.backend.size(name))
                )
            blobs[enabled] = (index.skeleton.to_bytes(), parts)
        assert blobs[False] == blobs[True]

    def test_enabled_index_accumulates_query_metrics(self, obs_dataset,
                                                     obs_queries):
        index = ClimberIndex.build(obs_dataset, _config(telemetry=True))
        for q in obs_queries[:4]:
            index.knn(q, 5)
        snap = index.stats()["metrics"]
        assert snap["counters"]["query.count"] == 4
        assert snap["counters"]["query.partitions_probed"] >= 4
        assert snap["counters"]["query.bytes_read"] > 0
        assert snap["histograms"]["query.wall_s"]["count"] == 4
        for stage in ("signature", "route", "select", "read", "refine"):
            assert snap["histograms"][f"query.stage.{stage}_s"]["count"] == 4

    def test_record_is_filled_with_telemetry_off(self, obs_dataset,
                                                 obs_queries):
        """The stage clocks and cache counts do not wait for telemetry:
        ``knn``, ``knn_batch`` and a drained ``knn_progressive`` all
        return them with the registry left empty."""
        dfs = SimulatedDFS(cache_bytes=1 << 30)
        index = ClimberIndex.build(obs_dataset, _config(), dfs=dfs)
        results = [index.knn(obs_queries[0], 5)]
        results += index.knn_batch(obs_queries[:3], 5)
        *_, final = index.knn_progressive(obs_queries[1], 5)
        results.append(final)
        for result in results:
            stats = result.stats
            assert len(stats.stage_seconds) == len(QUERY_STAGES)
            assert all(s >= 0.0 for s in stats.stage_seconds)
            assert sum(stats.stage_seconds) <= stats.wall_seconds * (1 + 1e-9)
            assert stats.cache_hits + stats.cache_misses == stats.n_partitions
        assert "query.count" not in index.stats()["metrics"]["counters"]


class TestBatchAmortisation:
    @staticmethod
    def _shares(results, stage):
        return [r.stats.stage_seconds[QUERY_STAGES.index(stage)]
                for r in results]

    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_shared_spans_split_evenly_over_rows(
        self, obs_dataset, obs_queries, sample_every
    ):
        """Each batch row carries an even share (span ÷ rows) of the
        batch-shared signature and route spans, whether or not sampling
        folds its record: summed over the rows, the shares equal the
        measured ``query.batch.*_s`` span.  (Charging a sampled row the
        span ÷ sampled rows instead made it N× its own share.)"""
        index = ClimberIndex.build(
            obs_dataset,
            _config(telemetry=True, telemetry_sample_every=sample_every),
        )
        results = index.knn_batch(obs_queries, 5)
        hist = index.stats()["metrics"]["histograms"]
        n_folded = hist["query.wall_s"]["count"]
        assert n_folded == (len(obs_queries) + sample_every - 1) // sample_every
        for stage in ("signature", "route"):
            shares = self._shares(results, stage)
            assert min(shares) == max(shares)
            assert sum(shares) == pytest.approx(
                hist[f"query.batch.{stage}_s"]["sum"], rel=1e-9
            )

    def test_fully_sampled_out_batch_records_no_stage_times(
        self, obs_dataset, obs_queries
    ):
        """A sampling cadence longer than the batch folds none of its
        rows: the stage histograms keep only the lone ``knn``, while the
        batch span is still measured and the rows still carry its
        shares."""
        cadence = len(obs_queries) + 5
        index = ClimberIndex.build(
            obs_dataset,
            _config(telemetry=True, telemetry_sample_every=cadence),
        )
        index.knn(obs_queries[0], 5)  # tick 0: folded
        results = index.knn_batch(obs_queries, 5)  # ticks 1..6: sampled out
        snap = index.stats()["metrics"]
        assert snap["histograms"]["query.stage.signature_s"]["count"] == 1
        assert snap["counters"]["query.count"] == 1 + len(obs_queries)
        span = snap["histograms"]["query.batch.signature_s"]
        assert span["count"] == 1
        assert sum(self._shares(results, "signature")) == pytest.approx(
            span["sum"], rel=1e-9
        )


class TestQueryRecordCacheCounts:
    def test_overlapping_walks_count_only_their_own_reads(
        self, obs_dataset, obs_queries
    ):
        """A walk counts the cache hits and misses of the reads it made.

        The first progressive walk is routed, then a second walk runs to
        its end, then the first is drained: the second's reads fall
        inside the first's lifetime and must not land in its record."""
        dfs = SimulatedDFS(cache_bytes=1 << 30)
        index = ClimberIndex.build(
            obs_dataset, _config(telemetry=True), dfs=dfs
        )
        before = dfs.counters
        first = index.knn_progressive(obs_queries[0], 5, early_stop="off")
        *_, second = index.knn_progressive(obs_queries[1], 5,
                                           early_stop="off")
        *_, first = first
        after = dfs.counters
        counters = index.stats()["metrics"]["counters"]
        assert (
            counters["query.cache_hits"] + counters["query.cache_misses"]
            == after.cache_hits + after.cache_misses
            - before.cache_hits - before.cache_misses
        )
        for final in (first, second):
            stats = final.stats
            assert stats.cache_hits + stats.cache_misses == len(
                stats.partitions_loaded
            )


# ---------------------------------------------------------------------------
# explain_query
# ---------------------------------------------------------------------------

EXPLAIN_STAGES = {"signature", "route", "select", "read", "refine"}


class TestExplainQuery:
    def test_knn_entry_structure(self, enabled_index, obs_queries):
        entry = enabled_index.explain_query(obs_queries[0], 5)
        assert entry["schema"] == OBS_SCHEMA
        assert entry["mode"] == "knn"
        assert entry["k"] == 5
        assert EXPLAIN_STAGES <= set(entry["stages"])
        assert all(s >= 0.0 for s in entry["stages"].values())
        assert entry["partitions_probed"] == len(entry["partitions"]) > 0
        assert entry["bytes_read"] > 0
        assert entry["records_examined"] >= len(entry["ids"])
        assert entry["cache"]["hits"] >= 0
        assert entry["cache"]["misses"] >= 0
        assert len(entry["ids"]) == len(entry["distances"]) == 5
        assert entry["distances"] == sorted(entry["distances"])
        json.dumps(entry)  # fully JSON-able

    def test_batch_totals_consistent(self, enabled_index, obs_queries):
        out = enabled_index.explain_query(obs_queries[:4], 5)
        assert out["schema"] == OBS_SCHEMA
        assert out["mode"] == "knn_batch"
        assert out["batch_size"] == len(out["queries"]) == 4
        assert out["shared_stages"] == ["signature", "route"]
        for entry in out["queries"]:
            assert EXPLAIN_STAGES <= set(entry["stages"])
        totals = out["totals"]
        assert totals["partitions_probed"] == sum(
            e["partitions_probed"] for e in out["queries"]
        )
        assert totals["bytes_read"] == sum(
            e["bytes_read"] for e in out["queries"]
        )
        assert totals["cache_hits"] == sum(
            e["cache"]["hits"] for e in out["queries"]
        )
        assert totals["cache_misses"] == sum(
            e["cache"]["misses"] for e in out["queries"]
        )
        json.dumps(out)

    def test_explain_works_with_telemetry_disabled(self, obs_dataset,
                                                   obs_queries):
        index = ClimberIndex.build(obs_dataset, _config(telemetry=False))
        entry = index.explain_query(obs_queries[0], 3)
        assert EXPLAIN_STAGES <= set(entry["stages"])
        assert len(entry["ids"]) == 3

    def test_explain_charges_logical_counters(self, obs_dataset, obs_queries):
        dfs = SimulatedDFS()
        index = ClimberIndex.build(obs_dataset, _config(), dfs=dfs)
        before = dfs.counters.bytes_read
        entry = index.explain_query(obs_queries[0], 5)
        assert dfs.counters.bytes_read == before + entry["bytes_read"]


# ---------------------------------------------------------------------------
# stats / reset_stats
# ---------------------------------------------------------------------------

class TestStats:
    def test_stats_sections(self, enabled_index):
        stats = enabled_index.stats()
        assert stats["schema"] == OBS_SCHEMA
        assert stats["telemetry_enabled"] is True
        assert stats["index"]["records"] == enabled_index.n_records
        assert stats["index"]["groups"] == enabled_index.n_groups
        assert stats["index"]["partitions"] == enabled_index.n_partitions
        assert stats["metrics"]["schema"] == OBS_SCHEMA
        assert stats["dfs"]["bytes_written"] > 0
        assert "cache_used_bytes" in stats["dfs"]
        assert stats["process"]["schema"] == OBS_SCHEMA
        json.dumps(stats)

    def test_reset_scope(self, obs_dataset, obs_queries):
        """reset_stats zeroes the index registry only — logical DFS
        counters (paper accounting) survive."""
        dfs = SimulatedDFS()
        index = ClimberIndex.build(
            obs_dataset, _config(telemetry=True), dfs=dfs
        )
        index.knn(obs_queries[0], 5)
        assert index.stats()["metrics"]["counters"]["query.count"] == 1
        bytes_read = dfs.counters.bytes_read
        assert bytes_read > 0
        index.reset_stats()
        stats = index.stats()
        assert stats["metrics"]["counters"]["query.count"] == 0
        assert dfs.counters.bytes_read == bytes_read
        assert stats["dfs"]["bytes_read"] == bytes_read


# ---------------------------------------------------------------------------
# Build instrumentation
# ---------------------------------------------------------------------------

class TestBuildTelemetry:
    def test_build_spans_recorded(self, enabled_index):
        snap = enabled_index.stats()["metrics"]
        hists = snap["histograms"]
        for span in ("build.skeleton_s", "build.convert_s",
                     "build.redistribute_s", "build.wall_s",
                     "build.redistribute.compile_s",
                     "build.redistribute.route_s",
                     "build.redistribute.write_s",
                     "build.convert.block_s"):
            assert hists[span]["count"] >= 1, span
        # Per-worker attribution from wrap_tasks (serial build: main thread).
        assert any(
            name.startswith("parallel.worker.") and name.endswith(".tasks")
            for name in snap["counters"]
        )

    def test_disabled_build_records_nothing(self, obs_dataset):
        index = ClimberIndex.build(obs_dataset, _config(telemetry=False))
        assert index.stats()["metrics"]["histograms"] == {}

    def test_dfs_registry_carries_logical_counters(self):
        dfs = SimulatedDFS()
        snap = dfs.registry.snapshot()
        assert set(snap["counters"]) == {
            metric for _, metric in type(dfs.counters).METRIC_NAMES
        }
