"""Parallel execution layer: bit-identical parity and failure propagation.

The contract under test (see :mod:`repro.core.parallel`): any
``n_workers`` produces **bit-identical** results to ``n_workers=1`` —
same partition bytes, same logical counters, same kNN answers — because
every parallel call site defers RNG and registration to the caller's
thread in deterministic order.  Worker scheduling must never leak into
results; a worker exception must surface on the caller, not hang.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from conftest import expect_degraded

import repro.core.builder as builder_mod
from repro.core.builder import build_index_artifacts
from repro.core.config import ClimberConfig
from repro.core.index import ClimberIndex
from repro.core.parallel import (
    EXECUTOR_KINDS,
    N_WORKERS_ENV,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    resolve_n_workers,
    split_ranges,
)
from repro.core.skeleton import SkeletonWithPivots
from repro.exceptions import ConfigurationError
from repro.series import SeriesDataset


def _dataset(n=3000, length=64, seed=11):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, length))
    # Duplicate a stretch of rows so signature ties (and with them the
    # RNG tie-break tail) actually occur.
    values[n // 4: n // 4 + 50] = values[: 50]
    return SeriesDataset(values)


def _config(n_workers, executor="thread", seed=5):
    return ClimberConfig(
        word_length=8,
        n_pivots=24,
        prefix_length=4,
        capacity=64,
        sample_fraction=0.5,
        seed=seed,
        n_input_partitions=8,
        n_workers=n_workers,
        executor=executor,
    )


def _partition_payloads(dfs):
    """Stored physical bytes of every partition, by id."""
    engine = dfs.engine
    out = {}
    for pid in dfs.list_partitions():
        size = engine.physical_nbytes(pid)
        out[pid] = bytes(
            engine.backend.read_range(f"{pid}{engine.SUFFIX}", 0, size)
        )
    return out


# -- executor primitives ---------------------------------------------------------


class TestExecutors:
    def test_resolve_explicit(self):
        assert resolve_n_workers(3) == 3

    def test_resolve_default_is_one(self, monkeypatch):
        monkeypatch.delenv(N_WORKERS_ENV, raising=False)
        assert resolve_n_workers(None) == 1

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv(N_WORKERS_ENV, "4")
        assert resolve_n_workers(None) == 4

    def test_resolve_env_invalid(self, monkeypatch):
        monkeypatch.setenv(N_WORKERS_ENV, "two")
        with pytest.raises(ConfigurationError):
            resolve_n_workers(None)

    def test_resolve_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            resolve_n_workers(0)

    def test_make_executor_serial_for_one_worker(self):
        for kind in EXECUTOR_KINDS:
            assert isinstance(make_executor(kind, 1), SerialExecutor)

    def test_make_executor_kinds(self):
        with make_executor("thread", 2) as ex:
            assert isinstance(ex, ThreadExecutor)
        with make_executor("process", 2) as ex:
            assert isinstance(ex, ProcessExecutor)
            assert not ex.shares_memory
        assert isinstance(make_executor("serial", 8), SerialExecutor)

    def test_make_executor_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_executor("gpu", 2)

    def test_shared_memory_gate_degrades_process_to_threads(self):
        with expect_degraded(match="shared-memory stage"):
            ex = make_executor("process", 2, require_shared_memory=True)
        with ex:
            assert isinstance(ex, ThreadExecutor)
            assert ex.shares_memory

    def test_map_preserves_order(self):
        items = list(range(50))
        with make_executor("thread", 4) as ex:
            assert ex.map(lambda x: x * x, items) == [x * x for x in items]

    def test_process_map_runs(self):
        with make_executor("process", 2) as ex:
            assert ex.map(abs, [-1, -2, 3]) == [1, 2, 3]

    def test_thread_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("worker failed")
            return x

        with make_executor("thread", 2) as ex:
            with pytest.raises(ValueError, match="worker failed"), \
                    expect_degraded(match="failed twice"):
                ex.map(boom, range(8))

    def test_split_ranges(self):
        assert split_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert split_ranges(0, 4) == []
        with pytest.raises(ConfigurationError):
            split_ranges(10, 0)


def test_config_effective_n_workers(monkeypatch):
    monkeypatch.setenv(N_WORKERS_ENV, "3")
    assert ClimberConfig(n_workers=None).effective_n_workers == 3
    assert ClimberConfig(n_workers=2).effective_n_workers == 2
    with pytest.raises(ConfigurationError):
        ClimberConfig(n_workers=0)
    with pytest.raises(ConfigurationError):
        ClimberConfig(executor="fiber")


# -- build parity ----------------------------------------------------------------


class TestBuildParity:
    def test_build_bit_identical_across_worker_counts(self):
        dataset = _dataset()
        reference = build_index_artifacts(dataset, _config(1))
        ref_payloads = _partition_payloads(reference.dfs)
        assert len(ref_payloads) > 5
        for n_workers in (2, 4):
            art = build_index_artifacts(dataset, _config(n_workers))
            assert _partition_payloads(art.dfs) == ref_payloads
            assert art.dfs.counters == reference.dfs.counters
            # The broadcast structure (skeleton + pivots) must agree too.
            assert SkeletonWithPivots(
                art.skeleton, art.pivots
            ).to_bytes() == SkeletonWithPivots(
                reference.skeleton, reference.pivots
            ).to_bytes()
            # And the simulated build: same stages, task counts, costs
            # and seconds, to the bit.
            assert [
                (s.name, s.n_tasks, s.total_cost, s.sim_seconds)
                for s in art.sim_report.stages
            ] == [
                (s.name, s.n_tasks, s.total_cost, s.sim_seconds)
                for s in reference.sim_report.stages
            ]

    def test_build_process_executor_parity(self):
        dataset = _dataset(n=1500)
        reference = build_index_artifacts(dataset, _config(1))
        art = build_index_artifacts(
            dataset, _config(2, executor="process")
        )
        assert _partition_payloads(art.dfs) == _partition_payloads(
            reference.dfs
        )

    def test_process_executor_encodes_without_fallback(self):
        # Regression (PR-6 remaining item): redistribution encodes used to
        # fall back to serial on process pools because the encode task
        # closed over live engine handles.  The encode spec is plain data
        # now, so a process build must not record any fallback — the
        # only pooled stage that still degrades is the shared-memory trie
        # compile, which warns through make_executor, not the builder.
        import warnings

        from repro.obs import global_registry

        dataset = _dataset(n=1500)
        before = global_registry().counter("parallel.fallbacks").value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            art = build_index_artifacts(
                dataset, _config(2, executor="process")
            )
        assert global_registry().counter("parallel.fallbacks").value == before
        assert _partition_payloads(art.dfs) == _partition_payloads(
            build_index_artifacts(dataset, _config(1)).dfs
        )

    def test_encode_partition_task_matches_engine_encode(self):
        # The picklable spec path and the live-engine path must produce
        # identical payload bytes, with and without the CRC block.
        from repro.core.builder import _encode_partition_task
        from repro.storage.engine import MemoryBackend, StorageEngine

        rng = np.random.default_rng(7)
        ids = np.arange(40, dtype=np.int64)
        values = rng.standard_normal((40, 16))
        header = {"g0/a": (0, 25), "g0/b": (25, 15)}
        for checksums in (True, False):
            engine = StorageEngine(MemoryBackend(), checksums=checksums)
            expected = engine.encode_arrays("part-x", ids, values, header)
            got = _encode_partition_task(
                ("part-x", ids, values, header, checksums)
            )
            assert got == expected


# -- query parity ----------------------------------------------------------------


class TestQueryParity:
    @pytest.mark.parametrize("variant", ["knn", "adaptive", "od-smallest"])
    def test_knn_batch_identical_across_worker_counts(self, variant):
        dataset = _dataset()
        rng = np.random.default_rng(23)
        queries = rng.standard_normal((40, dataset.length))
        # Duplicate queries exercise the routing dedup alongside sharding.
        queries[30:] = queries[:10]

        reference = None
        for n_workers in (1, 2, 4):
            index = ClimberIndex.build(dataset, _config(n_workers))
            results = index.knn_batch(queries, k=5, variant=variant)
            logical = index.dfs.counters
            summary = [
                (
                    r.ids.tolist(),
                    r.distances.tolist(),
                    r.stats.partitions_loaded,
                    r.stats.records_examined,
                    r.stats.sim_seconds,
                )
                for r in results
            ]
            if reference is None:
                reference = (summary, logical.bytes_read,
                             logical.partitions_read)
            else:
                assert summary == reference[0]
                assert logical.bytes_read == reference[1]
                assert logical.partitions_read == reference[2]

    def test_knn_batch_matches_single_queries_with_workers(self):
        dataset = _dataset(n=1500)
        queries = np.random.default_rng(3).standard_normal(
            (12, dataset.length)
        )
        batch_index = ClimberIndex.build(dataset, _config(4))
        single_index = ClimberIndex.build(dataset, _config(1))
        batch = batch_index.knn_batch(queries, k=5)
        for i, result in enumerate(batch):
            solo = single_index.knn(queries[i], k=5)
            assert np.array_equal(result.ids, solo.ids)
            assert np.allclose(result.distances, solo.distances)


# -- failure propagation ---------------------------------------------------------


class TestFailurePropagation:
    def test_transient_worker_failure_recovers_via_retry(self, monkeypatch):
        # 3000 records / 4096-row blocks -> one conversion task; a one-shot
        # injected failure is resubmitted (parallel.task_retries) and the
        # build completes — bit-identical to an unfaulted serial build.
        dataset = _dataset(n=3000)
        real = builder_mod._convert_block
        calls = {"n": 0}

        def flaky(task):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected worker failure")
            return real(task)

        from repro.obs import global_registry

        retries_before = global_registry().counter(
            "parallel.task_retries"
        ).value
        monkeypatch.setattr(builder_mod, "_convert_block", flaky)
        artifacts = build_index_artifacts(dataset, _config(2))
        monkeypatch.setattr(builder_mod, "_convert_block", real)
        reference = build_index_artifacts(dataset, _config(1))
        assert calls["n"] >= 2
        assert global_registry().counter(
            "parallel.task_retries"
        ).value > retries_before
        assert sorted(artifacts.dfs.list_partitions()) == sorted(
            reference.dfs.list_partitions()
        )

    def test_persistent_worker_failure_surfaces_from_build(self, monkeypatch):
        # A deterministic task failure survives the retry and the serial
        # rerun, and must abort the build on the caller's thread — not
        # hang the pool.
        dataset = _dataset(n=3000)

        def broken(task):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(builder_mod, "_convert_block", broken)
        with pytest.warns(RuntimeWarning, match="failed twice"):
            with pytest.raises(RuntimeError, match="injected worker failure"):
                build_index_artifacts(dataset, _config(2))

    def test_worker_exception_surfaces_from_knn_batch(self, monkeypatch):
        dataset = _dataset(n=1000)
        index = ClimberIndex.build(dataset, _config(1))
        index.config = _config(2)

        def boom(*args, **kwargs):
            raise RuntimeError("injected shard failure")

        monkeypatch.setattr(index, "_knn_routed", boom)
        queries = np.random.default_rng(1).standard_normal(
            (20, dataset.length)
        )
        with pytest.warns(RuntimeWarning, match="failed twice"):
            with pytest.raises(RuntimeError, match="injected shard failure"):
                index.knn_batch(queries, k=3)


def test_env_var_drives_build(monkeypatch):
    # CLIMBER_N_WORKERS alone (config untouched) must route the build
    # through the thread pool and still produce the serial bytes.
    dataset = _dataset(n=1200)
    monkeypatch.delenv(N_WORKERS_ENV, raising=False)
    reference = build_index_artifacts(dataset, _config(None))
    monkeypatch.setenv(N_WORKERS_ENV, "2")
    art = build_index_artifacts(dataset, _config(None))
    assert _partition_payloads(art.dfs) == _partition_payloads(reference.dfs)
