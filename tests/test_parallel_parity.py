"""Parallel execution layer: bit-identical parity and failure propagation.

The contract under test (see :mod:`repro.core.parallel`): any
``n_workers`` produces **bit-identical** results to ``n_workers=1`` —
same partition bytes, same logical counters, same kNN answers — because
every parallel call site defers RNG and registration to the caller's
thread in deterministic order.  Worker scheduling must never leak into
results; a worker exception must surface on the caller, not hang.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.core.builder as builder_mod
from repro.core.builder import build_index_artifacts
from repro.core.config import ClimberConfig
from repro.core.index import ClimberIndex
from repro.core.parallel import (
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    split_ranges,
)
from repro.core.skeleton import SkeletonWithPivots
from repro.exceptions import ConfigurationError, PartitionLostError
from repro.resilience import FaultPlan, RetryPolicy
from repro.series import SeriesDataset
from repro.storage import SimulatedDFS


def _dataset(n=3000, length=64, seed=11):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, length))
    # Duplicate a stretch of rows so signature ties (and with them the
    # RNG tie-break tail) actually occur.
    values[n // 4: n // 4 + 50] = values[: 50]
    return SeriesDataset(values)


def _config(n_workers, seed=5):
    return ClimberConfig(
        word_length=8,
        n_pivots=24,
        prefix_length=4,
        capacity=64,
        sample_fraction=0.5,
        seed=seed,
        n_input_partitions=8,
        n_workers=n_workers,
    )


def _partition_payloads(dfs):
    """Stored physical bytes of every partition, by id."""
    engine = dfs.engine
    out = {}
    for pid in dfs.list_partitions():
        size = dfs.partition_nbytes(pid)
        out[pid] = bytes(
            engine.backend.read_range(f"{pid}{engine.SUFFIX}", 0, size)
        )
    return out


# -- executor primitives ---------------------------------------------------------


class TestExecutors:
    def test_make_executor_serial_for_one_worker(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_make_executor_kinds(self):
        # One worker is serial, more are a thread pool; the worker count
        # is the only argument.
        with make_executor(2) as ex:
            assert isinstance(ex, ThreadExecutor)
            assert ex.n_workers == 2
        with pytest.raises(ConfigurationError):
            make_executor(0)
        with pytest.raises(TypeError):
            make_executor("thread", 2)

    def test_map_preserves_order(self):
        items = list(range(50))
        with make_executor(4) as ex:
            assert ex.map(lambda x: x * x, items) == [x * x for x in items]

    def test_thread_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("worker failed")
            return x

        with make_executor(2) as ex:
            with pytest.raises(ValueError, match="worker failed"):
                ex.map(boom, range(8))

    def test_split_ranges(self):
        assert split_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert split_ranges(0, 4) == []
        with pytest.raises(ConfigurationError):
            split_ranges(10, 0)


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
            # The broadcast structure (skeleton + pivots, and with the
            # skeleton the sample counts the build is modelled from) must
            # agree too.
            assert SkeletonWithPivots(
                art.skeleton, art.pivots
            ).to_bytes() == SkeletonWithPivots(
                reference.skeleton, reference.pivots
            ).to_bytes()


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
    def test_persistent_worker_failure_surfaces_from_build(self, monkeypatch):
        # A task failure must abort the build on the caller's thread —
        # not hang the pool.
        dataset = _dataset(n=3000)

        def broken(task):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(builder_mod, "_convert_block", broken)
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
        with pytest.raises(RuntimeError, match="injected shard failure"):
            index.knn_batch(queries, k=3)

    def test_lost_partition_fails_alike_at_any_worker_count(self):
        # A shard that reads a lost partition raises exactly as the serial
        # sweep does: the same error, no warning, and the same logical
        # reads — the executor never re-runs a task.  Eight rows are one
        # shard, so the reads are exact whatever the thread scheduling.
        dataset = _dataset()
        queries = dataset.values[56:64]
        observed = []
        for n_workers in (1, 2):
            dfs = SimulatedDFS(
                fault_plan=FaultPlan(seed=5, loss_rate=0.3),
                retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            )
            index = ClimberIndex.build(dataset, _config(n_workers), dfs=dfs)
            before = dfs.counters
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(PartitionLostError):
                    index.knn_batch(queries, k=5,
                                    on_partition_failure="raise")
            after = dfs.counters
            observed.append(tuple(
                getattr(after, f) - getattr(before, f)
                for f in ("read_failures", "partitions_read", "bytes_read")
            ))
        assert observed[0][0] == 1 and observed[0][1] > 0
        assert observed[1] == observed[0]
