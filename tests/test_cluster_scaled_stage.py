"""Tests for scaled-stage accounting and the baseline build-cost helper."""

from __future__ import annotations

import pytest

from repro.baselines.common import simulate_distributed_build
from repro.cluster import (
    ClusterSimulator,
    CostModel,
    TaskCost,
    partition_scan_cost,
)
from repro.datasets import random_walk_dataset
from repro.storage import encode_partition_v2_arrays
import numpy as np


def quiet_model(**kwargs) -> CostModel:
    defaults = dict(task_overhead_s=0.0, stage_overhead_s=0.0, disk_seek_s=0.0,
                    software_factor=1.0)
    defaults.update(kwargs)
    return CostModel(**defaults)


class TestRunScaledStage:
    def test_splits_volume_into_block_tasks(self):
        sim = ClusterSimulator(quiet_model())
        granule = 64 * 1024 * 1024
        report = sim.run_scaled_stage(
            "s", TaskCost(read_bytes=granule * 10), granule_bytes=granule
        )
        assert report.n_tasks == 10

    def test_min_tasks_respected(self):
        sim = ClusterSimulator(quiet_model())
        report = sim.run_scaled_stage(
            "s", TaskCost(read_bytes=1024), min_tasks=7
        )
        assert report.n_tasks == 7

    def test_pure_cpu_stage_uses_min_tasks(self):
        sim = ClusterSimulator(quiet_model())
        report = sim.run_scaled_stage(
            "s", TaskCost(cpu_ops=10**9), min_tasks=3
        )
        assert report.n_tasks == 3

    def test_total_preserved_up_to_rounding(self):
        sim = ClusterSimulator(quiet_model())
        total = TaskCost(read_bytes=10**9, cpu_ops=10**8)
        report = sim.run_scaled_stage("s", total)
        assert report.total_cost.read_bytes == pytest.approx(10**9, rel=1e-3)
        assert report.total_cost.cpu_ops == pytest.approx(10**8, rel=1e-3)

    def test_granularity_exploits_parallelism(self):
        """The same CPU total must finish faster when split into blocks.

        This is the accounting property that keeps scaled-down runs from
        bottlenecking the simulated cluster on artificial task counts.
        """
        model = quiet_model()
        total = TaskCost(cpu_ops=int(112 * 1.5e9), read_bytes=112 * 1024 * 1024)
        coarse = ClusterSimulator(model).run_stage("coarse", [total])
        fine = ClusterSimulator(model).run_scaled_stage(
            "fine", total, granule_bytes=1024 * 1024
        )
        assert fine.sim_seconds < 0.25 * coarse.sim_seconds


class TestSimulateDistributedBuild:
    def test_stage_structure(self):
        ds = random_walk_dataset(200, 32, seed=1)
        report = simulate_distributed_build(
            CostModel(), ds, cost_scale=1000.0, n_chunks=16,
            sample_fraction=0.1, per_record_ops=500,
        )
        names = [s.name for s in report.stages]
        assert any(n.startswith("build/skeleton/sample") for n in names)
        assert any(n.startswith("build/convert") for n in names)
        assert any(n.startswith("build/redistribute") for n in names)

    def test_no_write_fraction_drops_redistribution(self):
        ds = random_walk_dataset(200, 32, seed=1)
        report = simulate_distributed_build(
            CostModel(), ds, cost_scale=1000.0, n_chunks=16,
            sample_fraction=0.1, per_record_ops=500, write_fraction=0.0,
        )
        assert report.seconds_for("build/redistribute") == 0.0

    def test_cost_scale_moves_time(self):
        ds = random_walk_dataset(200, 32, seed=1)

        def total(scale):
            return simulate_distributed_build(
                CostModel(), ds, cost_scale=scale, n_chunks=16,
                sample_fraction=0.1, per_record_ops=500,
            ).total_seconds

        # In the I/O-dominated regime (beyond fixed stage overheads) the
        # build time grows ~linearly with the data volume.
        assert total(1e7) > 5 * total(1e6)

    def test_expensive_conversion_dominates(self):
        """Higher per-record ops must slow the build (the DPiSAX story)."""
        ds = random_walk_dataset(200, 32, seed=1)

        def total(ops):
            return simulate_distributed_build(
                CostModel(), ds, cost_scale=1e6, n_chunks=16,
                sample_fraction=0.1, per_record_ops=ops,
            ).total_seconds

        assert total(20_000) > 1.5 * total(500)


class TestPartitionScanCost:
    def _part(self):
        """Stored size, record count and series length of one partition."""
        payload = encode_partition_v2_arrays(
            "p", np.arange(10), np.zeros((10, 16)), {"a": (0, 10)}
        )
        return len(payload), 10, 16

    def test_block_granular_mode(self):
        nbytes, n_records, length = self._part()
        block = 64 * 1024 * 1024
        cost = partition_scan_cost(
            nbytes, n_records, length,
            cost_scale=1e6, sim_partition_bytes=block,
        )
        assert cost.read_bytes == block
        # CPU charged for one block's worth of records, not the scaled count.
        assert cost.cpu_ops < 1e12

    def test_honest_mode_scales_bytes(self):
        nbytes, n_records, length = self._part()
        cost = partition_scan_cost(
            nbytes, n_records, length,
            cost_scale=100.0, sim_partition_bytes=None,
        )
        assert cost.read_bytes == nbytes * 100
