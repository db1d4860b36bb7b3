"""Tests for ground truth, the evaluation harness, and reporting."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

from repro.baselines import DssScanner
from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.evaluation import (
    evaluate_system,
    exact_ground_truth,
    fmt_duration,
    modeled_query_seconds,
    render_table,
    write_csv,
)
from repro.exceptions import ConfigurationError
from repro.storage import SimulatedDFS

CLIMBER_CFG = ClimberConfig(word_length=8, n_pivots=24, prefix_length=5,
                            capacity=60, sample_fraction=0.3,
                            n_input_partitions=8, seed=2)


@pytest.fixture(scope="module")
def workload():
    ds = random_walk_dataset(600, 32, seed=6)
    qs = sample_queries(ds, 8, seed=1)
    truth = exact_ground_truth(ds, qs, 10)
    return ds, qs, truth


@pytest.fixture(scope="module")
def climber(workload):
    ds, _, _ = workload
    return ClimberIndex.build(ds, CLIMBER_CFG)


class TestGroundTruth:
    def test_length_and_k(self, workload):
        _, qs, truth = workload
        assert len(truth) == 8
        assert truth.k == 10

    def test_self_is_neighbor(self, workload):
        """Queries drawn from the dataset contain themselves in ground truth."""
        _, qs, truth = workload
        for qi, qid in enumerate(qs.ids):
            assert qid in truth.neighbors_of(qi)

    def test_recall_perfect(self, workload):
        _, _, truth = workload
        assert truth.recall_of(0, truth.neighbors_of(0)) == 1.0

    def test_recall_partial(self, workload):
        _, _, truth = workload
        half = truth.neighbors_of(0)[:5]
        assert truth.recall_of(0, half) == pytest.approx(0.5)

    def test_recall_zero(self, workload):
        _, _, truth = workload
        assert truth.recall_of(0, np.array([-1, -2])) == 0.0

    def test_rejects_bad_k(self, workload):
        ds, qs, _ = workload
        with pytest.raises(ConfigurationError):
            exact_ground_truth(ds, qs, 0)


class TestEvaluateSystem:
    def test_exact_system_scores_one(self, workload):
        ds, qs, truth = workload
        dss = DssScanner.build(ds, n_partitions=4)
        ev = evaluate_system("Dss", dss.knn, qs, truth, 10)
        assert ev.recall == pytest.approx(1.0)
        assert ev.system == "Dss"
        assert ev.n_queries == 8
        assert ev.partitions == 4.0
        assert ev.sim_seconds > 0

    def test_modeled_argument_supplies_the_clock_stats_do_not_carry(
            self, workload, climber):
        _, qs, truth = workload
        ev = evaluate_system(
            "CLIMBER", climber.knn, qs, truth, 10,
            modeled=functools.partial(modeled_query_seconds, climber),
        )
        assert ev.sim_seconds > 0
        assert ev.recall > 0
        unmodeled = evaluate_system("CLIMBER", climber.knn, qs, truth, 10)
        assert math.isnan(unmodeled.sim_seconds)
        assert unmodeled.recall == ev.recall

    def test_row_is_flat(self, workload):
        ds, qs, truth = workload
        dss = DssScanner.build(ds, n_partitions=4)
        row = evaluate_system("Dss", dss.knn, qs, truth, 10).row()
        assert row["recall"] == 1.0
        assert set(row) >= {"system", "k", "recall", "query_sim_s"}


class TestModeledQuerySeconds:
    """The cost model is a function of an answer's stats, computed on
    demand: the same number the walk used to carry, paid for by nobody
    who does not ask."""

    def test_positive_and_reads_metadata_only(self, workload, climber):
        _, qs, _ = workload
        res = climber.knn(qs.values[0], 10)
        before = climber.dfs.counters
        assert modeled_query_seconds(climber, res.stats) > 0
        assert climber.dfs.counters == before

    @pytest.mark.parametrize("variant", ["knn", "adaptive", "od-smallest"])
    def test_equal_however_the_query_was_answered(self, workload, climber,
                                                  variant):
        _, qs, _ = workload
        for q in qs.values[:4]:
            single = climber.knn(q, 10, variant=variant)
            row = climber.knn_batch(
                np.vstack([q, qs.values[5]]), 10, variant=variant
            )[0]
            *_, final = climber.knn_progressive(
                q, 10, variant=variant, early_stop="off"
            )
            assert single.stats.partitions_loaded
            assert len({
                modeled_query_seconds(climber, stats)
                for stats in (single.stats, row.stats, final.stats)
            }) == 1

    def test_equal_wherever_the_partitions_live(self, workload, tmp_path):
        """Memory, disk, and a reopened store read with the cache cold
        and then warm."""
        ds, qs, _ = workload
        memory = ClimberIndex.build(ds, CLIMBER_CFG, dfs=SimulatedDFS())
        disk = ClimberIndex.build(
            ds, CLIMBER_CFG, dfs=SimulatedDFS(backing_dir=tmp_path / "dfs")
        )
        cached = SimulatedDFS(backing_dir=tmp_path / "dfs",
                              cache_bytes=1 << 26)
        cached.attach()
        reopened = ClimberIndex.reopen(
            disk.save_global_index(), cached, CLIMBER_CFG
        )
        for q in qs.values:
            numbers = set()
            for index in (memory, disk, reopened, reopened):
                res = index.knn(q, 10, variant="od-smallest")
                numbers.add(modeled_query_seconds(index, res.stats))
            assert len(numbers) == 1
        assert cached.counters.cache_hits > 0

    def test_grows_with_partitions_loaded(self, workload, climber):
        _, qs, _ = workload
        stats = max(
            (climber.knn(q, 10, variant="od-smallest").stats
             for q in qs.values),
            key=lambda s: len(s.partitions_loaded),
        )
        assert len(stats.partitions_loaded) > 1
        fewer = dataclasses.replace(
            stats, partitions_loaded=stats.partitions_loaded[:1]
        )
        assert (modeled_query_seconds(climber, stats)
                > modeled_query_seconds(climber, fewer))

    def test_honours_sim_partition_bytes(self, workload, climber):
        """With ``sim_partition_bytes`` set a touched partition costs one
        storage block, whatever it holds."""
        _, qs, _ = workload
        stats = climber.knn(qs.values[0], 10).stats
        honest = modeled_query_seconds(climber, stats)

        def blocks(nbytes):
            cfg = dataclasses.replace(CLIMBER_CFG, sim_partition_bytes=nbytes)
            return modeled_query_seconds(
                ClimberIndex(climber._art, cfg, climber.model), stats
            )

        assert blocks(64 << 20) > honest
        assert blocks(128 << 20) > blocks(64 << 20)


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table("T", [{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}])
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert len({len(line) for line in lines[1:]}) == 1

    def test_render_empty(self):
        assert "(no rows)" in render_table("T", [])

    def test_render_column_subset(self):
        out = render_table("T", [{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[1]

    def test_write_csv_roundtrip(self, tmp_path):
        rows = [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]
        path = write_csv(tmp_path / "sub" / "out.csv", rows)
        text = path.read_text().strip().splitlines()
        assert text[0] == "x,y"
        assert text[1] == "1,a"

    def test_write_csv_empty(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", [])
        assert path.read_text() == ""

    def test_fmt_duration(self):
        assert fmt_duration(12.34) == "12.3s"
        assert fmt_duration(600) == "10.0m"
        assert fmt_duration(float("nan")) == "X"
