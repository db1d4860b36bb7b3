"""End-to-end recall regression gate (Def. 4 / Lernaean-Hydra protocol).

The evaluation harness has always *measured* recall against exact ground
truth (``repro.evaluation.groundtruth``) but never *enforced* it, so a
perf refactor of the conversion/assignment path had no quality safety
net.  This test is that net: a small seeded random-walk index must reach
a recorded average recall@10 floor, for both query variants.

The floor (0.40) is the value measured at the recorded seeds when the
gate was introduced; CLIMBER-kNN on this workload is deterministic given
the seeds, so any drop signals a real behaviour change, not noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset, sample_queries
from repro.evaluation import exact_ground_truth

K = 10
N_QUERIES = 25
RECALL_FLOOR = 0.40

CFG = ClimberConfig(word_length=8, n_pivots=32, prefix_length=6, capacity=150,
                    sample_fraction=0.25, n_input_partitions=16, seed=3)


@pytest.fixture(scope="module")
def workload():
    dataset = random_walk_dataset(2500, 64, seed=17)
    queries = sample_queries(dataset, N_QUERIES, seed=99)
    truth = exact_ground_truth(dataset, queries, K)
    return dataset, queries, truth


@pytest.fixture(scope="module")
def index(workload):
    dataset, _, _ = workload
    return ClimberIndex.build(dataset, CFG)


def mean_recall(index, queries, truth, variant):
    recalls = [
        truth.recall_of(i, index.knn(q, K, variant=variant).ids)
        for i, q in enumerate(queries.values)
    ]
    return float(np.mean(recalls))


class TestRecallRegression:
    @pytest.mark.parametrize("variant", ["knn", "adaptive"])
    def test_recall_floor(self, index, workload, variant):
        _, queries, truth = workload
        recall = mean_recall(index, queries, truth, variant)
        assert recall >= RECALL_FLOOR, (
            f"avg recall@{K} {recall:.3f} of variant={variant!r} "
            f"fell below the recorded {RECALL_FLOOR} floor"
        )

    def test_exact_ground_truth_self_consistency(self, workload):
        """Queries drawn from the dataset contain themselves in the truth."""
        _, queries, truth = workload
        for i, qid in enumerate(truth.query_ids):
            assert qid in set(truth.neighbors_of(i).tolist())
