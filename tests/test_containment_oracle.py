"""The containment oracle: an answer is exact over what its walk read.

Whatever a query's routed walk does — run to the end, stream, stop early,
skip a lost partition, expand within a partition — its answer must be the
``k`` smallest ``(distance, id)`` among exactly the records its
``read_clusters_with_norms`` calls returned, and ``stats.records_examined`` must be
how many those were.  The oracle shares no code with the kernel under
test: it logs the ids the storage layer handed back, looks the series up
in the *raw dataset* by id, and recomputes distances in plain NumPy
(``((x - q) ** 2).sum(1)``) — no ``repro.series`` import, no store read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.resilience import FaultPlan, RetryPolicy
from repro.storage import SimulatedDFS

N_RECORDS, LENGTH = 1500, 32
VARIANTS = ("knn", "adaptive", "od-smallest")
#: One neighbour, a usual k, and more than any walk can visit (which also
#: forces the within-partition expansion).
KS = (1, 10, N_RECORDS + 1)
MODES = ("knn", "knn_batch", "drained", "streak:1", "skip")


class ReadLog:
    """Every ``read_partition_with_hit`` call of an index's DFS (the
    walk's read), and the record ids each of the handle's
    ``read_clusters_with_norms`` calls returned."""

    class _Handle:
        def __init__(self, part, ids_seen):
            self._part = part
            self._ids_seen = ids_seen

        def __getattr__(self, name):
            return getattr(self._part, name)

        def read_clusters_with_norms(self, keys):
            ids, values, norms = self._part.read_clusters_with_norms(keys)
            self._ids_seen.append(np.array(ids))
            return ids, values, norms

    def __init__(self, index, monkeypatch):
        self.opens: list[list[np.ndarray]] = []
        read_partition = index.dfs.read_partition_with_hit

        def logged(name):
            ids_seen: list[np.ndarray] = []
            self.opens.append(ids_seen)  # logged even if the open fails
            part, hit = read_partition(name)
            return self._Handle(part, ids_seen), hit

        monkeypatch.setattr(index.dfs, "read_partition_with_hit", logged)

    def take(self, n_opens: int) -> np.ndarray:
        """Ids returned under the next ``n_opens`` partition opens."""
        taken, self.opens = self.opens[:n_opens], self.opens[n_opens:]
        parts = [ids for ids_seen in taken for ids in ids_seen]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _build(dfs=None, **overrides):
    ds = random_walk_dataset(N_RECORDS, LENGTH, seed=31)
    cfg = ClimberConfig(word_length=8, n_pivots=24, prefix_length=4,
                        capacity=90, sample_fraction=0.3,
                        n_input_partitions=4, seed=6, n_workers=1,
                        **overrides)
    return ds, ClimberIndex.build(ds, cfg, dfs=dfs)


@pytest.fixture(scope="module")
def healthy():
    return _build()


@pytest.fixture(scope="module")
def lossy():
    return _build(
        dfs=SimulatedDFS(
            fault_plan=FaultPlan(seed=1234, loss_rate=0.3),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        ),
        on_partition_failure="skip",
    )


def _queries(ds, n, seed):
    # Perturbed members, not members: every true distance is well above
    # the cancellation noise of a norm-expansion kernel.
    rng = np.random.default_rng(seed)
    rows = rng.choice(N_RECORDS, size=n, replace=False)
    return ds.values[rows] + 0.3 * rng.standard_normal((n, LENGTH))


def _assert_contained(ds, query, k, ids_read, answer_ids, answer_dists, stats):
    assert np.unique(ids_read).shape[0] == ids_read.shape[0]
    assert stats.records_examined == ids_read.shape[0]
    row_of = {int(i): row for row, i in enumerate(ds.ids)}
    x = ds.values[[row_of[int(i)] for i in ids_read]].reshape(-1, LENGTH)
    dist = np.sqrt(((x - query) ** 2).sum(1))
    best = np.lexsort((ids_read, dist))[:k]
    np.testing.assert_array_equal(answer_ids, ids_read[best])
    np.testing.assert_allclose(answer_dists, dist[best], rtol=1e-9, atol=0)


def _n_opens(stats):
    return len(stats.partitions_loaded) + len(stats.partitions_failed)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("mode", MODES)
def test_answer_is_exact_over_the_records_read(
    healthy, lossy, monkeypatch, mode, k, variant
):
    ds, index = lossy if mode == "skip" else healthy
    log = ReadLog(index, monkeypatch)
    queries = _queries(ds, 6, seed=k + len(variant))
    degraded = stopped = 0
    if mode == "knn_batch":
        rows = index.knn_batch(queries, k, variant=variant)
        for query, row in zip(queries, rows):
            # n_workers=1: rows are answered in order, one after another.
            ids_read = log.take(_n_opens(row.stats))
            _assert_contained(ds, query, k, ids_read, row.ids,
                              row.distances, row.stats)
        assert not log.opens
        return
    for query in queries:
        if mode in ("knn", "skip"):
            answer = index.knn(query, k, variant=variant)
        else:
            early_stop = "off" if mode == "drained" else mode
            answer = list(index.knn_progressive(
                query, k, variant=variant, early_stop=early_stop
            ))[-1]
            stopped += answer.stopped_early
        degraded += bool(answer.stats.partitions_failed)
        # Every open ends up loaded or failed, once: what knn_batch rows
        # are told apart by above.
        assert len(log.opens) == _n_opens(answer.stats)
        ids_read = log.take(len(log.opens))
        _assert_contained(ds, query, k, ids_read, answer.ids,
                          answer.distances, answer.stats)
    if mode == "skip" and variant == "od-smallest":
        assert degraded, "loss_rate=0.3 lost no partition of any walk"
    if mode == "streak:1" and variant == "od-smallest" and k == 10:
        assert stopped, "streak:1 never stopped a walk early"
