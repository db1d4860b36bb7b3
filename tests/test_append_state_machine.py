"""Generated append / restart / query sequences over a disk-backed index.

ROADMAP item 4b, restricted to the append path: hypothesis interleaves
appends, restarts from the files alone and queries, and after every step
the index must hold exactly what was put into it — in its record count,
in the store's registry and counters, and in the number of files on disk
(one segment for the build, one per append: DESIGN.md D6, D18).  Every query is
held to the containment oracle of ``test_containment_oracle``: its top-k
is exact brute force over exactly the records its walk read.

A restart may also come back under bit-flip chaos: a
:class:`~repro.resilience.FaultPlan` flips one bit of a read attempt with
probability ``FLIP_RATE``, and a zero-backoff :class:`RetryPolicy` of
``FLIP_ATTEMPTS`` attempts retries it.  Every flip fails its open (the
checksums cover every byte after the header, and the header's fields are
bound by structural checks: DESIGN.md D12), so a read fails for good only
when all its attempts draw a flip — probability ``FLIP_RATE **
FLIP_ATTEMPTS`` < 1e-9 per logical read.  The rate is high so that the
few reads after such a restart still draw many flips, header bytes
included.  After every step no read has failed, every retry answers a
counted corruption, and the answers still meet the containment oracle.

Budget: about 4 s of tier-1 at the settings below (a 600-record build per
example, at most twelve steps each).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from test_containment_oracle import LENGTH, VARIANTS, ReadLog, _assert_contained

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.resilience import FaultPlan, RetryPolicy
from repro.series import SeriesDataset
from repro.storage import SimulatedDFS

BASE = random_walk_dataset(600, LENGTH, seed=17)
CFG = ClimberConfig(word_length=8, n_pivots=24, prefix_length=4,
                    capacity=60, sample_fraction=0.3,
                    n_input_partitions=4, seed=6)
FLIP_RATE, FLIP_ATTEMPTS = 0.5, 30
assert FLIP_RATE ** FLIP_ATTEMPTS < 1e-9


class AppendMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.store = Path(self.tmp.name)
        dfs = SimulatedDFS(backing_dir=self.store)
        self.index = ClimberIndex.build(BASE, CFG, dfs=dfs)
        self.global_index = self.index.save_global_index()
        self.attached = 0   # partitions the current DFS found, not wrote
        self.appends = 0
        # Everything put into the index so far, as the oracle's raw data.
        self.data = BASE

    def teardown(self) -> None:
        self.index.dfs.engine.close()
        self.tmp.cleanup()

    @rule(rows=st.integers(1, 60), seed=st.integers(0, 2**16))
    def append(self, rows, seed):
        values = random_walk_dataset(rows, LENGTH, seed=seed).values
        first = int(self.data.ids.max()) + 1
        batch = SeriesDataset(values, ids=np.arange(first, first + rows))
        summary = self.index.append(batch)
        assert summary["records_appended"] == rows
        self.appends += 1
        self.data = SeriesDataset(
            np.vstack([self.data.values, batch.values]),
            ids=np.concatenate([self.data.ids, batch.ids]),
        )

    def _restart(self, **dfs_kwargs):
        """A new process: nothing but the files and the global index."""
        self.index.dfs.engine.close()
        dfs = SimulatedDFS(backing_dir=self.store, **dfs_kwargs)
        self.attached = dfs.attach()
        self.index = ClimberIndex.reopen(self.global_index, dfs, CFG)

    @rule()
    def restart(self):
        self._restart()

    @rule(seed=st.integers(0, 2**32 - 1))
    def restart_under_bit_flips(self, seed):
        self._restart(
            fault_plan=FaultPlan(seed=seed, bit_flip_rate=FLIP_RATE),
            retry_policy=RetryPolicy(max_attempts=FLIP_ATTEMPTS,
                                     backoff_base_s=0.0),
        )

    @rule(k=st.sampled_from([1, 10]), variant=st.sampled_from(VARIANTS),
          row=st.integers(0, 2**16), seed=st.integers(0, 2**16))
    def knn(self, k, variant, row, seed):
        noise = np.random.default_rng(seed).standard_normal(LENGTH)
        query = self.data.values[row % self.data.count] + 0.3 * noise
        with pytest.MonkeyPatch.context() as monkeypatch:
            log = ReadLog(self.index, monkeypatch)
            answer = self.index.knn(query, k, variant=variant)
        assert len(log.opens) == len(answer.stats.partitions_loaded)
        _assert_contained(self.data, query, k, log.take(len(log.opens)),
                          answer.ids, answer.distances, answer.stats)

    @invariant()
    def nothing_lost_nothing_extra(self):
        dfs = self.index.dfs
        assert self.index.n_records == self.data.count
        assert len(dfs) == self.attached + dfs.counters.partitions_written
        assert sum(dfs.record_count(pid) for pid in dfs.list_partitions()) \
            == self.data.count
        assert len(list(self.store.iterdir())) == 1 + self.appends

    @invariant()
    def every_flip_caught_and_recovered(self):
        c = self.index.dfs.counters
        assert c.read_failures == 0
        assert c.retries == c.corruption_detected


TestAppendMachine = AppendMachine.TestCase
TestAppendMachine.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
