"""Progressive kNN: parity oracle, early stopping, knobs.

The contracts under test (see :mod:`repro.core.progressive`):

* **Parity oracle** — a progressive run with stopping disabled is
  bit-identical to :meth:`~repro.core.ClimberIndex.knn` in its final
  update: same ids, same distance bits, same stats fields (bar
  ``wall_seconds``) and same logical DFS counters, across worker
  counts.
* **Early stopping is safe** — the rule never fires before ``k`` answers
  are in hand, forgone coverage is recorded honestly, and a stopped
  answer is still a complete (ordered, deduplicated) answer set.
* **Knob grammar** — ``"off"`` or a streak (``"streak:s"`` or an
  integer), the call's argument, else the config field (default off),
  with malformed specs — the retired ``"confidence[:c]"`` included —
  rejected eagerly.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex, parse_early_stop
from repro.core.index import QueryStats
from repro.exceptions import ConfigurationError
from repro.resilience import FaultPlan, RetryPolicy
from repro.series import SeriesDataset
from repro.storage import SimulatedDFS

#: QueryStats fields the parity oracle pins exactly (everything except
#: the wall clock).
_PINNED_FIELDS = (
    "variant", "k", "best_od", "group_ids", "path_len", "gn_size",
    "n_selected_nodes", "partitions_loaded", "data_bytes",
    "records_examined", "expanded_within_partition",
    "partitions_failed", "partitions_forgone",
)


def _dataset(n=800, length=32, seed=17):
    rng = np.random.default_rng(seed)
    return SeriesDataset(rng.standard_normal((n, length)))


def _config(**overrides):
    base = dict(
        word_length=8,
        n_pivots=16,
        prefix_length=4,
        capacity=64,
        sample_fraction=0.5,
        seed=5,
        n_input_partitions=4,
    )
    base.update(overrides)
    return ClimberConfig(**base)


def _queries(n=12, length=32, seed=23):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, length))


def _assert_final_matches(final, ref) -> None:
    assert final.done
    assert not final.stopped_early
    assert np.array_equal(final.ids, ref.ids)
    assert np.array_equal(final.distances, ref.distances)
    for field in _PINNED_FIELDS:
        assert getattr(final.stats, field) == getattr(ref.stats, field), field


# ---------------------------------------------------------------------------
# Knob grammar
# ---------------------------------------------------------------------------

class TestKnobGrammar:
    @pytest.mark.parametrize("spec,expected", [
        ("off", None),
        ("OFF", None),
        ("streak:3", 3),
        (" STREAK:2 ", 2),
        (4, 4),
        (np.int64(5), 5),
    ])
    def test_parse_accepts(self, spec, expected):
        got = parse_early_stop(spec)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("spec", [
        "", "maybe", "confidence", "confidence:0.95", "confidence:2",
        "confidence:nope", "streak:0", "streak:x", "streak:", 0, -1,
        np.int64(0), True, np.True_, None, 1.5, [2],
    ])
    def test_parse_rejects(self, spec):
        with pytest.raises(ConfigurationError, match="early_stop"):
            parse_early_stop(spec)

    def test_config_validates_eagerly(self):
        for bad in ("bogus", "confidence", "confidence:0.9"):
            with pytest.raises(ConfigurationError, match="'streak:<s>'"):
                _config(early_stop=bad)
        assert _config(early_stop="streak:2").early_stop == "streak:2"
        assert _config().early_stop == "off"

    def test_stop_rule_requires_k_in_hand(self):
        """A streak rule stops at the first visit whose top-k has stood
        ``s`` visits with ``k`` answers in hand — read off the drained
        trajectory of a twin index — and never at one short of ``k``.
        Lost partitions (skipped) are stable visits that add nothing, so
        some visits are stable while the answer is still short."""
        stopping, draining = (
            ClimberIndex.build(
                _dataset(), _config(on_partition_failure="skip"),
                dfs=_lossy_dfs(FaultPlan(seed=1234, loss_rate=0.3)),
            )
            for _ in range(2)
        )
        short_and_stable = 0
        for k in (10, 150):
            for q in _queries(8, seed=41):
                got = list(stopping.knn_progressive(
                    q, k, variant="od-smallest", early_stop=1
                ))
                full = list(draining.knn_progressive(
                    q, k, variant="od-smallest", early_stop="off"
                ))[:-1]
                fires = [u.stable_steps >= 1 and u.ids.shape[0] >= k
                         for u in full]
                short_and_stable += sum(
                    u.stable_steps >= 1 and u.ids.shape[0] < k for u in full
                )
                n = fires.index(True) + 1 if True in fires else len(full)
                assert len(got) == n + 1
                for a, b in zip(got, full[:n]):
                    assert np.array_equal(a.ids, b.ids)
                assert got[-1].stopped_early == (n < len(full))
        assert short_and_stable, "no visit was stable yet short of k"


# ---------------------------------------------------------------------------
# Parity oracle
# ---------------------------------------------------------------------------

class TestParityOracle:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_progressive_off_matches_knn(self, n_workers):
        dataset = _dataset()
        queries = _queries()
        cfg = _config(n_workers=n_workers)
        reference = ClimberIndex.build(dataset, cfg)
        progressive = ClimberIndex.build(dataset, cfg)
        for variant in ("knn", "adaptive", "od-smallest"):
            for q in queries:
                ref = reference.knn(q, 10, variant=variant)
                final = list(progressive.knn_progressive(
                    q, 10, variant=variant, early_stop="off"
                ))[-1]
                _assert_final_matches(final, ref)
        ref_c = dataclasses.asdict(reference.dfs.counters)
        prog_c = dataclasses.asdict(progressive.dfs.counters)
        for key in ("partitions_read", "bytes_read", "partitions_written",
                    "bytes_written"):
            assert ref_c[key] == prog_c[key], key

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_batch_progressive_off_matches_knn_batch(self, n_workers):
        dataset = _dataset()
        queries = _queries(16)
        cfg = _config(n_workers=n_workers)
        reference = ClimberIndex.build(dataset, cfg)
        progressive = ClimberIndex.build(dataset, cfg)
        refs = reference.knn_batch(queries, 10)
        finals = progressive.knn_batch_progressive(
            queries, 10, early_stop="off"
        )
        assert len(refs) == len(finals)
        for ref, final in zip(refs, finals):
            _assert_final_matches(final, ref)
        assert (reference.dfs.counters.partitions_read
                == progressive.dfs.counters.partitions_read)
        assert (reference.dfs.counters.bytes_read
                == progressive.dfs.counters.bytes_read)

    @pytest.mark.parametrize("batch_size", [1, 2, 7])
    def test_batch_composition_is_invisible(self, batch_size):
        """However a request stream is cut into batches — alone, beside a
        duplicate, beside a distinct series with the same signature — both
        batch pipelines answer each row as the caller's own ``knn`` would,
        and leave the storage counters and the tie-break RNG where the
        per-row sweep leaves them."""
        base = _queries(6)
        twin = base[0] + 1e-9  # distinct series, same z-normalised shape
        stream = np.stack([
            base[0], base[1], base[0], twin, base[2], base[1], base[3],
            twin, base[4], base[4], base[0], base[5], base[2], base[3],
        ])
        dataset = _dataset()
        solo, batch, prog = (
            ClimberIndex.build(dataset, _config()) for _ in range(3)
        )
        assert not np.array_equal(twin, base[0])
        assert np.array_equal(solo.query_signature(twin),
                              solo.query_signature(base[0]))
        refs = [solo.knn(q, 10) for q in stream]
        chunks = [stream[i:i + batch_size]
                  for i in range(0, len(stream), batch_size)]
        batched = [r for c in chunks for r in batch.knn_batch(c, 10)]
        finals = [r for c in chunks for r in prog.knn_batch_progressive(
            c, 10, early_stop="off"
        )]
        for ref, res, final in zip(refs, batched, finals):
            _assert_final_matches(final, ref)
            assert res.ids.tobytes() == ref.ids.tobytes()
            assert res.distances.tobytes() == ref.distances.tobytes()
            for field in _PINNED_FIELDS:
                assert getattr(res.stats, field) == getattr(ref.stats, field)
        for other in (batch, prog):
            assert other.dfs.counters == solo.dfs.counters
            assert (other._rng.bit_generator.state
                    == solo._rng.bit_generator.state)

    def test_progressive_consumes_same_rng_stream(self):
        """Interleaving knn and progressive calls on one index stays on
        the serial RNG stream: answers equal a knn-only twin's."""
        dataset = _dataset()
        queries = _queries(8)
        reference = ClimberIndex.build(dataset, _config())
        mixed = ClimberIndex.build(dataset, _config())
        refs = [reference.knn(q, 5) for q in queries]
        outs = []
        for i, q in enumerate(queries):
            if i % 2:
                outs.append(mixed.knn(q, 5))
            else:
                outs.append(list(mixed.knn_progressive(
                    q, 5, early_stop="off"
                ))[-1])
        for ref, out in zip(refs, outs):
            assert np.array_equal(ref.ids, out.ids)
            assert np.array_equal(ref.distances, out.distances)


# ---------------------------------------------------------------------------
# Update stream semantics
# ---------------------------------------------------------------------------

class TestUpdateStream:
    @pytest.fixture(scope="class")
    def index(self):
        return ClimberIndex.build(_dataset(), _config())

    def test_one_update_per_partition_plus_final(self, index):
        updates = list(index.knn_progressive(
            _queries(1)[0], 10, variant="od-smallest", early_stop="off"
        ))
        final = updates[-1]
        steps = updates[:-1]
        assert final.done and all(not u.done for u in steps)
        assert len(steps) == final.partitions_planned
        assert [u.partitions_visited for u in steps] == list(
            range(1, len(steps) + 1)
        )
        assert final.partitions_visited == final.partitions_planned
        assert final.visited_fraction == 1.0
        assert final.partitions_forgone == ()

    def test_kth_distance_monotone_and_stability_bounded(self, index):
        updates = list(index.knn_progressive(
            _queries(1)[0], 10, variant="od-smallest", early_stop="off"
        ))
        steps = [u for u in updates if not u.done]
        kths = [u.kth_distance for u in steps]
        assert all(b <= a for a, b in zip(kths, kths[1:]))
        for u in steps:
            assert 0.0 <= u.stability < 1.0
            assert u.stable_steps <= u.partitions_visited
            assert u.improvement >= 0.0

    def test_intermediate_answers_are_exact_over_seen(self, index):
        """Every intermediate top-k is sorted by (distance, id) and free
        of duplicate ids."""
        for u in index.knn_progressive(
            _queries(2)[1], 5, variant="od-smallest", early_stop="off"
        ):
            assert len(set(u.ids.tolist())) == u.ids.shape[0]
            order = np.lexsort((u.ids, u.distances))
            assert np.array_equal(order, np.arange(u.ids.shape[0]))

    def test_generator_is_lazy_after_eager_routing(self, index):
        """Abandoning the walk early reads fewer partitions than full
        coverage."""
        before = index.dfs.counters.partitions_read
        walk = index.knn_progressive(
            _queries(3)[2], 10, variant="od-smallest", early_stop="off"
        )
        first = next(walk)
        assert first.partitions_visited == 1
        walk.close()
        read = index.dfs.counters.partitions_read - before
        assert read < first.partitions_planned or first.partitions_planned <= 1


# ---------------------------------------------------------------------------
# Early stopping
# ---------------------------------------------------------------------------

class TestEarlyStopping:
    @pytest.fixture(scope="class")
    def index(self):
        return ClimberIndex.build(_dataset(), _config())

    def test_streak_rule_stops_and_records_forgone(self, index):
        stopped = None
        for q in _queries(16, seed=41):
            final = list(index.knn_progressive(
                q, 10, variant="od-smallest", early_stop="streak:1"
            ))[-1]
            assert final.done
            if final.stopped_early:
                stopped = final
                break
        assert stopped is not None, "streak:1 never fired on any query"
        assert stopped.partitions_visited < stopped.partitions_planned
        assert len(stopped.partitions_forgone) == (
            stopped.partitions_planned - stopped.partitions_visited
        )
        assert stopped.stats.partitions_forgone == stopped.partitions_forgone
        # Forgone coverage is honest: visit_coverage drops, but coverage
        # (failures only) stays complete.
        assert stopped.stats.visit_coverage < 1.0
        assert stopped.stats.coverage == 1.0
        assert stopped.ids.shape[0] == 10

    def test_stopped_answer_is_prefix_consistent(self, index):
        """A stopped answer equals the full-coverage answer restricted to
        the partitions actually visited."""
        q = _queries(16, seed=41)[0]
        final = list(index.knn_progressive(
            q, 10, variant="od-smallest", early_stop="streak:1"
        ))[-1]
        full = list(index.knn_progressive(
            q, 10, variant="od-smallest", early_stop="off"
        ))[-1]
        if not final.stopped_early:
            assert np.array_equal(final.ids, full.ids)
        else:
            # With fewer candidates seen, distances can only be >= at
            # each rank.
            n = min(final.ids.shape[0], full.ids.shape[0])
            assert np.all(final.distances[:n] >= full.distances[:n] - 1e-12)

    def test_never_stops_before_k_in_hand(self):
        small = SeriesDataset(
            np.random.default_rng(3).standard_normal((12, 32))
        )
        index = ClimberIndex.build(small, _config(
            n_pivots=8, prefix_length=3, capacity=8, sample_fraction=1.0,
            n_input_partitions=1,
        ))
        final = list(index.knn_progressive(
            small.values[0], 50, early_stop="streak:1"
        ))[-1]
        assert not final.stopped_early
        assert final.visited_fraction == 1.0
        assert final.ids.shape[0] == min(12, final.stats.records_examined)
        assert final.stats.coverage == 1.0

    @pytest.fixture(scope="class")
    def armed(self, index):
        """The same store behind a config whose field arms the rule."""
        return ClimberIndex.reopen(index.save_global_index(), index.dfs,
                                   _config(early_stop="streak:1"))

    def test_config_field_arms_stopping(self, index, armed):
        finals = [
            list(armed.knn_progressive(q, 10, variant="od-smallest"))[-1]
            for q in _queries(16, seed=41)
        ]
        assert any(f.stopped_early for f in finals)
        finals = [
            list(index.knn_progressive(q, 10, variant="od-smallest"))[-1]
            for q in _queries(16, seed=41)
        ]
        assert not any(f.stopped_early for f in finals)

    def test_explicit_off_beats_config(self, armed):
        for q in _queries(6, seed=41):
            final = list(armed.knn_progressive(
                q, 10, variant="od-smallest", early_stop="off"
            ))[-1]
            assert not final.stopped_early


# ---------------------------------------------------------------------------
# Degraded-mode composition
# ---------------------------------------------------------------------------

def _lossy_dfs(plan):
    return SimulatedDFS(
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
    )


class TestDegradedProgressive:
    def test_skip_mode_parity_with_knn_under_loss(self):
        dataset = _dataset()
        queries = _queries(10)
        plan = FaultPlan(seed=1234, loss_rate=0.3)
        cfg = _config(on_partition_failure="skip")
        reference = ClimberIndex.build(dataset, cfg, dfs=_lossy_dfs(plan))
        progressive = ClimberIndex.build(dataset, cfg, dfs=_lossy_dfs(plan))
        degraded = 0
        for q in queries:
            ref = reference.knn(q, 10, variant="od-smallest")
            final = list(progressive.knn_progressive(
                q, 10, variant="od-smallest", early_stop="off"
            ))[-1]
            _assert_final_matches(final, ref)
            degraded += bool(final.stats.degraded)
        assert degraded > 0, "loss_rate=0.3 produced no degraded queries"

    def test_failed_partition_counts_as_stable_step(self):
        dataset = _dataset()
        plan = FaultPlan(seed=1234, loss_rate=0.3)
        index = ClimberIndex.build(
            dataset, _config(on_partition_failure="skip"),
            dfs=_lossy_dfs(plan),
        )
        for q in _queries(10):
            updates = list(index.knn_progressive(
                q, 10, variant="od-smallest", early_stop="off"
            ))
            final = updates[-1]
            if not final.stats.partitions_failed:
                continue
            # Steps that failed leave the answer unchanged, so every
            # update's streak accounting stays consistent.
            for prev, cur in zip(updates, updates[1:]):
                if cur.done:
                    break
                assert cur.stable_steps in (0, prev.stable_steps + 1)
            return
        pytest.fail("no query hit a lost partition")


# ---------------------------------------------------------------------------
# Explain + telemetry integration
# ---------------------------------------------------------------------------

class TestProgressiveObservability:
    @pytest.fixture(scope="class")
    def index(self):
        return ClimberIndex.build(_dataset(), _config(telemetry=True))

    def test_explain_progressive_entry(self, index):
        entry = index.explain_query(
            _queries(1)[0], 5, variant="od-smallest", early_stop="streak:2"
        )
        assert entry["mode"] == "knn_progressive"
        prog = entry["progressive"]
        assert prog["partitions_planned"] >= prog["partitions_visited"] >= 1
        assert len(prog["steps"]) == prog["partitions_visited"]
        assert prog["stopped_early"] == (
            prog["partitions_visited"] < prog["partitions_planned"]
        )
        assert len(prog["partitions_forgone"]) == (
            prog["partitions_planned"] - prog["partitions_visited"]
        )
        json.dumps(entry)

    def test_explain_batch_progressive_totals(self, index):
        out = index.explain_query(_queries(4), 5, progressive=True)
        assert out["mode"] == "knn_batch_progressive"
        assert out["batch_size"] == 4
        assert out["shared_stages"] == []
        for entry in out["queries"]:
            assert "progressive" in entry
        totals = out["totals"]
        assert totals["coverage"] == 1.0
        assert totals["partitions_probed"] == sum(
            e["partitions_probed"] for e in out["queries"]
        )
        json.dumps(out)

    def test_progressive_counters_recorded(self, index):
        index.reset_stats()
        finals = [
            list(index.knn_progressive(
                q, 10, variant="od-smallest", early_stop="streak:1"
            ))[-1]
            for q in _queries(16, seed=41)
        ]
        counters = index.stats()["metrics"]["counters"]
        assert counters["query.progressive.count"] == 16
        assert counters["query.progressive.partitions_visited"] == sum(
            f.partitions_visited for f in finals
        )
        expected_stops = sum(f.stopped_early for f in finals)
        assert expected_stops > 0
        assert counters["query.progressive.early_stops"] == expected_stops
        assert counters["query.progressive.partitions_forgone"] == sum(
            len(f.partitions_forgone) for f in finals
        )
        # The shared query.* surface records progressive queries too.
        assert counters["query.count"] == 16


# ---------------------------------------------------------------------------
# Validation edges
# ---------------------------------------------------------------------------

class TestValidation:
    @pytest.fixture(scope="class")
    def index(self):
        return ClimberIndex.build(_dataset(), _config())

    def test_bad_args_raise_eagerly(self, index):
        q = _queries(1)[0]
        with pytest.raises(ConfigurationError):
            index.knn_progressive(q, 0)
        with pytest.raises(ConfigurationError):
            index.knn_progressive(q, 5, variant="nope")
        with pytest.raises(ConfigurationError):
            index.knn_progressive(q, 5, early_stop="bogus")
        with pytest.raises(ConfigurationError):
            index.knn_progressive(q, 5, early_stop="confidence:0.9")
        with pytest.raises(TypeError):
            index.knn_progressive(q, 5, early_stop="confidence",
                                  confidence=0.9)

    def test_empty_batch(self, index):
        assert index.knn_batch_progressive(
            np.empty((0, 32)), 5, early_stop="off"
        ) == []

    def test_query_stats_zero_wanted_coverage(self):
        """Satellite regression: empty wanted set -> coverage 1.0, not a
        ZeroDivisionError."""
        stats = QueryStats(
            variant="knn", k=3, best_od=0, group_ids=(), path_len=0,
            gn_size=0.0, n_selected_nodes=0, partitions_loaded=(),
            data_bytes=0, records_examined=0,
            expanded_within_partition=False, wall_seconds=0.0,
        )
        assert stats.coverage == 1.0
        assert stats.visit_coverage == 1.0
        assert not stats.degraded

    def test_visit_coverage_counts_forgone(self):
        stats = QueryStats(
            variant="knn", k=3, best_od=0, group_ids=(), path_len=0,
            gn_size=0.0, n_selected_nodes=1,
            partitions_loaded=("p0", "p1"), data_bytes=1,
            records_examined=1, expanded_within_partition=False,
            wall_seconds=0.0,
            partitions_forgone=("p2", "p3"),
        )
        assert stats.coverage == 1.0
        assert stats.visit_coverage == 0.5

    def test_explain_totals_zero_wanted_guard(self):
        """The aggregate coverage guards its denominator."""
        entries = [{
            "partitions_probed": 0, "partitions": [], "bytes_read": 0,
            "records_examined": 0, "cache": {"hits": 0, "misses": 0},
            "wall_seconds": 0.0, "degraded": False, "partitions_failed": [],
        }]
        totals = ClimberIndex._explain_totals(entries)
        assert totals["coverage"] == 1.0
