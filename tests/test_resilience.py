"""Tests for the resilience layer: fault plans, injector, retry policy.

The layer's defining property is determinism: every fault and jitter
value is a pure function of ``(seed, blob name, attempt, salt)``, so the
same plan produces the same schedule in every process and for every
worker count.  These tests pin that down at the unit level plus the DFS
integration (retries, counters, degraded reads); end-to-end chaos runs
live in ``tests/test_chaos.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import all_records, make_layout

from repro.exceptions import (
    ConfigurationError,
    PartitionLostError,
    ReadTimeoutError,
    TransientReadError,
)
from repro.resilience import (
    FaultDecision,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.resilience.faults import stable_uniform
from repro.storage import SimulatedDFS
from repro.storage.engine import MemoryBackend


class TestStableUniform:
    def test_deterministic_and_uniformish(self):
        a = stable_uniform(7, "blob", 0, "transient")
        b = stable_uniform(7, "blob", 0, "transient")
        assert a == b
        assert 0.0 <= a < 1.0
        draws = [
            stable_uniform(7, f"blob{i}", 0, "transient") for i in range(200)
        ]
        assert 0.3 < sum(draws) / len(draws) < 0.7

    def test_sensitive_to_every_argument(self):
        base = stable_uniform(7, "blob", 0, "transient")
        assert stable_uniform(8, "blob", 0, "transient") != base
        assert stable_uniform(7, "blob2", 0, "transient") != base
        assert stable_uniform(7, "blob", 1, "transient") != base
        assert stable_uniform(7, "blob", 0, "flip") != base


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(loss_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(straggler_delay_s=-1)

    def test_active_flag(self):
        assert not FaultPlan(seed=3).active
        assert FaultPlan(seed=3, transient_rate=0.1).active
        assert FaultPlan(seed=3, loss_rate=0.1).active

    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=11, transient_rate=0.3, bit_flip_rate=0.3,
                         straggler_rate=0.3)
        for attempt in range(5):
            d1 = plan.decide("blob.part", attempt, 4096)
            d2 = plan.decide("blob.part", attempt, 4096)
            assert d1 == d2

    def test_loss_is_per_blob_not_per_attempt(self):
        plan = FaultPlan(seed=5, loss_rate=0.5)
        names = [f"b{i}.part" for i in range(64)]
        lost = [n for n in names if plan.lost(n)]
        assert 0 < len(lost) < len(names)
        for name in lost:
            for attempt in range(4):
                assert plan.decide(name, attempt, 100).lost

    def test_zero_rate_plan_is_all_clean(self):
        plan = FaultPlan(seed=123)
        for i in range(32):
            assert plan.decide(f"b{i}.part", 0, 1000) == FaultDecision.CLEAN


class TestFaultInjector:
    def _store(self, plan, payload=b"x" * 256, name="b.part"):
        backend = MemoryBackend()
        backend.write_many([(name, payload)])
        return FaultInjector(backend, plan), name

    def test_reads_outside_attempts_are_clean(self):
        injector, name = self._store(
            FaultPlan(seed=0, transient_rate=1.0, bit_flip_rate=1.0)
        )
        # No begin_attempt: metadata-style reads pass through untouched.
        assert bytes(injector.read_range(name, 0, 8)) == b"x" * 8

    def test_transient_raises_only_on_faulted_attempts(self):
        plan = FaultPlan(seed=2, transient_rate=0.5)
        injector, name = self._store(plan)
        outcomes = []
        for attempt in range(8):
            injector.begin_attempt(name)
            try:
                injector.read_range(name, 0, 8)
                outcomes.append(False)
            except TransientReadError:
                outcomes.append(True)
        expected = [
            plan.decide(name, attempt, 256).transient for attempt in range(8)
        ]
        assert outcomes == expected
        assert any(outcomes) and not all(outcomes)

    def test_lost_blob_raises_forever(self):
        plan = FaultPlan(seed=0, loss_rate=1.0)
        injector, name = self._store(plan)
        for _ in range(3):
            injector.begin_attempt(name)
            with pytest.raises(PartitionLostError):
                injector.read_range(name, 0, 8)

    def test_bit_flip_served_without_touching_store(self):
        plan = FaultPlan(seed=9, bit_flip_rate=1.0)
        payload = bytes(range(256))
        injector, name = self._store(plan, payload=payload)
        injector.begin_attempt(name)
        decision = plan.decide(name, 0, len(payload))
        assert decision.flip_byte >= 0
        served = bytes(injector.read_range(name, 0, len(payload)))
        assert served != payload
        diff = [i for i in range(256) if served[i] != payload[i]]
        assert diff == [decision.flip_byte]
        assert served[decision.flip_byte] ^ payload[decision.flip_byte] \
            == 1 << decision.flip_bit
        # The stored bytes were never modified.
        assert bytes(injector.inner.read_range(name, 0, len(payload))) \
            == payload

    def test_flip_outside_requested_range_leaves_read_clean(self):
        plan = FaultPlan(seed=9, bit_flip_rate=1.0)
        payload = bytes(range(256))
        injector, name = self._store(plan, payload=payload)
        injector.begin_attempt(name)
        flip = plan.decide(name, 0, len(payload)).flip_byte
        lo, hi = (0, flip) if flip > 0 else (flip + 1, len(payload))
        if hi > lo:
            assert bytes(injector.read_range(name, lo, hi - lo)) \
                == payload[lo:hi]

    def test_attempt_counter_is_per_name(self):
        injector, name = self._store(FaultPlan(seed=0))
        injector.inner.write_many([("other.part", b"y" * 16)])
        assert injector.attempts(name) == 0
        injector.begin_attempt(name)
        injector.begin_attempt(name)
        injector.begin_attempt("other.part")
        assert injector.attempts(name) == 2
        assert injector.attempts("other.part") == 1

    def test_writes_pass_through(self):
        injector, _ = self._store(FaultPlan(seed=0, transient_rate=1.0))
        injector.write_many([("new.part", b"abc")])
        assert injector.exists("new.part")
        assert injector.size("new.part") == 3
        assert "new.part" in injector.list_names()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_s=0)
        assert RetryPolicy.none().max_attempts == 1

    def test_backoff_grows_and_is_deterministic(self):
        policy = RetryPolicy(backoff_base_s=0.001, backoff_multiplier=2.0,
                             jitter=0.5, seed=4)
        d1 = policy.backoff_delay("b.part", 1)
        d2 = policy.backoff_delay("b.part", 2)
        assert d1 == policy.backoff_delay("b.part", 1)
        assert 0.001 <= d1 <= 0.0015
        assert 0.002 <= d2 <= 0.003
        with pytest.raises(ConfigurationError):
            policy.backoff_delay("b.part", 0)


class TestDfsRetryIntegration:
    def _dfs(self, plan, retry_policy=None, **kwargs):
        dfs = SimulatedDFS(fault_plan=plan, retry_policy=retry_policy,
                           **kwargs)
        dfs.write_partition_arrays("p0", *make_layout())
        return dfs

    def _faulted_attempt_plan(self, n_faults: int) -> FaultPlan:
        """A plan whose first ``n_faults`` attempts on p0 are transient.

        Scans seeds until the stable hash yields the wanted prefix —
        deterministic thereafter (the schedule is a pure function of the
        seed).
        """
        name = "p0.part"
        for seed in range(10_000):
            plan = FaultPlan(seed=seed, transient_rate=0.5)
            flags = [plan.decide(name, a, 1).transient for a in range(n_faults + 1)]
            if all(flags[:n_faults]) and not flags[n_faults]:
                return plan
        raise AssertionError("no seed found")  # pragma: no cover

    def test_transient_fault_recovers_and_counts_retry(self):
        plan = self._faulted_attempt_plan(1)
        dfs = self._dfs(plan, RetryPolicy(max_attempts=3,
                                          backoff_base_s=0.0))
        part = dfs.read_partition("p0")
        assert part.record_count == 15
        c = dfs.counters
        assert c.retries == 1
        assert c.read_failures == 0
        assert c.partitions_read == 1
        assert c.bytes_read > 0

    def test_retry_exhaustion_fails_and_charges_nothing_logical(self):
        plan = self._faulted_attempt_plan(3)
        dfs = self._dfs(plan, RetryPolicy(max_attempts=2,
                                          backoff_base_s=0.0))
        with pytest.raises(TransientReadError):
            dfs.read_partition("p0")
        c = dfs.counters
        assert c.read_failures == 1
        assert c.retries == 1
        assert c.partitions_read == 0
        assert c.bytes_read == 0
        # The schedule keeps advancing: attempt 3 is clean, so the next
        # logical read succeeds.
        part = dfs.read_partition("p0")
        assert part.record_count == 15
        assert dfs.counters.partitions_read == 1

    def test_lost_partition_never_retried(self):
        plan = FaultPlan(seed=0, loss_rate=1.0)
        dfs = self._dfs(plan, RetryPolicy(max_attempts=5,
                                          backoff_base_s=0.0))
        with pytest.raises(PartitionLostError):
            dfs.read_partition("p0")
        c = dfs.counters
        assert c.retries == 0
        assert c.read_failures == 1
        assert dfs.fault_injector.attempts("p0.part") == 1

    def test_straggler_blows_deadline_then_recovers(self):
        name = "p0.part"
        for seed in range(10_000):
            plan = FaultPlan(seed=seed, straggler_rate=0.5,
                             straggler_delay_s=0.05)
            d = [plan.decide(name, a, 1).straggle_s > 0 for a in range(2)]
            if d[0] and not d[1]:
                break
        else:  # pragma: no cover
            raise AssertionError("no seed found")
        dfs = self._dfs(plan, RetryPolicy(max_attempts=3, backoff_base_s=0.0,
                                          deadline_s=0.01))
        part = dfs.read_partition("p0")
        assert part.record_count == 15
        c = dfs.counters
        assert c.retries == 1
        assert c.read_failures == 0

    def test_deadline_exhaustion_raises_timeout(self):
        plan = FaultPlan(seed=0, straggler_rate=1.0, straggler_delay_s=0.05)
        dfs = self._dfs(plan, RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                                          deadline_s=0.01))
        with pytest.raises(ReadTimeoutError):
            dfs.read_partition("p0")
        assert dfs.counters.read_failures == 1

    def test_bit_flip_detected_retried_and_recovered(self):
        # Every open checks every section inside the retry loop, so
        # a per-attempt flip in a checksummed section is caught and the
        # clean next attempt succeeds.  The seed scan targets the values
        # section.
        from repro.storage.engine import (
            decode_v2_header,
            encode_partition_v2_arrays,
        )

        name = "p0.part"
        ref = make_layout()
        payload = encode_partition_v2_arrays("p0", *ref)
        h = decode_v2_header(payload)
        for seed in range(10_000):
            plan = FaultPlan(seed=seed, bit_flip_rate=0.5)
            d = [plan.decide(name, a, len(payload)) for a in range(2)]
            values_end = h.values_offset + h.n_records * h.row_nbytes
            if (h.values_offset <= d[0].flip_byte < values_end
                    and d[1].flip_byte < 0):
                break
        else:  # pragma: no cover
            raise AssertionError("no seed found")
        dfs = SimulatedDFS(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=3,
                                                    backoff_base_s=0.0))
        dfs.write_partition_arrays("p0", *ref)
        ids, values = all_records(dfs.read_partition("p0"))
        np.testing.assert_array_equal(ids, ref.ids)
        np.testing.assert_array_equal(values, ref.values)
        c = dfs.counters
        assert c.retries >= 1
        assert c.corruption_detected >= 1
        assert c.read_failures == 0

    def test_zero_fault_plan_is_byte_transparent(self):
        ref = SimulatedDFS()
        ref.write_partition_arrays("p0", *make_layout())
        wrapped = self._dfs(FaultPlan(seed=99))
        assert wrapped.fault_injector is not None
        a = wrapped.read_partition("p0")
        b = ref.read_partition("p0")
        for got, want in zip(all_records(a), all_records(b)):
            np.testing.assert_array_equal(got, want)
        ca, cb = wrapped.counters, ref.counters
        assert ca == cb
        assert ca.retries == 0 and ca.read_failures == 0
