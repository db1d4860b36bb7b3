"""End-to-end chaos tests: corruption, degradation, and the parity oracle.

Three layers of guarantees pinned down here:

* **Integrity** — per-section word-sum checksums (partition header v5,
  the only version read) catch a bit flip in every section at open,
  raising :class:`~repro.exceptions.PartitionCorruptError` inside the
  retry loop and bumping ``dfs.corruption_detected``; a read that fails
  for good is one ``dfs.read_failures``.
* **Degradation** — ``on_partition_failure="skip"`` answers queries from
  whatever partitions survive, surfacing ``degraded``/``coverage``/
  ``partitions_failed`` through stats, ``explain_query`` and telemetry.
* **The zero-fault parity oracle** — a zero-rate
  :class:`~repro.resilience.FaultPlan` (the full injector + retry +
  checksum machinery armed, no fault ever fired) is bit-transparent: answers and
  logical counters identical to a plain build, across worker counts.
  Plus: same chaos seed, same results — twice.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from conftest import make_layout, rot_blob, stored_blob
from oracles import word_sum_reference

from repro.core.config import ClimberConfig
from repro.core.index import ClimberIndex, QueryStats
from repro.exceptions import (
    ConfigurationError,
    PartitionCorruptError,
    PartitionLostError,
    StorageError,
)
from repro.obs import Telemetry
from repro.resilience import FaultPlan, RetryPolicy
from repro.series import SeriesDataset
from repro.storage import SimulatedDFS
from repro.series.distance import sq_norms
from repro.storage.engine import decode_v2_header, encode_partition_v2_arrays


def _dataset(n=2000, length=64, seed=17):
    rng = np.random.default_rng(seed)
    return SeriesDataset(rng.standard_normal((n, length)))


def _config(**overrides):
    base = dict(
        word_length=8,
        n_pivots=24,
        prefix_length=4,
        capacity=64,
        sample_fraction=0.5,
        seed=5,
        n_input_partitions=8,
    )
    base.update(overrides)
    return ClimberConfig(**base)


def _queries(n=10, length=64, seed=23):
    return np.random.default_rng(seed).standard_normal((n, length))


def _answers(index, queries, k=5, **kwargs):
    return [
        (tuple(int(i) for i in r.ids), tuple(float(d) for d in r.distances))
        for r in index.knn_batch(queries, k, **kwargs)
    ]


# -- checksum integrity -----------------------------------------------------------


class TestChecksumIntegrity:
    """One rule: every partition carries five checksums and every open
    checks all five over the bytes it read, inside the DFS retry loop."""

    RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.0)

    def _dfs_with_flipped_byte(self, section):
        """A DFS whose stored p0 has one bit flipped inside ``section``."""
        dfs = SimulatedDFS(retry_policy=self.RETRY)
        dfs.write_partition_arrays("p0", *make_layout())
        backend = dfs.engine.backend
        name = "p0.part"
        payload = bytearray(
            backend.read_range(name, 0, backend.size(name))
        )
        h = decode_v2_header(bytes(payload))
        offsets = {
            "meta": h.header_size,
            "directory": h.dir_offset,
            "ids": h.ids_offset,
            "norms": h.norms_offset,
            "values": h.values_offset,
        }
        payload[offsets[section] + 1] ^= 0x04
        rot_blob(backend, name, payload)
        return dfs

    @pytest.mark.parametrize(
        "section", ["meta", "directory", "ids", "norms", "values"]
    )
    def test_eager_verify_catches_every_section(self, section):
        # A flip in any section fails the open itself — payload sections
        # included — so the rot is retried, then counted once as failed.
        dfs = self._dfs_with_flipped_byte(section)
        with pytest.raises(PartitionCorruptError, match=section):
            dfs.read_partition("p0")
        c = dfs.counters
        assert c.corruption_detected == self.RETRY.max_attempts
        assert c.retries == self.RETRY.max_attempts - 1
        assert c.read_failures == 1
        assert c.partitions_read == 0

    # The next two are named for the retired ``verify="lazy"`` mode; the
    # guarantees they pinned under it still hold, now at the open.

    @pytest.mark.parametrize("section", ["meta", "directory"])
    def test_lazy_verify_catches_structural_sections_at_open(self, section):
        dfs = self._dfs_with_flipped_byte(section)
        with pytest.raises(PartitionCorruptError, match=section):
            dfs.read_partition("p0")
        assert dfs.counters.corruption_detected >= 1

    @pytest.mark.parametrize("section", ["ids", "norms", "values"])
    def test_lazy_verify_catches_payload_on_first_map(self, section):
        # A payload flip is caught no later than the first cluster map —
        # in fact by the open before it — so no corrupt cluster is served.
        dfs = self._dfs_with_flipped_byte(section)
        with pytest.raises(PartitionCorruptError, match=section):
            dfs.read_partition("p0").read_clusters(["g0/0"])
        assert dfs.counters.corruption_detected >= 1
        assert dfs.counters.partitions_read == 0

    @staticmethod
    def _assert_version_refused(tmp_path, version):
        writer = SimulatedDFS(backing_dir=tmp_path)
        ref = make_layout()
        writer.write_partition_arrays("p0", *ref)
        writer.engine.close()
        segment, offset, size = stored_blob(tmp_path, "p0.part")
        raw = bytearray(segment.read_bytes())
        struct.pack_into("<I", raw, offset + 8, version)  # the version field
        segment.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match=f"version {version}"):
            SimulatedDFS(backing_dir=tmp_path).attach()
        reader = SimulatedDFS(backing_dir=tmp_path)
        reader._register("p0", size, *ref.values.shape)
        with pytest.raises(StorageError, match=f"version {version}"):
            reader.read_partition("p0")
        assert reader.counters.read_failures == 1
        reader.engine.close()

    def test_version_2_blob_is_refused(self, tmp_path):
        # Header version 2 — the same layout without a checksum block —
        # is no longer read: a typed StorageError at open and at attach.
        self._assert_version_refused(tmp_path, 2)

    def test_version_3_blob_is_refused(self, tmp_path):
        # Header version 3 — four CRC32s where version 4 stores four
        # word sums — is refused the same way.
        self._assert_version_refused(tmp_path, 3)

    def test_norms_flip_on_one_attempt_is_retried_and_counted_once(self):
        # A per-attempt flip in the stored norms fails that open inside
        # the retry loop, is counted once, and the clean next attempt
        # serves the norms the writer stored.
        ref = make_layout()
        payload = encode_partition_v2_arrays("p0", *ref)
        h = decode_v2_header(payload)
        name, size = "p0.part", len(payload)
        plan = next(
            plan for plan in (
                FaultPlan(seed=s, bit_flip_rate=0.5) for s in range(10_000)
            )
            if h.norms_offset <= plan.decide(name, 0, size).flip_byte
            < h.values_offset
            and plan.decide(name, 1, size).flip_byte < 0
        )
        dfs = SimulatedDFS(fault_plan=plan, retry_policy=self.RETRY)
        dfs.write_partition_arrays("p0", *ref)
        view = dfs.read_partition("p0")
        ids, values, norms = view.read_clusters_with_norms(view.cluster_keys())
        np.testing.assert_array_equal(ids, ref.ids)
        np.testing.assert_array_equal(norms, sq_norms(ref.values))
        c = dfs.counters
        assert c.retries == c.corruption_detected == 1
        assert c.read_failures == 0

    def test_version_4_blob_is_refused(self, tmp_path):
        # Header version 4 — four word sums and no norms section — is
        # refused the same way: a store written before D14 is not read.
        self._assert_version_refused(tmp_path, 4)

    def test_checksummed_payload_carries_checksum_block(self):
        dfs = SimulatedDFS()
        dfs.write_partition_arrays("p0", *make_layout())
        backend = dfs.engine.backend
        payload = bytes(backend.read_range("p0.part", 0,
                                           backend.size("p0.part")))
        h = decode_v2_header(payload)
        # Each checksum is the word sum of its section's exact bytes.
        ids_end = h.ids_offset + 8 * h.n_records
        norms_end = h.norms_offset + 8 * h.n_records
        sections = (
            payload[h.header_size:h.header_size + h.meta_size],
            payload[h.dir_offset:h.dir_offset + 16 * h.n_clusters],
            payload[h.ids_offset:ids_end],
            payload[h.norms_offset:norms_end],
            payload[h.values_offset:],
        )
        assert h.checksums == tuple(word_sum_reference(s) for s in sections)
        # The checksum block is part of the partition's one size.
        assert dfs.partition_nbytes("p0") == len(payload) == h.total_size

    def test_every_raised_query_is_a_counted_read_failure(self):
        # No retries: each flip a checksum covers fails its query, and each
        # such failure is one dfs.read_failures, never an uncounted raise.
        index = ClimberIndex.build(
            _dataset(), _config(),
            dfs=SimulatedDFS(
                fault_plan=FaultPlan(seed=20240808, bit_flip_rate=0.1),
                retry_policy=RetryPolicy.none(),
            ),
        )
        raised = 0
        for q in _queries(60):
            try:
                index.knn(q, k=5, on_partition_failure="raise")
            except StorageError:
                raised += 1
        c = index.dfs.counters
        assert raised > 0
        assert c.read_failures == raised
        assert c.retries == 0

    def test_truncated_blob_raises_typed_storage_error(self):
        # A blob truncated mid-payload must surface as a typed
        # StorageError (never a bare struct/IndexError) and charge
        # read_failures.
        dfs = SimulatedDFS()
        dfs.write_partition_arrays("p0", *make_layout())
        backend = dfs.engine.backend
        payload = bytes(backend.read_range("p0.part", 0,
                                           backend.size("p0.part")))
        rot_blob(backend, "p0.part", payload[: len(payload) // 2])
        with pytest.raises(StorageError):
            part = dfs.read_partition("p0")
            part.read_clusters(part.cluster_keys())
        assert dfs.counters.read_failures + \
            dfs.counters.corruption_detected >= 1


# -- graceful degradation ---------------------------------------------------------


class TestDegradedQueries:
    @pytest.fixture(scope="class")
    def lossy_setup(self):
        """An index over a store where ~30% of partitions are lost."""
        dataset = _dataset()
        plan = FaultPlan(seed=1234, loss_rate=0.3)
        dfs = SimulatedDFS(fault_plan=plan,
                           retry_policy=RetryPolicy(max_attempts=2,
                                                    backoff_base_s=0.0))
        index = ClimberIndex.build(dataset, _config(), dfs=dfs)
        lost = [
            p for p in index.dfs.list_partitions()
            if plan.lost(index.dfs.engine.blob_name(p))
        ]
        assert lost, "seed must lose at least one partition"
        reference = ClimberIndex.build(dataset, _config())
        return index, reference, lost

    def test_raise_mode_propagates_lost_partition(self, lossy_setup):
        index, _, lost = lossy_setup
        queries = _queries(30)
        with pytest.raises(PartitionLostError):
            for q in queries:
                index.knn(q, k=5, on_partition_failure="raise")

    def test_skip_mode_degrades_and_reports_coverage(self, lossy_setup):
        index, reference, lost = lossy_setup
        queries = _queries(30)
        results = index.knn_batch(queries, k=5, on_partition_failure="skip")
        reference_results = reference.knn_batch(queries, k=5)
        degraded = [r for r in results if r.stats.degraded]
        assert degraded, "some query must touch a lost partition"
        read_failures = index.dfs.counters.read_failures
        assert read_failures >= len(degraded)
        for r, ref in zip(results, reference_results):
            stats = r.stats
            if not stats.degraded:
                assert stats.coverage == 1.0
                assert np.array_equal(r.ids, ref.ids)
                continue
            assert 0.0 <= stats.coverage < 1.0
            assert set(stats.partitions_failed) <= set(lost)
            assert not (set(stats.partitions_failed)
                        & set(stats.partitions_loaded))
            # A degraded answer comes from surviving partitions only: it
            # is a subset of what a scan of those partitions can yield,
            # and never *better* than the complete answer.
            assert len(r.ids) <= len(ref.ids)

    def test_skip_mode_never_raises_across_variants(self, lossy_setup):
        index, _, _ = lossy_setup
        queries = _queries(8)
        for variant in ("knn", "adaptive", "od-smallest"):
            results = index.knn_batch(queries, k=5, variant=variant,
                                      on_partition_failure="skip")
            assert len(results) == queries.shape[0]

    def test_explain_query_surfaces_degradation(self, lossy_setup):
        index, _, _ = lossy_setup
        queries = _queries(30)
        report = index.explain_query(queries, k=5,
                                     on_partition_failure="skip")
        assert report["totals"]["degraded_queries"] >= 1
        assert report["totals"]["partitions_failed"] >= 1
        for entry in report["queries"]:
            assert entry["coverage"] <= 1.0
            assert entry["degraded"] == bool(entry["partitions_failed"])

    def test_config_field_sets_default_mode(self, lossy_setup):
        index, _, _ = lossy_setup
        queries = _queries(30)
        skipping = ClimberIndex.reopen(
            index.save_global_index(), index.dfs,
            _config(on_partition_failure="skip"),
        )
        results = skipping.knn_batch(queries, k=5)
        assert any(r.stats.degraded for r in results)
        # The call's argument wins over the field.
        with pytest.raises(PartitionLostError):
            skipping.knn_batch(queries, k=5, on_partition_failure="raise")

    def test_invalid_mode_rejected(self, lossy_setup):
        index, _, _ = lossy_setup
        with pytest.raises(ConfigurationError):
            index.knn(_queries(1)[0], k=5, on_partition_failure="maybe")
        with pytest.raises(ConfigurationError):
            _config(on_partition_failure="maybe")

    def test_degraded_queries_recorded_in_telemetry(self, lossy_setup):
        index, _, _ = lossy_setup
        queries = _queries(30)
        tel = Telemetry(enabled=True)
        old = index.telemetry
        index.telemetry = tel
        try:
            index.knn_batch(queries, k=5, on_partition_failure="skip")
        finally:
            index.telemetry = old
        snap = tel.registry.snapshot()
        assert snap["counters"]["query.degraded"] >= 1
        assert snap["counters"]["query.partitions_failed"] >= 1


# -- the parity oracle ------------------------------------------------------------


class TestZeroFaultParity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_armed_resilience_is_bit_transparent(self, n_workers):
        dataset = _dataset()
        queries = _queries(12)
        reference = ClimberIndex.build(dataset, _config())
        armed = ClimberIndex.build(
            dataset,
            _config(n_workers=n_workers, on_partition_failure="skip"),
            dfs=SimulatedDFS(
                fault_plan=FaultPlan(seed=999),  # rates 0: armed, silent
            ),
        )
        assert armed.dfs.fault_injector is not None
        assert _answers(reference, queries) == _answers(armed, queries)
        ref_c = dataclasses.asdict(reference.dfs.counters)
        armed_c = dataclasses.asdict(armed.dfs.counters)
        assert ref_c == armed_c
        assert armed_c["retries"] == 0
        assert armed_c["read_failures"] == 0
        assert armed_c["corruption_detected"] == 0
        assert not any(
            r.stats.degraded for r in armed.knn_batch(queries, k=5)
        )

    def test_same_chaos_seed_same_everything(self):
        dataset = _dataset()
        queries = _queries(20)
        plan = FaultPlan(seed=777, transient_rate=0.15, loss_rate=0.1)
        runs = []
        for _ in range(2):
            index = ClimberIndex.build(
                dataset, _config(),
                dfs=SimulatedDFS(
                    fault_plan=plan,
                    retry_policy=RetryPolicy(max_attempts=3,
                                             backoff_base_s=0.0),
                ),
            )
            answers = _answers(index, queries,
                               on_partition_failure="skip")
            failed = [
                tuple(r.stats.partitions_failed)
                for r in index.knn_batch(queries, k=5,
                                         on_partition_failure="skip")
            ]
            runs.append((answers, failed,
                         dataclasses.asdict(index.dfs.counters)))
        assert runs[0] == runs[1]

    def test_transient_faults_are_fully_recovered(self):
        # Transient-only chaos at a modest rate: every read eventually
        # succeeds within the retry budget, so answers are bit-identical
        # to the unfaulted reference and nothing is degraded.
        dataset = _dataset()
        queries = _queries(12)
        reference = ClimberIndex.build(dataset, _config())
        chaotic = ClimberIndex.build(
            dataset, _config(),
            dfs=SimulatedDFS(
                fault_plan=FaultPlan(seed=4242, transient_rate=0.2),
                retry_policy=RetryPolicy(max_attempts=6, backoff_base_s=0.0),
            ),
        )
        assert _answers(reference, queries) == _answers(chaotic, queries)
        c = chaotic.dfs.counters
        assert c.retries >= 1
        assert c.read_failures == 0


# -- telemetry sampling -----------------------------------------------------------


class TestTelemetrySampling:
    def test_record_query_samples_one_in_n(self):
        stats = QueryStats(
            variant="knn", k=3, best_od=0, group_ids=(), path_len=0,
            gn_size=0.0, n_selected_nodes=0, partitions_loaded=(),
            data_bytes=0, records_examined=0,
            expanded_within_partition=False, wall_seconds=0.0,
        )
        tel = Telemetry(enabled=True, sample_every=4)
        folded = []
        for _ in range(8):
            tel.record_query(stats)
            folded.append(tel.registry.histogram("query.wall_s").count)
        assert folded == [1, 1, 1, 1, 2, 2, 2, 2]
        assert tel.registry.counter("query.count").value == 8
        disabled = Telemetry(enabled=False, sample_every=4)
        disabled.record_query(stats)
        assert disabled.registry.names() == []
        with pytest.raises(ValueError):
            Telemetry(enabled=True, sample_every=0)

    def test_sampled_out_queries_pay_only_query_count(self):
        dataset = _dataset(n=600)
        config = _config(telemetry=True, telemetry_sample_every=4)
        index = ClimberIndex.build(dataset, config)
        queries = _queries(8)
        for q in queries:
            index.knn(q, k=3)
        snap = index.telemetry.registry.snapshot()
        assert snap["counters"]["query.count"] == 8
        # Only the 2 sampled queries record full metrics.
        assert snap["histograms"]["query.wall_s"]["count"] == 2
        assert index.telemetry.sample_every == 4

    def test_sampling_does_not_change_answers(self):
        dataset = _dataset(n=600)
        queries = _queries(8)
        plain = ClimberIndex.build(dataset, _config())
        sampled = ClimberIndex.build(
            dataset, _config(telemetry=True, telemetry_sample_every=3)
        )
        assert _answers(plain, queries) == _answers(sampled, queries)

    def test_config_validates_sample_every(self):
        with pytest.raises(ConfigurationError):
            _config(telemetry_sample_every=0)
