"""Simulated distributed file system (stands in for HDFS).

A facade over the :mod:`repro.storage.engine` subsystem: partitions are
stored through a :class:`~repro.storage.engine.StorageEngine` — in-memory
or mmap-backed on disk, in the one binary partition format — while this
class keeps everything *simulated* about the DFS:

* byte-level read/write counters (the "additional data access" metric of
  Fig. 11(b)).  Counters are **logical**: every partition touch charges
  the partition's size — the length of its stored blob, which its own
  header declares (DESIGN.md D17) — no matter which backend or cache
  served the bytes, so the paper's access-volume metrics are
  byte-identical across storage configurations;
* the capacity constraint ``c`` of Def. 12 (``block_records``);
* an opt-in byte-bounded LRU **read cache** over opened partition handles
  (``cache_bytes``), tracked physically by ``cache_hits``/``cache_misses``;
* **thread safety with a narrow lock** — one reentrant lock guards only
  the *mutable bookkeeping*: the partition registry, the read cache and
  the counter snapshot.  Everything that can block — backend opens,
  retry-backoff sleeps, fault-injected straggler sleeps — runs **outside**
  that lock, under a per-partition in-flight guard (single-flight per
  partition id), so concurrent readers of distinct partitions genuinely
  overlap instead of convoying behind one reader's sleep.  The narrowed
  lock preserves three invariants the test suite pins down:

  1. *Exact logical counters* — ``bytes_read``/``partitions_read`` (and
     the hit/miss split with caching on) are commutative sums taken under
     the lock, so a thread hammer observes arithmetically exact totals;
  2. *Deterministic per-name attempt schedules* — the per-partition
     guard serialises open attempts **per partition id**, so the fault
     injector's per-name attempt counter advances in the same sequence
     whether reads are issued serially or from concurrent shards (only
     cross-partition interleaving, which the schedule never depends on,
     is left to the OS);
  3. *Bit-identical zero-fault parity* — with no faults armed the read
     path does exactly the work of the former coarse-locked one, in the
     same per-partition order, so answers and counters are unchanged;
* a **delta-name registry** — ``delta_partitions(base)`` answers the
  ``<base>.d<seq>`` naming-convention lookup from an in-memory index;
* **one write path** — every write is a batch:
  ``write_encoded_partitions`` stores the base partitions of a build, or
  the delta partitions of one append, through a single backend call (one
  segment file on disk, there whole or not at all) and registers each
  under its own name; ``write_partition_arrays`` is a batch of one
  (DESIGN.md D6, D18);
* **header metadata** — ``partition_nbytes(pid)`` / ``record_count(pid)``
  / ``series_length(pid)``, decoded from each blob's fixed header at
  write and attach time, so reopening an index, or validating an append,
  never reads partition payloads.

A read returns a :class:`~repro.storage.engine.PartitionV2View` whose five
section checksums were checked over the bytes of its open attempt
(DESIGN.md D8, D12, D14).
"""

from __future__ import annotations

import threading
import time
from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.exceptions import (
    PartitionLostError,
    PartitionNotFoundError,
    ReadTimeoutError,
    StorageError,
)
from repro.obs import MetricsRegistry
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy
from repro.series import series_nbytes
from repro.storage.engine import (
    LocalDiskBackend,
    MemoryBackend,
    PartitionV2View,
    StorageEngine,
    decode_v2_header,
)

__all__ = ["SimulatedDFS", "DfsCounters"]

_DEFAULT_BLOCK_BYTES = 64 * 1024 * 1024


@dataclass
class DfsCounters:
    """Cumulative I/O counters, for tests and access-volume metrics.

    ``bytes_read`` / ``partitions_read`` are *logical*: every successful
    read charges them, cache hit or not.  A partition's bytes, read or
    written, are always its size: the length of its stored blob
    (DESIGN.md D17).  ``cache_hits`` / ``cache_misses`` track the
    physical behaviour of the read cache (both stay 0 with caching off).
    The resilience counters (PR 8) are zero in fault-free runs by
    construction: ``retries`` counts retry attempts after a recoverable
    failure, ``read_failures`` counts logical reads that failed for good
    (retries exhausted or partition lost), and ``corruption_detected``
    counts checksum/decode integrity failures.
    """

    bytes_written: int = 0
    bytes_read: int = 0
    partitions_written: int = 0
    partitions_read: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    read_failures: int = 0
    corruption_detected: int = 0

    #: (field name, registry metric name) — the re-homing map between this
    #: value object and the ``dfs.*`` counters on a MetricsRegistry.
    METRIC_NAMES = (
        ("bytes_written", "dfs.bytes_written"),
        ("bytes_read", "dfs.bytes_read"),
        ("partitions_written", "dfs.partitions_written"),
        ("partitions_read", "dfs.partitions_read"),
        ("cache_hits", "dfs.cache_hits"),
        ("cache_misses", "dfs.cache_misses"),
        ("retries", "dfs.retries"),
        ("read_failures", "dfs.read_failures"),
        ("corruption_detected", "dfs.corruption_detected"),
    )

    def snapshot(self) -> "DfsCounters":
        return DfsCounters(
            self.bytes_written, self.bytes_read,
            self.partitions_written, self.partitions_read,
            self.cache_hits, self.cache_misses,
            self.retries, self.read_failures, self.corruption_detected,
        )


class SimulatedDFS:
    """An in-memory (optionally disk-backed) partition store.

    Every partition is written with five per-section checksums and every
    open attempt checks them; a mismatch is retried like a transient error.

    Parameters
    ----------
    block_bytes:
        Storage block size; the paper uses 64 or 128 MB HDFS blocks.
    backing_dir:
        If given, partitions are persisted to segment files under this
        directory, one a write, and served through mmap, making I/O
        genuinely disk-based.
    cache_bytes:
        Byte budget of the LRU read cache over opened partition handles;
        0 (the default) disables caching.  Logical read counters are
        unaffected either way.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; when given the
        backend is wrapped in a :class:`~repro.resilience.FaultInjector`
        realising the plan's deterministic fault schedule on the read
        path (a plan with all rates 0 exercises the wrapper and is
        byte-transparent — the zero-fault parity oracle).
    retry_policy:
        :class:`~repro.resilience.RetryPolicy` for :meth:`read_partition`;
        ``None`` uses the default (3 attempts, exponential backoff with
        seeded jitter, no deadline).  Fault-free reads never retry, so
        the policy is always armed without affecting parity.
    """

    def __init__(
        self,
        block_bytes: int = _DEFAULT_BLOCK_BYTES,
        backing_dir: str | Path | None = None,
        cache_bytes: int = 0,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if block_bytes < 1024:
            raise StorageError("block_bytes must be >= 1024")
        if cache_bytes < 0:
            raise StorageError("cache_bytes must be >= 0")
        self.block_bytes = block_bytes
        self.cache_bytes = cache_bytes
        self.backing_dir = Path(backing_dir) if backing_dir else None
        if self.backing_dir:
            backend = LocalDiskBackend(self.backing_dir)
        else:
            backend = MemoryBackend()
        self.fault_injector: FaultInjector | None = None
        if fault_plan is not None:
            self.fault_injector = FaultInjector(backend, fault_plan)
            backend = self.fault_injector
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._engine = StorageEngine(backend,
                                     corruption_cb=self._on_corruption)
        self._sizes: dict[str, int] = {}
        self._record_counts: dict[str, int] = {}
        self._series_lengths: dict[str, int] = {}
        self._deltas: dict[str, list[str]] = {}
        self._cache: OrderedDict[str, PartitionV2View] = OrderedDict()
        self._cache_used = 0
        # The narrow lock: registry, cache and counter mutations only.
        # Nothing that can block — backend opens, retry sleeps, injected
        # straggler sleeps — ever runs under it; those happen under the
        # per-partition guards below so only same-partition reads
        # serialise (see the module docstring's invariants).
        self._lock = threading.RLock()
        # Per-partition single-flight guards for the open path, created
        # lazily under self._lock.  Bounded by the number of registered
        # partitions, so no eviction is needed.
        self._inflight: dict[str, threading.Lock] = {}
        # Logical counters live on the DFS's own MetricsRegistry
        # (``self.registry``) as dfs.* counters (one schema across the
        # repo); handles are cached so the hot paths pay one .inc() each.
        # They are always on — never gated on telemetry — because the
        # paper's access-volume metrics and the parity suites are built on
        # them.
        self.registry = MetricsRegistry()
        self._metric_handles = tuple(
            self.registry.counter(metric)
            for _, metric in DfsCounters.METRIC_NAMES
        )
        (self._c_bytes_written, self._c_bytes_read,
         self._c_partitions_written, self._c_partitions_read,
         self._c_cache_hits, self._c_cache_misses,
         self._c_retries, self._c_read_failures,
         self._c_corruption) = self._metric_handles

    def _on_corruption(self) -> None:
        # Hooked into the engine as corruption_cb; called (possibly under
        # the DFS lock) right before a PartitionCorruptError raise.
        self._c_corruption.inc()

    @property
    def counters(self) -> DfsCounters:
        """Logical I/O counters, as a consistent :class:`DfsCounters` value.

        Snapshotted under the DFS lock, so the fields are mutually
        consistent even while readers/writers run concurrently.  The
        semantics are unchanged from the pre-registry implementation:
        logical, cache-independent reads/writes; physical cache hit/miss
        tallies.
        """
        with self._lock:
            return DfsCounters(*(h.value for h in self._metric_handles))

    @property
    def engine(self) -> StorageEngine:
        """The underlying storage engine (format/backends/raw access)."""
        return self._engine

    # -- capacity ---------------------------------------------------------------

    def block_records(self, series_length: int) -> int:
        """Capacity constraint ``c``: records of ``series_length`` per block."""
        return max(1, self.block_bytes // series_nbytes(series_length))

    # -- reattachment ---------------------------------------------------------------

    def attach(self) -> int:
        """Register the partitions already present in the backing directory.

        Lets a fresh process reopen a disk-persisted index: the engine
        lists the partitions stored in the directory's segments and reads
        only their headers (fixed header, meta blob and directory).  A
        stored blob that is not a partition in the engine's format, or a
        file in the directory that is not a segment (a loose ``.part``
        file of a store written before DESIGN.md D18), raises
        :class:`StorageError`.  Returns the number of partitions attached.
        """
        if not self.backing_dir:
            raise StorageError("attach() requires a backing_dir")
        attached = 0
        for pid in self._engine.list_partitions():
            if pid in self._sizes:
                continue
            meta = self._engine.partition_meta(pid)
            self._register(pid, meta.nbytes, meta.record_count,
                           meta.series_length)
            attached += 1
        return attached

    # -- write/read ----------------------------------------------------------------

    def _register(self, pid: str, nbytes: int, record_count: int,
                  series_length: int) -> None:
        self._sizes[pid] = nbytes
        self._record_counts[pid] = record_count
        self._series_lengths[pid] = series_length
        base, sep, _ = pid.partition(".d")
        if sep:
            insort(self._deltas.setdefault(base, []), pid)

    def write_partition_arrays(
        self,
        partition_id: str,
        ids,
        values,
        header: dict[str, tuple[int, int]],
        rows=None,
    ) -> int:
        """Store one partition: sorted keys, each cluster contiguous.

        ``header`` maps each cluster key, in sorted order, to its
        ``(offset, count)`` in the records.  With ``rows`` given,
        ``ids``/``values`` are source arrays and the stored records are
        ``ids[rows]``/``values[rows]``, gathered directly into the payload
        buffer.  A batch of one through :meth:`write_encoded_partitions`;
        returns the partition's stored size in bytes.
        """
        return self.write_encoded_partitions([(
            partition_id,
            self._engine.encode_arrays(partition_id, ids, values, header,
                                       rows=rows),
        )])

    def write_encoded_partitions(
        self, partitions: Iterable[tuple[str, bytes]]
    ) -> int:
        """Store ``(partition_id, payload)`` pairs, pre-encoded by
        :meth:`StorageEngine.encode_arrays`, in one backend call.

        Every write ends here.  ``partitions`` may be a generator — the
        build hands over each payload as it is encoded — and each pair is
        checked as it arrives: a duplicate id, or a payload whose fixed
        header does not decode, refuses the whole batch, of which nothing
        is then stored, registered or counted.  A stored batch is one
        segment file on disk (DESIGN.md D6, D18) and is registered and
        counted partition by partition; each partition's size, record
        count and series length come from its payload's own header.
        Returns the summed stored size in bytes.
        """
        heads = []

        def checked():
            batch = set()
            for pid, payload in partitions:
                h = decode_v2_header(payload, len(payload))
                if pid in self._sizes or pid in batch:
                    raise StorageError(f"partition {pid!r} already exists")
                batch.add(pid)
                heads.append((pid, h))
                yield pid, payload

        with self._lock:
            self._engine.write_payloads(checked())
            for pid, h in heads:
                self._register_written(pid, h.total_size, h.n_records,
                                       h.series_length)
        return sum(h.total_size for _, h in heads)

    def _register_written(self, pid: str, nbytes: int, record_count: int,
                          series_length: int) -> None:
        # Caller holds self._lock and has just stored the payload.
        # Defensive invalidation: duplicate ids are rejected before the
        # store, so a cached entry can never be stale today — but any
        # future overwrite path must evict here, and the cost is one dict
        # lookup.
        self._cache_evict(pid)
        self._register(pid, nbytes, record_count, series_length)
        self._c_bytes_written.inc(nbytes)
        self._c_partitions_written.inc()

    def read_partition(self, partition_id: str) -> PartitionV2View:
        """One partition, as a view checked in full by the open.

        Recoverable failures — :class:`TransientReadError`, a checksum
        mismatch in any of the five sections, blown deadlines — are
        retried per
        :attr:`retry_policy` (``dfs.retries`` counts the extra attempts);
        :class:`PartitionLostError` and :class:`PartitionNotFoundError`
        are not retried.  A logical read that fails for good bumps
        ``dfs.read_failures`` and re-raises; only *successful* reads
        charge the logical ``bytes_read``/``partitions_read`` counters,
        which in fault-free runs is observationally identical to the
        pre-resilience accounting (every read succeeded).
        """
        return self.read_partition_with_hit(partition_id)[0]

    def read_partition_with_hit(
        self, partition_id: str
    ) -> tuple[PartitionV2View, bool | None]:
        """:meth:`read_partition`, and whether the read cache served it.

        The flag is ``True`` for a read that charged ``cache_hits``,
        ``False`` for one that charged ``cache_misses`` and ``None`` with
        the cache off, so a caller that sums the flags of its own reads
        holds its share of those two counters exactly, whatever other
        readers do meanwhile.  This is how a query counts its cache
        hits and misses.
        """
        # Lock discipline: the narrow lock covers only the existence check,
        # the cache probe and the counter/cache mutations.  The open itself
        # — backend I/O, retry-backoff sleeps, injected straggler sleeps —
        # runs under the partition's single-flight guard with the narrow
        # lock *released*, so readers of distinct partitions overlap while
        # same-partition attempts stay serialised (which is what keeps the
        # fault injector's per-name attempt schedule deterministic under
        # concurrent shards).
        with self._lock:
            if partition_id not in self._sizes:
                raise PartitionNotFoundError(f"no partition {partition_id!r}")
            guard = self._inflight.get(partition_id)
            if guard is None:
                guard = self._inflight.setdefault(
                    partition_id, threading.Lock()
                )
        if self.cache_bytes:
            cached = self._cached_read(partition_id)
            if cached is not None:
                return cached, True
        with guard:
            if self.cache_bytes:
                # Re-probe: a reader that held the guard while we waited
                # may have opened and cached this partition already.
                cached = self._cached_read(partition_id)
                if cached is not None:
                    return cached, True
            try:
                part = self._open_with_retry(partition_id)
            except StorageError:
                with self._lock:
                    self._c_read_failures.inc()
                raise
            hit = None
            with self._lock:
                self._c_bytes_read.inc(self._sizes[partition_id])
                self._c_partitions_read.inc()
                if self.cache_bytes:
                    self._c_cache_misses.inc()
                    self._cache_insert(partition_id, part)
                    hit = False
            return part, hit

    def _cached_read(self, partition_id: str) -> PartitionV2View | None:
        """Serve one read from the cache, or return ``None`` on a miss.

        On a hit the logical counters and the hit tally are charged and
        the LRU entry refreshed — all under the narrow lock, atomically
        with respect to the :attr:`counters` snapshot.  The miss tally is
        *not* charged here: only the reader that actually opens the
        partition charges a miss, so ``cache_hits + cache_misses`` equals
        ``partitions_read`` exactly under any interleaving.
        """
        with self._lock:
            cached = self._cache.get(partition_id)
            if cached is None:
                return None
            # Logical accounting is cache-independent: the paper's
            # access-volume metrics charge every partition touch.
            self._c_bytes_read.inc(self._sizes[partition_id])
            self._c_partitions_read.inc()
            self._c_cache_hits.inc()
            self._cache.move_to_end(partition_id)
            return cached

    def _open_with_retry(self, partition_id: str) -> PartitionV2View:
        """Open one partition under the retry policy.

        The caller holds the partition's single-flight guard but **not**
        the narrow DFS lock: backoff and injected straggler sleeps here
        block only same-partition readers.  Counter bumps re-acquire the
        narrow lock so the :attr:`counters` snapshot stays mutually
        consistent.
        """
        policy = self.retry_policy
        injector = self.fault_injector
        name = self._engine.blob_name(partition_id)
        last_err: StorageError | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                delay = policy.backoff_delay(name, attempt)
                if delay > 0:
                    time.sleep(delay)
                with self._lock:
                    self._c_retries.inc()
            if injector is not None:
                injector.begin_attempt(name)
            t_attempt = time.perf_counter()
            try:
                part = self._engine.open_partition(partition_id)
            except (PartitionLostError, PartitionNotFoundError):
                raise  # permanent: retrying cannot help
            except StorageError as err:
                last_err = err
                continue
            if (
                policy.deadline_s is not None
                and time.perf_counter() - t_attempt > policy.deadline_s
            ):
                # Post-hoc deadline: the simulated DFS cannot abort a read
                # mid-flight, so a straggling attempt is failed after the
                # fact and retried like any transient fault.
                last_err = ReadTimeoutError(
                    f"read of {partition_id!r} exceeded the "
                    f"{policy.deadline_s}s deadline"
                )
                continue
            return part
        assert last_err is not None
        raise last_err

    # -- read cache --------------------------------------------------------------

    def _cache_insert(self, pid: str, part: PartitionV2View) -> None:
        # Caller holds self._lock.  Idempotent on purpose: a pid already
        # cached (possible when an eviction races a re-read in caller code
        # built on snapshots) must not double-count _cache_used.
        if pid in self._cache:
            self._cache.move_to_end(pid)
            return
        nbytes = self._sizes[pid]
        if nbytes > self.cache_bytes:
            return
        self._cache[pid] = part
        self._cache_used += nbytes
        while self._cache_used > self.cache_bytes:
            evicted, _ = self._cache.popitem(last=False)
            self._cache_used -= self._sizes[evicted]

    def _cache_evict(self, pid: str) -> None:
        # Caller holds self._lock.
        if self._cache.pop(pid, None) is not None:
            self._cache_used -= self._sizes.get(pid, 0)

    @property
    def cache_used_bytes(self) -> int:
        """Bytes currently held by the read cache."""
        with self._lock:
            return self._cache_used

    def cache_clear(self) -> None:
        """Drop every cached partition (counters untouched)."""
        with self._lock:
            self._cache.clear()
            self._cache_used = 0

    # -- introspection -----------------------------------------------------------

    def has_partition(self, partition_id: str) -> bool:
        return partition_id in self._sizes

    def list_partitions(self) -> list[str]:
        return sorted(self._sizes)

    def delta_partitions(self, base_name: str) -> list[str]:
        """Partitions named ``<base_name>.d...``, in lexicographic order.

        Maintained incrementally at write/attach time, replacing the
        per-query ``list_partitions()`` prefix scan.
        """
        return list(self._deltas.get(base_name, ()))

    def partition_nbytes(self, partition_id: str) -> int:
        if partition_id not in self._sizes:
            raise PartitionNotFoundError(f"no partition {partition_id!r}")
        return self._sizes[partition_id]

    def record_count(self, partition_id: str) -> int:
        """Records in a partition, from header metadata (no payload read)."""
        if partition_id not in self._record_counts:
            raise PartitionNotFoundError(f"no partition {partition_id!r}")
        return self._record_counts[partition_id]

    def series_length(self, partition_id: str) -> int:
        """Series length of a partition, from header metadata (no payload read)."""
        if partition_id not in self._series_lengths:
            raise PartitionNotFoundError(f"no partition {partition_id!r}")
        return self._series_lengths[partition_id]

    @property
    def total_bytes(self) -> int:
        return sum(self._sizes.values())

    def __len__(self) -> int:
        return len(self._sizes)
