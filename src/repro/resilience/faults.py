"""Seeded fault plans and the backend-wrapping fault injector.

Determinism is the whole point.  A real chaos harness flips coins; this
one *derives* every coin from a stable hash of ``(seed, blob name,
attempt index, salt)`` (BLAKE2b — stable across processes and Python
versions, unlike the randomised builtin ``hash``).  Two consequences the
tests and benchmarks rely on:

* the same :class:`FaultPlan` seed produces the same fault schedule on
  every run, for any worker count — a partition's first read attempt
  faults (or not) identically whether a serial sweep or a thread shard
  issues it, because the attempt counter is per-name, maintained under
  the injector lock;
* fault decisions are scoped to *read attempts begun by the DFS read
  path* (:meth:`FaultInjector.begin_attempt`).  Metadata reads issued
  outside an attempt — ``attach()`` header scans, ``partition_meta`` —
  pass through untouched, so reopening an index over a faulty store
  works and only actual partition reads see faults.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

from repro.exceptions import (
    ConfigurationError,
    PartitionLostError,
    TransientReadError,
)

__all__ = [
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "stable_uniform",
]


def stable_uniform(seed: int, name: str, attempt: int, salt: str) -> float:
    """A uniform draw in ``[0, 1)`` as a pure function of its arguments.

    BLAKE2b over the formatted key, folded to 64 bits.  Stable across
    processes, platforms and Python versions — the backbone of every
    fault decision and jitter value in this package.
    """
    digest = hashlib.blake2b(
        f"{seed}:{name}:{attempt}:{salt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0**64


@dataclass(frozen=True)
class FaultDecision:
    """The faults one read attempt of one blob is scheduled to suffer."""

    lost: bool = False
    transient: bool = False
    flip_byte: int = -1   # byte offset within the blob, -1 = no flip
    flip_bit: int = 0
    straggle_s: float = 0.0


# Shared clean decision: reads outside a begun attempt take this path.
FaultDecision.CLEAN = FaultDecision()


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable schedule of storage faults.

    Parameters
    ----------
    seed:
        Root of the stable-hash fault schedule.  Same seed, same faults.
    transient_rate:
        Per-attempt probability that every read of the attempt raises
        :class:`~repro.exceptions.TransientReadError` (recoverable).
    loss_rate:
        Per-*blob* probability that the blob is permanently lost —
        every read attempt raises
        :class:`~repro.exceptions.PartitionLostError`, forever.
    bit_flip_rate:
        Per-attempt probability that one uniformly-chosen bit of the
        blob reads back flipped for the duration of the attempt (the
        stored bytes are never modified).
    straggler_rate, straggler_delay_s:
        Per-attempt probability that the attempt's first read sleeps
        ``straggler_delay_s`` before returning (a slow datanode).
    """

    seed: int = 0
    transient_rate: float = 0.0
    loss_rate: float = 0.0
    bit_flip_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_delay_s: float = 0.01

    def __post_init__(self) -> None:
        for field in ("transient_rate", "loss_rate", "bit_flip_rate",
                      "straggler_rate"):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{field} must be in [0, 1]")
        if self.straggler_delay_s < 0:
            raise ConfigurationError("straggler_delay_s must be >= 0")

    @property
    def active(self) -> bool:
        """True when any fault has nonzero probability."""
        return (self.transient_rate > 0 or self.loss_rate > 0
                or self.bit_flip_rate > 0 or self.straggler_rate > 0)

    def lost(self, name: str) -> bool:
        """Whether ``name`` is permanently lost under this plan."""
        if self.loss_rate <= 0:
            return False
        return stable_uniform(self.seed, name, -1, "loss") < self.loss_rate

    def decide(self, name: str, attempt: int, blob_size: int) -> FaultDecision:
        """The fault decision for one ``(name, attempt)`` read attempt."""
        if self.lost(name):
            return FaultDecision(lost=True)
        transient = (
            self.transient_rate > 0
            and stable_uniform(self.seed, name, attempt, "transient")
            < self.transient_rate
        )
        flip_byte, flip_bit = -1, 0
        if (
            self.bit_flip_rate > 0 and blob_size > 0
            and stable_uniform(self.seed, name, attempt, "flip")
            < self.bit_flip_rate
        ):
            flip_byte = min(
                blob_size - 1,
                int(stable_uniform(self.seed, name, attempt, "flip_byte")
                    * blob_size),
            )
            flip_bit = int(
                stable_uniform(self.seed, name, attempt, "flip_bit") * 8
            ) & 7
        straggle_s = 0.0
        if (
            self.straggler_rate > 0
            and stable_uniform(self.seed, name, attempt, "straggle")
            < self.straggler_rate
        ):
            straggle_s = self.straggler_delay_s
        return FaultDecision(
            transient=transient, flip_byte=flip_byte, flip_bit=flip_bit,
            straggle_s=straggle_s,
        )


class FaultInjector:
    """A :class:`StorageBackend` wrapper realising a :class:`FaultPlan`.

    Wraps any backend and satisfies the same byte-range protocol.  Writes
    and listings always pass through untouched (build pipelines
    are unaffected); reads consult the fault decision of the blob's
    current attempt:

    * ``lost`` — raise :class:`PartitionLostError` (permanent);
    * ``transient`` — raise :class:`TransientReadError`;
    * bit flip — serve a copy of the requested range with the scheduled
      bit flipped when the range covers it (stored bytes untouched);
    * straggler — sleep once (on the attempt's first read) before serving.

    Attempts are explicit: the DFS read loop calls :meth:`begin_attempt`
    before each open, which advances the blob's per-name attempt counter
    and fixes the decision every subsequent read of that blob consults —
    the open, which checksums every section, and the later reads of the
    view it returned.  Reads of blobs with no begun attempt (metadata
    scans) are clean.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self._decisions: dict[str, FaultDecision] = {}
        self._straggled: set[str] = set()

    # -- attempt lifecycle ------------------------------------------------------

    def begin_attempt(self, name: str) -> int:
        """Advance ``name``'s attempt counter; fix the attempt's decision."""
        with self._lock:
            attempt = self._attempts.get(name, -1) + 1
            self._attempts[name] = attempt
            blob_size = self.inner.size(name) if self.inner.exists(name) else 0
            self._decisions[name] = self.plan.decide(name, attempt, blob_size)
            self._straggled.discard(name)
            return attempt

    def attempts(self, name: str) -> int:
        """Read attempts begun for ``name`` (for tests/diagnostics)."""
        with self._lock:
            return self._attempts.get(name, -1) + 1

    def _decision(self, name: str) -> FaultDecision:
        with self._lock:
            return self._decisions.get(name, FaultDecision.CLEAN)

    # -- StorageBackend protocol ------------------------------------------------

    def write_many(self, blobs) -> None:
        self.inner.write_many(blobs)

    def read_range(self, name: str, offset: int, length: int):
        decision = self._decision(name)
        if decision.lost:
            raise PartitionLostError(
                f"partition blob {name!r} is permanently lost (injected)"
            )
        if decision.transient:
            raise TransientReadError(
                f"transient read failure on {name!r} (injected)"
            )
        if decision.straggle_s > 0:
            with self._lock:
                straggle = name not in self._straggled
                self._straggled.add(name)
            if straggle:
                time.sleep(decision.straggle_s)
        view = self.inner.read_range(name, offset, length)
        flip = decision.flip_byte
        if flip >= 0 and offset <= flip < offset + length:
            corrupted = bytearray(view)
            corrupted[flip - offset] ^= 1 << decision.flip_bit
            return memoryview(bytes(corrupted))
        return view

    def size(self, name: str) -> int:
        return self.inner.size(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def list_names(self) -> list[str]:
        return self.inner.list_names()

    def close(self) -> None:
        self.inner.close()
