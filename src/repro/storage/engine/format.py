"""The binary partition format: mmap-friendly columnar layout.

Section VI ("Localized Record-Level Similarity within Identified
Partitions") specifies the layout CLIMBER relies on at query time:

    "The data records within each data partition are organized such that
     all data series objects belonging to a trie node are stored
     contiguously next to each other.  The start offset of each trie node
     cluster is maintained in a header section within the partition."

This module is the one encoding of that layout — sorted cluster keys,
each cluster contiguous, indexed by an offset directory — laid out so
that a reader touches only the byte ranges it needs.  Its magic and
symbol names say "v2" because a blob-stream encoding preceded it; that
encoding is gone (DESIGN.md D4) and a blob that does not start with the
magic is refused by :func:`decode_v2_header`.

.. code-block:: text

    [0, 88)              fixed struct header (magic, version, geometry,
                         section offsets, total size)
    [88, 128)            five u64 checksums (meta blob, directory,
                         ids payload, norms payload, values payload)
    [128, 128+meta)      JSON meta blob: {"partition_id": ..., "keys": [...]}
    [dir_offset, ...)    cluster directory, 8-byte aligned: int64
                         offsets[n_clusters] followed by int64
                         counts[n_clusters]
    [ids_offset, ...)    raw C-order int64 ids payload, 64-byte aligned
    [norms_offset, ...)  one float64 ``‖v‖²`` per record, in record order,
                         64-byte aligned (DESIGN.md D14)
    [values_offset, ...) raw C-order float64 values payload, 64-byte aligned

Offsets/counts are *record* indices (the ``header`` tuples a writer
passes); byte ranges are derived by multiplying with the fixed item sizes.
Because the payloads are aligned raw C-order buffers, a reader backed by
``mmap``/``bytes`` serves any cluster as an ``np.frombuffer`` view with
zero deserialisation cost — exactly the asymmetry CLIMBER's query
algorithms assume ("reading one cluster touches only its slice").  The
norms payload is the scoring half of each record, written once by
:func:`~repro.series.distance.sq_norms` so that no query recomputes it:
a cluster read for scoring serves a run's norms from the same mapping as
its values.

One integrity rule holds (DESIGN.md D8, D12).  Every partition is
written as header **version 5**, with one checksum per section — meta
blob, directory and the three raw payloads — computed by
:func:`section_checksums`: the wrap-around sum mod 2**64 of the section's
little-endian 64-bit words.  Each section starts 8-aligned and its zeroed
alignment padding runs to the next one, so a check over a section and its
padding equals the stored sum exactly when the padding is still zero: no
byte after the header goes unchecked.  A blob of any other version, such
as version 4 (no norms) or the CRC32 version 3, is refused with
:class:`StorageError`.  Every :class:`PartitionV2View` maps its blob with
one range read when it is opened, checks all five sections over that
mapping, and serves its first read from it: what is verified is what is
served, and a mismatch raises
:class:`~repro.exceptions.PartitionCorruptError` from the open, where the
DFS retry loop sees it.  :func:`decode_partition_head` is the
metadata-only half — header, meta blob and directory, with their
checksums — for scans that never touch a payload byte.  Every refusal of
what was read, checksum or structure, is reported to the caller's
corruption callback.  A partition's one size is its blob's length, the
header's ``total_size`` (DESIGN.md D17).
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.exceptions import PartitionCorruptError, StorageError
from repro.series.distance import sq_norms
from repro.storage.serialization import json_from_bytes, json_to_bytes

__all__ = [
    "FORMAT_V2_MAGIC",
    "FORMAT_VERSION",
    "PAYLOAD_ALIGNMENT",
    "V2Header",
    "encode_partition_v2_arrays",
    "decode_v2_header",
    "decode_partition_head",
    "section_checksums",
    "PartitionV2View",
]

FORMAT_V2_MAGIC = b"CLMBPRT2"
FORMAT_VERSION = 5  # the one header version: base header + word-sum block
PAYLOAD_ALIGNMENT = 64

# magic, version, flags, n_clusters, n_records, series_length, meta_size,
# dir_offset, ids_offset, norms_offset, values_offset, total_size
_HEADER = struct.Struct("<8sII9Q")
HEADER_SIZE = _HEADER.size

# Checksums of (meta, directory, ids, norms, values), right after the base
# header.
_CHECKSUM_BLOCK = struct.Struct("<5Q")
CHECKSUM_BLOCK_SIZE = _CHECKSUM_BLOCK.size

#: The base header and the checksum block, decoded by one unpack.
_HEAD = struct.Struct("<8sII9Q5Q")
#: Bytes before the meta blob.
_HEAD_SIZE = _HEAD.size

_IDS_ITEMSIZE = 8     # int64
_VALUES_ITEMSIZE = 8  # float64
_NORMS_ITEMSIZE = 8   # float64

_WORD = 8  # bytes per checksummed word
_MASK = (1 << 64) - 1

assert HEADER_SIZE == 88
assert CHECKSUM_BLOCK_SIZE == 40
assert _HEAD_SIZE == HEADER_SIZE + CHECKSUM_BLOCK_SIZE
assert _HEAD_SIZE % _WORD == 0


def _align(offset: int, alignment: int) -> int:
    return -(-offset // alignment) * alignment


def section_checksums(
    buf: bytes | bytearray | memoryview, bounds: Sequence[int]
) -> list[int]:
    """The checksum of each section ``buf[bounds[i]:bounds[i + 1]]``.

    A section's checksum is the wrap-around sum mod 2**64 of its
    little-endian 64-bit words, a short last word zero-padded (DESIGN.md
    D12).  Every boundary but the last must lie a whole number of words
    after the first — the format's sections start 8-aligned — so one
    ``np.add.reduceat`` sums every section in a single pass over the
    bytes, however small the sections are.
    """
    start, end = bounds[0], bounds[-1]
    n_words, tail = divmod(end - start, _WORD)
    words = np.frombuffer(buf, dtype="<u8", count=n_words, offset=start)
    heads = [(b - start) // _WORD for b in bounds[:-1]]
    ends = heads[1:]
    ends.append(n_words)
    if all(map(operator.lt, heads, ends)):
        sums = np.add.reduceat(words, heads).tolist()
    else:
        # reduceat cannot sum an empty section (it returns the word at
        # its head), such as the payloads of a partition of no records.
        sums = [int(np.add.reduce(words[h:e])) for h, e in zip(heads, ends)]
    if tail:
        last = int.from_bytes(buf[end - tail:end], "little")
        sums[-1] = (sums[-1] + last) & _MASK
    return sums


class V2Header(NamedTuple):
    """Decoded fixed-width header: geometry, section offsets and the five
    per-section checksums (meta, directory, ids, norms, values).  A named
    tuple, because every open builds one: a frozen dataclass took ≈ 3 µs
    of a ≈ 20 µs small-partition open."""

    n_clusters: int
    n_records: int
    series_length: int
    meta_size: int
    dir_offset: int
    ids_offset: int
    norms_offset: int
    values_offset: int
    total_size: int
    checksums: tuple[int, int, int, int, int]

    @property
    def row_nbytes(self) -> int:
        return self.series_length * _VALUES_ITEMSIZE

    @property
    def section_bounds(self) -> tuple[int, int, int, int, int, int]:
        """Starts of the meta, directory, ids, norms and values sections,
        then the blob's end: each checked section runs to the next one,
        its zeroed alignment padding included."""
        return (self.header_size, self.dir_offset, self.ids_offset,
                self.norms_offset, self.values_offset, self.total_size)

    #: Bytes before the meta blob (base header + checksum block).
    header_size = _HEAD_SIZE


def encode_partition_v2_arrays(
    partition_id: str,
    ids: np.ndarray,
    values: np.ndarray,
    header: dict[str, tuple[int, int]],
    rows: np.ndarray | None = None,
) -> bytes:
    """Serialise cluster-laid-out arrays into the partition format.

    The one encoder: every writer — the build, ``append`` and the
    baselines — hands each partition's ``ids``/``values`` records and its
    cluster directory ``header`` (``{key: (offset, count)}``, in record
    indices) here.  The layout is sorted ``str`` keys, each cluster
    contiguous: ``header`` insertion order is the cluster order, so its
    keys must be distinct, sorted strings and its ranges must tile the
    records in that order.  A directory the reader would refuse raises
    :class:`StorageError` here, before anything is stored.

    With ``rows`` given, ``ids``/``values`` are *source* arrays and the
    partition's records are ``ids[rows]``/``values[rows]`` — gathered
    directly into the output buffer (``np.take(..., out=...)``), so the
    bulk build pays one scattered read instead of materialising a sorted
    copy of the dataset first.  ``rows`` must be an integer array (a
    boolean mask or float indices raise, never cast).

    Each record's ``‖v‖²`` is computed by
    :func:`~repro.series.distance.sq_norms` over the values as they lie in
    the output buffer and written straight into the norms section.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or ids.ndim != 1 or ids.shape[0] != values.shape[0]:
        raise StorageError(
            f"partition {partition_id!r}: ids/values shape mismatch"
        )
    if rows is not None:
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":
            raise StorageError(
                f"partition {partition_id!r}: row indices must be integers, "
                f"not {rows.dtype}"
            )
        rows = rows.astype(np.int64, copy=False)
        if rows.ndim != 1 or (
            rows.size and (rows.min() < 0 or rows.max() >= ids.shape[0])
        ):
            raise StorageError(
                f"partition {partition_id!r}: row indices out of range"
            )
    n_records = int(rows.size if rows is not None else ids.shape[0])
    keys = list(header)
    if not keys:
        raise StorageError(f"partition {partition_id!r} needs >= 1 cluster")
    bad = [key for key in keys if not isinstance(key, str)]
    if bad:
        raise StorageError(f"partition {partition_id!r}: cluster key "
                           f"{bad[0]!r} is not a string")
    # A directory the reader would refuse must fail here, not at a read.
    problem = _directory_problem(keys, [header[k][0] for k in keys],
                                 [header[k][1] for k in keys], n_records)
    if problem:
        raise StorageError(f"partition {partition_id!r}: {problem}")
    n_clusters = len(keys)
    meta = json_to_bytes({"partition_id": partition_id, "keys": keys})
    dir_offset = _align(_HEAD_SIZE + len(meta), _WORD)
    dir_nbytes = 2 * 8 * n_clusters
    ids_nbytes = n_records * _IDS_ITEMSIZE
    norms_nbytes = n_records * _NORMS_ITEMSIZE
    values_nbytes = n_records * values.shape[1] * _VALUES_ITEMSIZE
    ids_offset = _align(dir_offset + dir_nbytes, PAYLOAD_ALIGNMENT)
    norms_offset = _align(ids_offset + ids_nbytes, PAYLOAD_ALIGNMENT)
    values_offset = _align(norms_offset + norms_nbytes, PAYLOAD_ALIGNMENT)
    total_size = values_offset + values_nbytes

    out = bytearray(total_size)
    _HEADER.pack_into(
        out, 0,
        FORMAT_V2_MAGIC, FORMAT_VERSION, 0,
        n_clusters, n_records, values.shape[1], len(meta),
        dir_offset, ids_offset, norms_offset, values_offset, total_size,
    )
    out[_HEAD_SIZE:_HEAD_SIZE + len(meta)] = meta
    # Payload sections are filled through writable NumPy views over the
    # output buffer — one memcpy (or fused gather) per section, with no
    # intermediate ``tobytes`` bytes objects (at bulk-build volume those
    # doubled the write path's memory traffic).
    directory = np.frombuffer(out, dtype=np.int64, count=2 * n_clusters,
                              offset=dir_offset)
    directory[:n_clusters] = [header[k][0] for k in keys]
    directory[n_clusters:] = [header[k][1] for k in keys]
    ids_dst = np.frombuffer(out, dtype=np.int64, count=n_records,
                            offset=ids_offset)
    values_dst = np.frombuffer(
        out, dtype=np.float64, count=n_records * values.shape[1],
        offset=values_offset,
    ).reshape(n_records, values.shape[1])
    if rows is None:
        ids_dst[:] = ids
        values_dst.reshape(-1)[:] = values.reshape(-1)
    else:
        np.take(ids, rows, out=ids_dst)
        np.take(values, rows, axis=0, out=values_dst)
    sq_norms(values_dst, out=np.frombuffer(
        out, dtype=np.float64, count=n_records, offset=norms_offset,
    ))
    # The padding after each section is still zero, so summing up to the
    # next section gives the section's own checksum.
    _CHECKSUM_BLOCK.pack_into(
        out, HEADER_SIZE,
        *section_checksums(out, (_HEAD_SIZE, dir_offset, ids_offset,
                                 norms_offset, values_offset, total_size)),
    )
    return bytes(out)


def decode_v2_header(
    buf: bytes | bytearray | memoryview, physical_size: int | None = None
) -> V2Header:
    """Parse and validate the fixed header and checksum block from a
    payload's first bytes (``buf`` must hold both), in place, copying
    nothing.

    ``physical_size``, when known, is checked against the header's declared
    total so truncated files fail fast with a clear error.  Only header
    version 5 is read; any other version raises :class:`StorageError`.
    """
    if len(buf) < _HEAD_SIZE:
        raise StorageError(
            f"truncated v2 partition: {len(buf)} header bytes < {_HEAD_SIZE}"
        )
    (magic, version, flags, n_clusters, n_records, series_length, meta_size,
     dir_offset, ids_offset, norms_offset, values_offset, total_size,
     *checksums) = _HEAD.unpack_from(buf)
    if magic != FORMAT_V2_MAGIC:
        raise StorageError(f"bad partition magic {magic!r}")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported partition format version {version}")
    if flags != 0:
        raise StorageError(f"unknown partition format flags {flags:#x}")
    header = V2Header(
        n_clusters, n_records, series_length, meta_size, dir_offset,
        ids_offset, norms_offset, values_offset, total_size,
        tuple(checksums),
    )
    dir_nbytes = 2 * 8 * n_clusters
    consistent = (
        dir_offset >= _HEAD_SIZE + meta_size
        and dir_offset % _WORD == 0
        and ids_offset % PAYLOAD_ALIGNMENT == 0
        and norms_offset % PAYLOAD_ALIGNMENT == 0
        and values_offset % PAYLOAD_ALIGNMENT == 0
        and ids_offset >= dir_offset + dir_nbytes
        and norms_offset >= ids_offset + n_records * _IDS_ITEMSIZE
        and values_offset >= norms_offset + n_records * _NORMS_ITEMSIZE
        and total_size == values_offset + n_records * header.row_nbytes
    )
    if not consistent:
        raise StorageError("corrupt v2 partition header: inconsistent offsets")
    if physical_size is not None and physical_size != total_size:
        raise StorageError(
            f"truncated v2 partition: header declares {total_size} bytes, "
            f"storage holds {physical_size}"
        )
    return header


def _refuse(
    corruption_cb: Callable[[], None] | None,
    reason: str,
    error: type[StorageError] = StorageError,
) -> None:
    if corruption_cb is not None:
        corruption_cb()
    raise error(f"corrupt v2 partition: {reason}")


def _corrupt(corruption_cb: Callable[[], None] | None, reason: str) -> None:
    _refuse(corruption_cb, reason, PartitionCorruptError)


def _decode(
    buf: bytes | bytearray | memoryview,
    physical_size: int | None,
    corruption_cb: Callable[[], None] | None,
    n_sections: int,
) -> tuple[V2Header, str, dict[str, tuple[int, int]]]:
    """Decode the head of a partition and check its first ``n_sections``
    sections — 2 (meta, directory) or all 5 — with one checksum pass."""
    try:
        h = decode_v2_header(buf, physical_size)
    except StorageError:
        if corruption_cb is not None:
            corruption_cb()
        raise
    n = h.n_clusters
    bounds = h.section_bounds[:n_sections + 1]
    if len(buf) < bounds[-1]:
        _corrupt(corruption_cb, "short meta blob / directory read")
    sums = section_checksums(buf, bounds)
    if sums[0] != h.checksums[0]:
        _corrupt(corruption_cb, "meta blob checksum mismatch")
    try:
        meta = json_from_bytes(bytes(buf[_HEAD_SIZE:_HEAD_SIZE + h.meta_size]))
    except Exception:
        meta = None
    keys = meta.get("keys") if isinstance(meta, dict) else None
    if (
        not isinstance(keys, list)
        or not all(isinstance(key, str) for key in keys)
        or "partition_id" not in meta
    ):
        _refuse(corruption_cb, "malformed meta blob")
    if len(keys) != n:
        _refuse(corruption_cb,
                f"{len(keys)} keys for {n} directory entries")
    if sums[1] != h.checksums[1]:
        _corrupt(corruption_cb, "directory checksum mismatch")
    entries = struct.unpack_from(f"<{2 * n}q", buf, h.dir_offset)
    offsets, counts = entries[:n], entries[n:]
    problem = _directory_problem(keys, offsets, counts, h.n_records)
    if problem:
        _refuse(corruption_cb, problem)
    for i, section in ((2, "ids payload"), (3, "norms payload"),
                       (4, "values payload")):
        if i < n_sections and sums[i] != h.checksums[i]:
            _corrupt(corruption_cb, f"{section} checksum mismatch")
    return h, str(meta["partition_id"]), dict(zip(keys, zip(offsets, counts)))


def _directory_problem(
    keys: list[str], offsets: Sequence[int], counts: Sequence[int],
    n_records: int,
) -> str | None:
    """Why a cluster directory is malformed, or ``None``: its keys must be
    distinct and sorted, and its ranges must tile ``[0, n_records)`` in
    key order, so every record belongs to exactly one cluster."""
    if any(map(operator.ge, keys, keys[1:])):
        return "cluster keys are not distinct and sorted"
    end = 0
    for offset, count in zip(offsets, counts):
        if offset != end or count < 0:
            return "directory ranges do not tile the payload"
        end += count
    if end != n_records:
        return "directory ranges do not tile the payload"
    return None


def decode_partition_head(
    buf: bytes | bytearray | memoryview,
    physical_size: int | None = None,
    corruption_cb: Callable[[], None] | None = None,
) -> tuple[V2Header, str, dict[str, tuple[int, int]]]:
    """Header, partition id and cluster directory of one partition.

    ``buf`` holds the partition's bytes from offset 0 — a whole mapping,
    or at least everything up to the ids payload.  Decoded in place, with
    the meta blob and directory checksums checked and no payload byte
    touched: a metadata scan.  ``corruption_cb`` is called once before
    any refusal raises.
    """
    return _decode(buf, physical_size, corruption_cb, 2)


class PartitionV2View:
    """Zero-copy reader over one v2 partition, checked in full at open.

    Parameters
    ----------
    read_range:
        ``(offset, length) -> memoryview`` over the partition's bytes
        (typically a :class:`~repro.storage.engine.backend.StorageBackend`
        closure over an mmap or an in-memory blob).  Must raise
        :class:`StorageError` on out-of-range requests.
    physical_size:
        Total stored bytes, when the caller knows it (the storage engine
        always does); validated against the header's declared size, so a
        truncated blob fails at open with :class:`StorageError`, not on
        some later cluster read.  A standalone view without it reads the
        header once first to learn the size.
    corruption_cb:
        Zero-argument callable invoked once per detected corruption
        (before the raise) — the DFS hooks its
        ``dfs.corruption_detected`` counter here.

    An open costs one range read — the whole blob ``[0, total_size)`` in
    one mapping, of which header, meta blob, directory and payloads are
    slices — and checks all five sections over it (a mismatch raises
    :class:`~repro.exceptions.PartitionCorruptError`).  The first read is
    served from that checked mapping; the view then lets go of it and
    each later read maps the blob again, so a cached view pins no
    mapping.  Records are read by cluster key: :meth:`read_clusters`
    (``read_clusters(view.cluster_keys())`` is every record) and
    :meth:`read_clusters_with_norms` for scoring; returned arrays are
    read-only views into the backing buffer.
    """

    def __init__(
        self,
        read_range: Callable[[int, int], memoryview],
        physical_size: int | None = None,
        corruption_cb: Callable[[], None] | None = None,
    ) -> None:
        self._read = read_range
        self._corruption_cb = corruption_cb
        if physical_size is None:
            physical_size = decode_v2_header(
                read_range(0, _HEAD_SIZE)
            ).total_size
        self._size = physical_size
        buf = self._map()
        self.v2_header, self.partition_id, self.header = _decode(
            buf, physical_size, corruption_cb, 5
        )
        self._checked: memoryview | None = buf

    # -- geometry ---------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return self.v2_header.n_records

    @property
    def series_length(self) -> int:
        return self.v2_header.series_length

    @property
    def nbytes(self) -> int:
        """The partition's size: its stored blob's length, which DFS
        counters and simulated costs charge (DESIGN.md D17)."""
        return self.v2_header.total_size

    def cluster_keys(self) -> list[str]:
        return list(self.header)

    # -- range mapping ----------------------------------------------------------

    def _map(self) -> memoryview:
        """Map the whole blob ``[0, size)`` in one range read."""
        buf = self._read(0, self._size)
        # A checked backend raises on out-of-range requests; this guards
        # custom read callbacks that silently return short slices, which
        # would otherwise surface as numpy reshape errors.
        if len(buf) != self._size:
            _corrupt(self._corruption_cb,
                     f"short read: {len(buf)} of {self._size} bytes")
        return buf

    def _map_runs(
        self, runs: list[tuple[int, int]]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Contiguous record runs as (ids, values, norms) views of one
        mapping: the one checked at open for the view's first read, a
        fresh one after that."""
        h = self.v2_header
        # Unlocked on purpose: threads sharing a cached view may both take
        # the checked mapping or one may map afresh — either is correct.
        buf, self._checked = self._checked, None
        if buf is None:
            buf = self._map()
        parts = []
        for start, count in runs:
            ids = np.frombuffer(buf, dtype=np.int64, count=count,
                                offset=h.ids_offset + start * _IDS_ITEMSIZE)
            values = np.frombuffer(
                buf, dtype=np.float64, count=count * h.series_length,
                offset=h.values_offset + start * h.row_nbytes,
            ).reshape(count, h.series_length)
            norms = np.frombuffer(
                buf, dtype=np.float64, count=count,
                offset=h.norms_offset + start * _NORMS_ITEMSIZE,
            )
            parts.append((ids, values, norms))
        return parts

    def _runs(self, keys: Iterable[str]) -> list[tuple[int, int]]:
        """Record runs covering ``keys`` in order, adjacent runs coalesced."""
        runs: list[list[int]] = []
        for key in keys:
            if key not in self.header:
                raise StorageError(
                    f"partition {self.partition_id!r} has no cluster {key!r}"
                )
            start, count = self.header[key]
            if runs and runs[-1][0] + runs[-1][1] == start:
                runs[-1][1] += count
            else:
                runs.append([start, count])
        return [(s, c) for s, c in runs]

    # -- access -----------------------------------------------------------------

    def read_clusters(
        self, keys: Iterable[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated records of several clusters.

        Adjacent clusters (the common case: a trie subtree's leaves sit
        next to each other in sorted key order) coalesce into single mapped
        runs; a lone run is returned as a pure view with no copy at all.
        """
        return self.read_clusters_with_norms(keys)[:2]

    def read_clusters_with_norms(
        self, keys: Iterable[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`read_clusters` plus each record's stored ``‖v‖²``: the
        ``(ids, values, norms)`` a query scores, all three from the one
        mapping (a lone run is three views, no copy)."""
        runs = self._runs(keys)
        if not runs:
            raise StorageError("read_clusters requires at least one key")
        parts = self._map_runs(runs)
        if len(parts) == 1:
            return parts[0]
        ids, values, norms = zip(*parts)
        return np.concatenate(ids), np.vstack(values), np.concatenate(norms)
