"""The section checksum and what it detects (DESIGN.md D12, D14).

* the NumPy kernel (:func:`section_checksums`) against a pure-Python
  reference that shares no code with it (``oracles.word_sum_reference``);
* every single-bit flip of a small blob fails its open, and every burst
  of up to 64 contiguous bits inside a section — the norms payload
  included — is caught, each refusal counted once;
* the cluster directory's structural rule: keys distinct and sorted,
  ranges tiling the payload (a checksum-valid blob that breaks it is
  refused);
* one test per row of D12's detection table, so the table cannot drift
  from the code — the word sum's blind spots are shown to be blind, and
  CRC32 (the version-3 checksum) is shown to catch them.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import word_sum_reference

from repro.exceptions import PartitionCorruptError, StorageError
from repro.storage.engine import MemoryBackend, StorageEngine
from repro.storage.engine.format import (
    HEADER_SIZE,
    PartitionV2View,
    decode_partition_head,
    decode_v2_header,
    encode_partition_v2_arrays,
    section_checksums,
)

SECTIONS = ("meta blob", "directory", "ids payload", "norms payload",
            "values payload")


def _blob(n_clusters=2, per_cluster=1, length=4, seed=0) -> bytes:
    """A small partition: ``n_clusters`` clusters "a", "b", ..."""
    rng = np.random.default_rng(seed)
    n = n_clusters * per_cluster
    header = {chr(ord("a") + c): (c * per_cluster, per_cluster)
              for c in range(n_clusters)}
    return encode_partition_v2_arrays(
        "p", rng.integers(0, 2**40, n), rng.standard_normal((n, length)),
        header,
    )


def _open(blob, refusals=None):
    """Open ``blob`` as a view; each corruption callback appends to
    ``refusals``."""
    return PartitionV2View(
        lambda off, length: memoryview(blob)[off:off + length],
        physical_size=len(blob),
        corruption_cb=None if refusals is None
        else lambda: refusals.append(None),
    )


def _section_of(h, byte):
    """Index of the checked section holding ``byte`` (its padding
    included), or ``None`` for the fixed header and checksum block."""
    bounds = h.section_bounds
    for i in range(len(SECTIONS)):
        if bounds[i] <= byte < bounds[i + 1]:
            return i
    return None


def _checksum_field(byte):
    """Index of the stored checksum ``byte`` belongs to, or ``None``."""
    if HEADER_SIZE <= byte < HEADER_SIZE + 8 * len(SECTIONS):
        return (byte - HEADER_SIZE) // 8
    return None


# -- the kernel against the reference ------------------------------------------


class TestKernelParity:
    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=4097), offset=st.integers(0, 15))
    @example(data=b"", offset=0)
    @example(data=b"\x01", offset=3)
    @example(data=bytes(range(256)) * 16 + b"\xff", offset=5)
    def test_one_section_matches_reference(self, data, offset):
        # Any length (odd tails zero-padded) at any alignment.
        buf = bytes(offset) + data + b"\xee" * 3
        got = section_checksums(buf, (offset, offset + len(data)))
        assert got == [word_sum_reference(data)]

    @settings(max_examples=100, deadline=None)
    @given(words=st.lists(st.integers(0, 2**64 - 1), max_size=64),
           cuts=st.lists(st.integers(0, 64), max_size=5),
           offset=st.integers(0, 7))
    def test_many_sections_in_one_pass(self, words, cuts, offset):
        # Word-aligned sections, empty ones included, each summed alone.
        data = struct.pack(f"<{len(words)}Q", *words)
        inner = sorted({min(c, len(words)) * 8 for c in cuts})
        bounds = [0, *inner, len(data)]
        buf = bytes(offset) + data
        got = section_checksums(buf, [offset + b for b in bounds])
        assert got == [word_sum_reference(data[a:b])
                       for a, b in zip(bounds, bounds[1:])]

    def test_word_order_is_little_endian(self):
        # A byte-swapped (big-endian) reading of the same words is a
        # different function: the kernel must pin "<u8".
        for n_words in (1, 7, 512):
            data = np.random.default_rng(n_words).bytes(8 * n_words)
            big = int(np.add.reduce(np.frombuffer(data, dtype=">u8")))
            assert section_checksums(data, (0, len(data))) \
                == [word_sum_reference(data)]
            assert big != word_sum_reference(data)

    def test_sum_wraps_mod_2_64(self):
        data = b"\xff" * 8 * 3
        assert section_checksums(data, (0, 24)) == [(3 * (2**64 - 1)) % 2**64]


# -- every flip of a small blob ---------------------------------------------------


class TestEveryFlipFailsTheOpen:
    def test_every_single_bit_flip_raises(self):
        blob = _blob()
        h = decode_v2_header(blob)
        assert len(blob) <= 512  # keeps the exhaustive loop cheap
        for bit in range(8 * len(blob)):
            byte = bit // 8
            damaged = bytearray(blob)
            damaged[byte] ^= 1 << (bit % 8)
            refusals = []
            section = _section_of(h, byte)
            if section is None:
                section = _checksum_field(byte)
            with pytest.raises(StorageError) as info:
                _open(bytes(damaged), refusals)
            if section is not None:
                # Checked bytes (padding included) and the stored sums
                # fail as a corrupt section, named.
                assert info.type is PartitionCorruptError, byte
                assert SECTIONS[section] in str(info.value), byte
            assert len(refusals) == 1, byte  # counted once, head fields too

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_burst_up_to_64_bits_in_a_section_is_caught(self, data):
        blob = _blob(n_clusters=3, per_cluster=5, length=16, seed=1)
        h = decode_v2_header(blob)
        bounds = h.section_bounds
        section = data.draw(st.integers(0, len(SECTIONS) - 1))
        start_bit = 8 * bounds[section]
        end_bit = 8 * bounds[section + 1]
        length = data.draw(st.integers(1, min(64, end_bit - start_bit)))
        first = data.draw(st.integers(start_bit, end_bit - length))
        # A burst: first and last bit flipped, any pattern between.
        middle = data.draw(st.integers(0, 2 ** max(length - 2, 0) - 1))
        pattern = 1 | (middle << 1) | (1 << (length - 1))
        damaged = int.from_bytes(blob, "little") ^ (pattern << first)
        refusals = []
        with pytest.raises(PartitionCorruptError, match=SECTIONS[section]):
            _open(damaged.to_bytes(len(blob), "little"), refusals)
        assert len(refusals) == 1


# -- the directory's structural rule ----------------------------------------------


def _tampered(keys, ranges) -> bytes:
    """A 6-record, 2-cluster blob whose meta keys and directory are
    rewritten, both checksums re-stamped (so only structure can refuse)."""
    blob = bytearray(_blob(n_clusters=2, per_cluster=3))
    h = decode_v2_header(blob)
    meta_at = h.header_size
    meta = json.loads(bytes(blob[meta_at:meta_at + h.meta_size]))
    new_meta = json.dumps({**meta, "keys": keys},
                          separators=(",", ":")).encode()
    assert len(new_meta) == h.meta_size
    blob[meta_at:meta_at + h.meta_size] = new_meta
    n = h.n_clusters
    struct.pack_into(f"<{2 * n}q", blob, h.dir_offset,
                     *[o for o, _ in ranges], *[c for _, c in ranges])
    struct.pack_into(
        "<QQ", blob, HEADER_SIZE,
        word_sum_reference(bytes(blob[meta_at:h.dir_offset])),
        word_sum_reference(bytes(blob[h.dir_offset:h.ids_offset])),
    )
    return bytes(blob)


class TestDirectoryStructure:
    def test_untampered_blob_passes(self):
        view = _open(_tampered(["a", "b"], [(0, 3), (3, 3)]))
        assert view.header == {"a": (0, 3), "b": (3, 3)}

    @pytest.mark.parametrize("keys, ranges, reason", [
        # Duplicate keys would decode to one dict entry: records 0-2 lost.
        (["a", "a"], [(0, 3), (3, 3)], "distinct and sorted"),
        (["b", "a"], [(0, 3), (3, 3)], "distinct and sorted"),
        # Overlapping ranges serve ids 0-5 twice to read_clusters(a, b).
        (["a", "b"], [(0, 6), (0, 6)], "tile"),
        (["a", "b"], [(0, 2), (3, 3)], "tile"),   # a gap
        (["a", "b"], [(0, 3), (3, 2)], "tile"),   # a record in no cluster
        (["a", "b"], [(1, 2), (3, 3)], "tile"),   # not from record 0
        (["a", "b"], [(3, 3), (0, 3)], "tile"),   # out of key order
        (["a", "b"], [(0, 7), (7, -1)], "tile"),  # a negative count
    ])
    def test_checksum_valid_malformed_directory_is_refused(
        self, keys, ranges, reason
    ):
        blob = _tampered(keys, ranges)
        refusals = []
        with pytest.raises(StorageError, match=reason) as info:
            _open(blob, refusals)
        assert info.type is StorageError  # structure, not a checksum
        assert len(refusals) == 1
        with pytest.raises(StorageError, match=reason):
            decode_partition_head(blob, len(blob))
        engine = StorageEngine(MemoryBackend())
        engine.write_payloads([("p", blob)])
        with pytest.raises(StorageError, match=reason):
            engine.partition_meta("p")

    @pytest.mark.parametrize("header", [
        {"b": (0, 2), "a": (2, 2)},
        {"a": (0, 4), "b": (0, 4)},
        {"a": (0, 2), "b": (3, 1)},
    ])
    def test_writer_refuses_what_the_reader_would(self, header):
        with pytest.raises(StorageError):
            encode_partition_v2_arrays("p", np.arange(4), np.zeros((4, 2)),
                                       header)


# -- D12's detection table, row by row --------------------------------------------


def _values_section(seed=2, n_records=64, length=64) -> bytes:
    """Random float64 payload bytes, many words long."""
    values = np.random.default_rng(seed).standard_normal((n_records, length))
    return values.tobytes()


def _ws(data: bytes) -> int:
    return section_checksums(data, (0, len(data)))[0]


class TestDetectionTable:
    """Each row: what the word sum does with a damage, and what CRC32
    did.  ``caught`` means the checksum of the damaged bytes differs."""

    def _caught(self, clean, damaged):
        return (_ws(clean) != _ws(damaged),
                zlib.crc32(clean) != zlib.crc32(damaged))

    def test_single_bit_flips_caught_by_both(self):
        clean = _values_section()
        for bit in range(0, 8 * len(clean), 997):
            damaged = bytearray(clean)
            damaged[bit // 8] ^= 1 << (bit % 8)
            assert self._caught(clean, bytes(damaged)) == (True, True)

    def test_two_swapped_words_missed_by_the_sum(self):
        clean = bytearray(_values_section())
        damaged = bytearray(clean)
        damaged[0:8], damaged[800:808] = clean[800:808], clean[0:8]
        assert clean != damaged
        assert self._caught(bytes(clean), bytes(damaged)) == (False, True)

    def test_two_swapped_pages_missed_by_the_sum(self):
        clean = bytearray(_values_section(n_records=32, length=256))
        page = 4096
        damaged = bytearray(clean)
        damaged[:page], damaged[page:2 * page] = \
            clean[page:2 * page], clean[:page]
        assert clean != damaged
        assert self._caught(bytes(clean), bytes(damaged)) == (False, True)

    def test_cancelling_pair_missed_by_the_sum(self):
        # +2**j in one word and -2**j in another: bit j set in one word
        # and cleared in the other, 65 or more bits apart.
        clean = bytearray(_values_section())
        words = np.frombuffer(clean, dtype="<u8")
        j = 20
        up = next(i for i, w in enumerate(words) if not (int(w) >> j) & 1)
        down = next(i for i, w in enumerate(words)
                    if (int(w) >> j) & 1 and i > up)
        damaged = bytearray(clean)
        for i in (up, down):
            damaged[8 * i + j // 8] ^= 1 << (j % 8)
        assert self._caught(bytes(clean), bytes(damaged)) == (False, True)

    def test_65_bit_burst_can_be_missed(self):
        # Why the guarantee stops at 64 bits: the cancelling pair above,
        # made adjacent, is a burst of exactly 65 bits.
        clean = bytearray(16)
        clean[8 + 2] = 0x10  # bit 20 of word 1 set, of word 0 clear
        damaged = bytearray(clean)
        damaged[2] ^= 0x10
        damaged[8 + 2] ^= 0x10
        assert self._caught(bytes(clean), bytes(damaged)) == (False, True)

    def test_zeroed_page_caught_by_both(self):
        clean = _values_section(n_records=32, length=256)
        damaged = bytes(4096) + clean[4096:]
        assert self._caught(clean, damaged) == (True, True)

    def test_zero_word_across_a_boundary_missed_by_the_sum(self):
        # Moving a section boundary over a zero word leaves both sums
        # alone; the format binds every boundary by a structural check
        # instead (alignment, tiling, JSON parse, total size).
        data = bytes(8) + _values_section()[:64]
        assert self._caught(data, data[8:]) == (False, True)
