"""Offline consistency check of a CLIMBER backing directory.

Opens a store the way a reader would, through the public storage API
only, and looks at everything a query could ever touch:

* every ``append-*.seg`` directory is loaded and CRC-checked (the disk
  backend does that when it is constructed over the directory), and a
  file that is not a segment is a problem (DESIGN.md D18);
* every partition, base or delta, is opened, and an open checks the
  meta blob, the cluster directory and the ids, norms and values
  payloads against their five stored checksums (DESIGN.md D12, D14);
* every stored norm is ``‖v‖²`` of its record's stored values, up to
  rounding (a relative 1e-12, so that a store written where the norm
  kernel rounds differently still checks clean): a writer that stored
  a wrong norm under a matching checksum is caught here, as no open
  would catch it;
* every partition's stored id is the name it is stored under;
* every base's delta partitions number ``d0..dN`` without a gap.

Prints one JSON object — ``partitions``, ``segments``, ``records``,
``stored_bytes``, ``problems`` — and exits non-zero when ``problems`` is
not empty.

Usage::

    PYTHONPATH=src python tools/check_store.py DIR
    PYTHONPATH=src python tools/check_store.py --selftest
"""

from __future__ import annotations

import argparse
import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.exceptions import StorageError
from repro.series.distance import sq_norms
from repro.storage import LocalDiskBackend, StorageEngine
from repro.storage.engine import decode_v2_header
from repro.storage.engine.format import (
    HEADER_SIZE,
    V2Header,
    section_checksums,
)

SECTIONS = ("meta", "directory", "ids", "norms", "values")

#: Largest relative difference between a stored norm and the recomputed
#: one that is taken for rounding, not for a wrong norm.
NORM_RTOL = 1e-12


def check_store(root: Path) -> dict[str, object]:
    """The report for one backing directory (see the module docstring)."""
    files = [p for p in root.iterdir() if p.is_file()]
    report: dict[str, object] = {
        "partitions": 0,
        "segments": sum(p.match("append-*.seg") for p in files),
        "records": 0,
        "stored_bytes": sum(p.stat().st_size for p in files),
        "problems": [],
    }
    problems: list[str] = report["problems"]
    try:
        engine = StorageEngine(LocalDiskBackend(root))
        pids = engine.list_partitions()
    except StorageError as err:
        problems.append(str(err))
        return report
    deltas: dict[str, list[int]] = {}
    for pid in pids:
        report["partitions"] += 1
        base, is_delta, seq = pid.partition(".d")
        if is_delta and seq.isdigit():
            deltas.setdefault(base, []).append(int(seq))
        try:
            view = engine.open_partition(pid)
        except StorageError as err:
            problems.append(f"{pid}: {err}")
            continue
        report["records"] += view.record_count
        _, values, norms = view.read_clusters_with_norms(view.cluster_keys())
        expected = sq_norms(values)
        # Written so that a NaN norm counts as wrong too.
        wrong = np.flatnonzero(
            ~(np.abs(norms - expected) <= NORM_RTOL * expected)
        )
        if wrong.size:
            problems.append(
                f"{pid}: {wrong.size} stored norm(s), first of record "
                f"{int(wrong[0])}, differ from the squared norm of the "
                f"record's values"
            )
        if view.partition_id != pid:
            problems.append(
                f"{pid}: stored under this name but holds partition "
                f"{view.partition_id!r}"
            )
    for base, seqs in sorted(deltas.items()):
        if sorted(seqs) != list(range(len(seqs))):
            problems.append(
                f"{base}: delta sequence {sorted(seqs)} is not "
                f"d0..d{len(seqs) - 1}"
            )
    engine.close()
    return report


def _section_starts(root: Path) -> list[tuple[str, Path, dict[str, int]]]:
    """For one base and one delta partition: the partition, the segment
    holding it and the file offset of each of its five sections, read
    from its decoded header."""
    backend = LocalDiskBackend(root)
    names = backend.list_names()
    base = min(name for name in names if ".d" not in name)
    delta = min(name for name in names if ".d" in name)
    targets = []
    for name in (base, delta):
        blob = bytes(backend.read_range(name, 0, backend.size(name)))
        holder = next(
            seg for seg in sorted(root.glob("append-*.seg"))
            if blob in seg.read_bytes()
        )
        start = holder.read_bytes().index(blob)
        bounds = decode_v2_header(blob).section_bounds
        targets.append((name, holder, {
            section: start + bound for section, bound in zip(SECTIONS, bounds)
        }))
    backend.close()
    return targets


def _damaged_report(root: Path, holder: Path, damage) -> dict[str, object]:
    """The report on a copy of ``root`` whose ``holder`` file had
    ``damage(raw)`` applied to its bytes."""
    with tempfile.TemporaryDirectory() as damaged:
        copy = Path(damaged)
        shutil.copytree(root, copy, dirs_exist_ok=True)
        raw = bytearray((copy / holder.name).read_bytes())
        damage(raw)
        (copy / holder.name).write_bytes(bytes(raw))
        return check_store(copy)


def _wrong_norm(starts: dict[str, int]):
    """Damage that doubles a partition's first stored norm and re-stamps
    the norms checksum, as a writer bug would: no open refuses it."""
    def damage(raw: bytearray) -> None:
        norms, values = starts["norms"], starts["values"]
        first = np.frombuffer(raw, dtype=np.float64, count=1, offset=norms)
        first *= 2.0
        checksums = starts["meta"] - V2Header.header_size + HEADER_SIZE
        struct.pack_into(
            "<Q", raw, checksums + 8 * SECTIONS.index("norms"),
            *section_checksums(raw, (norms, values)),
        )
    return damage


def selftest() -> int:
    """A clean store must pass; one flipped byte in any section of a
    base or a delta partition must not, nor a wrong norm stored under a
    matching checksum, nor a loose partition file beside the segments."""
    from repro.core import ClimberConfig, ClimberIndex
    from repro.datasets import random_walk_dataset
    from repro.series import SeriesDataset
    from repro.storage import SimulatedDFS

    config = ClimberConfig(word_length=8, n_pivots=32, prefix_length=5,
                           capacity=150, sample_fraction=0.25,
                           n_input_partitions=8, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dfs = SimulatedDFS(backing_dir=root)
        index = ClimberIndex.build(random_walk_dataset(2_000, 64, seed=5),
                                   config, dfs=dfs)
        for number in (1, 2):
            values = random_walk_dataset(200, 64, seed=5 + number).values
            index.append(SeriesDataset(
                values, ids=np.arange(10_000 * number, 10_000 * number + 200)
            ))
        dfs.engine.close()

        if main([str(root)]) != 0:
            print("selftest: the clean store did not check clean",
                  file=sys.stderr)
            return 1
        for name, holder, starts in _section_starts(root):
            for section, byte in starts.items():
                def flip(raw: bytearray, byte: int = byte) -> None:
                    raw[byte] ^= 0x01
                if not _damaged_report(root, holder, flip)["problems"]:
                    print(f"selftest: a flipped byte in the {section} "
                          f"section of {name} went unreported",
                          file=sys.stderr)
                    return 1
            report = _damaged_report(root, holder, _wrong_norm(starts))
            if not any("stored norm" in p for p in report["problems"]):
                print(f"selftest: a wrong norm under a matching checksum "
                      f"in {name} went unreported", file=sys.stderr)
                return 1
        with tempfile.TemporaryDirectory() as damaged:
            copy = Path(damaged)
            shutil.copytree(root, copy, dirs_exist_ok=True)
            (copy / "p0.part").write_bytes(b"")
            if not check_store(copy)["problems"]:
                print("selftest: a loose partition file went unreported",
                      file=sys.stderr)
                return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path,
                        help="the store's backing directory")
    parser.add_argument("--selftest", action="store_true",
                        help="check a store built (and then damaged) in a "
                             "temporary directory")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.directory is None or not args.directory.is_dir():
        parser.error("DIR must be an existing backing directory")
    report = check_store(args.directory)
    print(json.dumps(report))
    return 1 if report["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
