"""Shared fixtures for the test suite.

Datasets here are intentionally small (hundreds to a few thousand series)
so the whole suite runs in well under a minute; benchmark-scale workloads
live under ``benchmarks/``.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.series import SeriesDataset, znormalize

#: Configuration of the shared session-scoped index (`built_index`).
#: Exposed via the ``std_index_config`` fixture so adopting modules can
#: reference word length / capacity / prefix length without rebuilding.
STD_INDEX_CONFIG = ClimberConfig(
    word_length=8,
    n_pivots=32,
    prefix_length=6,
    capacity=150,
    sample_fraction=0.25,
    n_input_partitions=16,
    seed=3,
)


def expect_degraded(match: str = ""):
    """Context for code that *should* emit the ``parallel execution
    degraded`` RuntimeWarning.

    CI runs the plain tier-1 suite with ``-W error::RuntimeWarning`` so a
    stray NumPy "invalid value" cannot pass silently; the intentional
    degradation notices are asserted here instead.
    """
    return pytest.warns(
        RuntimeWarning, match=f"parallel execution degraded.*{match}"
    )


#: The footer ending an ``append-*.seg`` file (DESIGN.md D6): magic,
#: version, directory CRC32, directory offset, directory length.
SEGMENT_FOOTER = struct.Struct("<8sIIQQ")


def segment_directory(segment: Path) -> list[tuple[str, int, int]]:
    """``(name, offset, length)`` of every blob in one segment file, read
    from the documented layout with none of the backend's code."""
    raw = segment.read_bytes()
    magic, _, _, offset, length = SEGMENT_FOOTER.unpack(
        raw[-SEGMENT_FOOTER.size:]
    )
    assert magic == b"CLMBSEG1"
    return [tuple(row) for row in json.loads(raw[offset:offset + length])]


def unpack_segment(segment: Path) -> None:
    """Rewrite one append the way the commits before segments stored it:
    every packed blob copied out to a loose file of its own name, the
    segment removed."""
    raw = segment.read_bytes()
    for name, offset, length in segment_directory(segment):
        (segment.parent / name).write_bytes(raw[offset:offset + length])
    segment.unlink()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def std_index_config() -> ClimberConfig:
    return STD_INDEX_CONFIG


@pytest.fixture(scope="session")
def std_index_dataset() -> SeriesDataset:
    """The dataset behind the shared built index (3 000 series of len 64)."""
    return random_walk_dataset(3000, 64, seed=7)


@pytest.fixture(scope="session")
def built_index(std_index_dataset) -> ClimberIndex:
    """One CLIMBER index shared by every read-only integration module.

    Built once per session; modules that only *query* or *inspect* the
    index (core index/describe/query-internals suites) adopt it instead
    of each rebuilding their own, which used to dominate tier-1 wall
    time.  Tests that mutate the index (append/persistence round-trips
    with custom storage) must keep building their own.
    """
    return ClimberIndex.build(std_index_dataset, STD_INDEX_CONFIG)


@pytest.fixture(scope="session")
def small_dataset() -> SeriesDataset:
    """2 000 z-normalised random-walk series of length 64."""
    return random_walk_dataset(2_000, 64, seed=7)


@pytest.fixture(scope="session")
def tiny_dataset() -> SeriesDataset:
    """200 z-normalised random-walk series of length 32."""
    return random_walk_dataset(200, 32, seed=11)


@pytest.fixture(scope="session")
def clustered_dataset() -> SeriesDataset:
    """Series drawn from 8 shape clusters: indexes should separate these."""
    gen = np.random.default_rng(3)
    centers = gen.normal(size=(8, 64)).cumsum(axis=1)
    rows = []
    for i in range(1_600):
        c = centers[i % 8]
        rows.append(c + gen.normal(scale=0.25, size=64))
    return SeriesDataset(znormalize(np.array(rows)), name="clustered")


def pair_weight_distances(assigner, ranked: np.ndarray) -> np.ndarray:
    """``(d, k)`` Weight Distances of every row to every centroid, through
    the pair-wise kernel ``GroupAssigner`` runs on its OD-tied pairs."""
    k = len(assigner.centroids)
    rows, cols = np.divmod(np.arange(ranked.shape[0] * k), k)
    return assigner._weight_distances(ranked[rows], cols).reshape(-1, k)
