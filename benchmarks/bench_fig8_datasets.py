"""Figure 8(a,b): index construction time and global index size per dataset.

Paper setting: 200 GB per dataset.  Expected shape: DPiSAX's construction
is by far the slowest ("inefficient updates to its data structures");
TARDIS is slightly faster than CLIMBER (cheap iSAX words vs pivot
conversions); every global index is megabytes — trivially memory-resident
— with TARDIS's wide n-ary sigTree the largest.
"""

from __future__ import annotations

import pytest

from bench_common import (
    BASE_SIZE_GB,
    build_climber,
    build_dpisax,
    build_seconds,
    build_tardis,
    emit,
    workload,
)
from repro.datasets import DATASET_NAMES

# Approximate bar readings from Fig. 8(a,b) at 200 GB: (minutes, MB).
PAPER_FIG8 = {
    "CLIMBER": (27.0, 2.5),
    "DPiSAX": (160.0, 1.0),
    "TARDIS": (22.0, 6.0),
}


def _run() -> list[dict]:
    rows = []
    for name in DATASET_NAMES:
        dataset, _, _ = workload(name)
        systems = {
            "CLIMBER": build_climber(dataset, BASE_SIZE_GB),
            "DPiSAX": build_dpisax(dataset, BASE_SIZE_GB),
            "TARDIS": build_tardis(dataset, BASE_SIZE_GB),
        }
        for system, index in systems.items():
            paper_min, paper_mb = PAPER_FIG8[system]
            rows.append({
                "dataset": name,
                "system": system,
                "build_min": round(build_seconds(index) / 60, 1),
                "paper_build_min": paper_min,
                "index_kb": round(index.global_index_nbytes / 1024, 1),
                "paper_index_mb": paper_mb,
            })
    return rows


@pytest.fixture(scope="module")
def fig8_rows():
    rows = _run()
    emit("fig8ab_datasets", "Fig. 8(a,b): construction time & global index "
         "size per dataset (200 GB-equivalent)", rows)
    return rows


def test_fig8_shape(fig8_rows):
    by = {(r["dataset"], r["system"]): r for r in fig8_rows}
    for name in DATASET_NAMES:
        climber = by[(name, "CLIMBER")]
        dpisax = by[(name, "DPiSAX")]
        tardis = by[(name, "TARDIS")]
        # DPiSAX construction is the slowest by a wide margin.
        assert dpisax["build_min"] > 1.5 * climber["build_min"]
        # TARDIS is at least as fast as CLIMBER (cheaper conversions).
        assert tardis["build_min"] <= climber["build_min"] + 1.0
        # Global indexes stay tiny (megabytes at paper scale).
        assert climber["index_kb"] < 10_000


def test_fig8_build_benchmark(benchmark, fig8_rows):
    """Wall-clock of one scaled CLIMBER build (RandomWalk)."""
    dataset, _, _ = workload("RandomWalk")
    benchmark.pedantic(
        lambda: build_climber(dataset, BASE_SIZE_GB), rounds=2, iterations=1
    )
