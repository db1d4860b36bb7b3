"""Figure 8(c,d): construction time and global index size vs dataset size.

Paper setting: RandomWalk, 200 GB - 1 TB.  Expected shape: "all three
systems increase linearly as the dataset size increases" (§VII-B) while
the global index stays within tens of megabytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_common import (
    build_climber,
    build_dpisax,
    build_seconds,
    build_tardis,
    emit,
    workload,
)

SIZES_GB = (200, 400, 600, 800, 1000)

# Paper readings, Fig. 8(c) minutes at 200 GB / 1 TB endpoints.
PAPER_ENDPOINTS = {
    "CLIMBER": (27.0, 576.0),
    "DPiSAX": (160.0, 2300.0),
    "TARDIS": (22.0, 500.0),
}


def _run() -> list[dict]:
    rows = []
    for size_gb in SIZES_GB:
        dataset, _, _ = workload("RandomWalk", size_gb=size_gb)
        systems = {
            "CLIMBER": build_climber(dataset, size_gb),
            "DPiSAX": build_dpisax(dataset, size_gb),
            "TARDIS": build_tardis(dataset, size_gb),
        }
        for system, index in systems.items():
            rows.append({
                "size_gb": size_gb,
                "system": system,
                "build_min": round(build_seconds(index) / 60, 1),
                "index_kb": round(index.global_index_nbytes / 1024, 1),
            })
    return rows


@pytest.fixture(scope="module")
def fig8cd_rows():
    rows = _run()
    for system, (lo, hi) in PAPER_ENDPOINTS.items():
        print(f"paper {system}: {lo} min @200GB .. {hi} min @1TB")
    emit("fig8cd_scale", "Fig. 8(c,d): construction time & global index size "
         "vs dataset size (RandomWalk)", rows)
    return rows


def test_fig8cd_linear_growth(fig8cd_rows):
    """Construction time must grow ~linearly in the data volume."""
    for system in ("CLIMBER", "DPiSAX", "TARDIS"):
        series = [r["build_min"] for r in fig8cd_rows if r["system"] == system]
        sizes = np.array(SIZES_GB, dtype=float)
        times = np.array(series)
        # Linear fit residuals small relative to the mean.
        coeffs = np.polyfit(sizes, times, 1)
        resid = times - np.polyval(coeffs, sizes)
        assert np.abs(resid).max() < 0.15 * times.mean(), system
        assert coeffs[0] > 0, system

    by = {(r["size_gb"], r["system"]): r for r in fig8cd_rows}
    for size in SIZES_GB:
        assert (
            by[(size, "DPiSAX")]["build_min"]
            > by[(size, "CLIMBER")]["build_min"]
            >= by[(size, "TARDIS")]["build_min"] - 1.0
        )


def test_fig8cd_index_size_stays_small(fig8cd_rows):
    """Global index is megabytes even at 1 TB (Fig. 8(d))."""
    for r in fig8cd_rows:
        assert r["index_kb"] < 25_000


def test_fig8cd_build_benchmark(benchmark, fig8cd_rows):
    dataset, _, _ = workload("RandomWalk", size_gb=400)
    benchmark.pedantic(
        lambda: build_climber(dataset, 400), rounds=2, iterations=1
    )
