"""Figure 7(c,d): query time and recall vs dataset size (RandomWalk).

Paper setting: RandomWalk, sizes 200 GB - 1 TB, K = 500.  Expected shape:
Dss grows linearly into the 1000s of seconds; the indexes stay ~11-14 s;
CLIMBER's recall declines gently with size (0.77 -> 0.62, Table I) but
remains far above TARDIS and DPiSAX.

Scaled setting: record counts grow with the GB axis (6 000 at 200 GB up to
30 000 at 1 TB) with a fixed partition capacity, so the partition count —
the quantity that actually dilutes routing — grows like the paper's.
"""

from __future__ import annotations

from functools import partial

import pytest

from bench_common import (
    K_DEFAULT,
    build_climber,
    build_dpisax,
    build_dss,
    build_tardis,
    emit,
    workload,
)
from repro.evaluation import evaluate_system, modeled_query_seconds

SIZES_GB = (200, 400, 600, 800, 1000)

# Paper values: CLIMBER recall from Table I (R.R column); query seconds
# from Fig. 9(b) (400 GB column) and Table I (Q.R.T).
PAPER = {
    200: {"CLIMBER": (13.0, 0.77), "TARDIS": (10.2, 0.38),
          "DPiSAX": (10.0, 0.08), "Dss": (862.0, 1.0)},
    400: {"CLIMBER": (12.3, 0.71), "TARDIS": (11.0, 0.36),
          "DPiSAX": (10.7, 0.08), "Dss": (876.0 * 2, 1.0)},
    600: {"CLIMBER": (13.1, 0.68), "TARDIS": (11.1, 0.35),
          "DPiSAX": (10.9, 0.07), "Dss": (876.0 * 3, 1.0)},
    800: {"CLIMBER": (14.0, 0.63), "TARDIS": (11.2, 0.35),
          "DPiSAX": (11.0, 0.07), "Dss": (876.0 * 4, 1.0)},
    1000: {"CLIMBER": (14.4, 0.62), "TARDIS": (11.3, 0.34),
           "DPiSAX": (11.3, 0.07), "Dss": (876.0 * 5, 1.0)},
}


def _run() -> list[dict]:
    rows = []
    for size_gb in SIZES_GB:
        dataset, queries, truth = workload("RandomWalk", size_gb=size_gb)
        climber = build_climber(dataset, size_gb)
        # CLIMBER's stats carry no modelled clock; the baselines' do.
        modeled = {"CLIMBER": partial(modeled_query_seconds, climber)}
        systems = {
            "CLIMBER": climber.knn,
            "TARDIS": build_tardis(dataset, size_gb).knn,
            "DPiSAX": build_dpisax(dataset, size_gb).knn,
            "Dss": build_dss(dataset, size_gb).knn,
        }
        for system, knn in systems.items():
            ev = evaluate_system(system, knn, queries, truth, K_DEFAULT,
                                 modeled=modeled.get(system))
            paper_t, paper_r = PAPER[size_gb][system]
            rows.append({
                "size_gb": size_gb,
                "system": system,
                "query_s": round(ev.sim_seconds, 1),
                "paper_query_s": round(paper_t, 1),
                "recall": round(ev.recall, 3),
                "paper_recall": paper_r,
            })
    return rows


@pytest.fixture(scope="module")
def fig7cd_rows():
    rows = _run()
    emit("fig7cd_scale", "Fig. 7(c,d): query time & recall vs dataset size "
         "(RandomWalk, K=25 scaled from 500)", rows)
    return rows


def test_fig7cd_shape(fig7cd_rows):
    import numpy as np

    by = {(r["size_gb"], r["system"]): r for r in fig7cd_rows}
    # Dss grows linearly with size; CLIMBER stays flat.
    assert by[(1000, "Dss")]["query_s"] > 4 * by[(200, "Dss")]["query_s"]
    assert by[(1000, "CLIMBER")]["query_s"] < 3 * by[(200, "CLIMBER")]["query_s"]
    # CLIMBER beats both iSAX systems on average and never loses by more
    # than sampling noise at any single size (the per-size margins at 10^4
    # records are within seed variance; see EXPERIMENTS.md).
    for rival in ("TARDIS", "DPiSAX"):
        margins = [
            by[(size, "CLIMBER")]["recall"] - by[(size, rival)]["recall"]
            for size in SIZES_GB
        ]
        assert np.mean(margins) > 0.0, rival
        assert min(margins) > -0.05, rival
    # Recall does not improve with scale (Table I declines 0.77 -> 0.62).
    assert by[(1000, "CLIMBER")]["recall"] <= by[(200, "CLIMBER")]["recall"] + 0.05


def test_fig7cd_query_benchmark(benchmark, fig7cd_rows):
    dataset, queries, _ = workload("RandomWalk", size_gb=600)
    index = build_climber(dataset, 600)
    benchmark(lambda: index.knn(queries.values[1], K_DEFAULT))
