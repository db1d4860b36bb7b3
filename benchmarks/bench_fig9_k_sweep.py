"""Figure 9(a,b): recall and query time vs the answer size K.

Paper setting: RandomWalk 400 GB, K in {50, 100, 500, 1000, 2000},
systems: the three CLIMBER variants, TARDIS, DPiSAX, Dss.  Expected
shape: (1) CLIMBER stays superior at every K; (2) the three variants
coincide for small K (the target trie node already holds more than K);
(3) for large K the adaptive variants pull ahead of CLIMBER-kNN;
(4) query times stay in the same ballpark for all approximate systems
(Fig. 9(b) table), rising slightly for the adaptive variants.

Scaled setting: K in {3, 5, 25, 50, 100} (the paper's values / 20), at the
200 GB-equivalent base workload.  (The paper runs this figure at 400 GB;
our scaled stand-in keeps the calibrated base geometry instead because the
K-axis behaviour — variant coincidence/divergence — is what the figure
demonstrates.  See EXPERIMENTS.md.)
"""

from __future__ import annotations

from functools import partial

import pytest

from bench_common import (
    build_climber,
    build_dpisax,
    build_dss,
    build_tardis,
    emit,
    workload,
)
from repro.evaluation import evaluate_system, modeled_query_seconds

SIZE_GB = 200
K_VALUES = (3, 5, 25, 50, 100)      # scaled from 50,100,500,1000,2000
PAPER_K = (50, 100, 500, 1000, 2000)

# Fig. 9(b) exact query-time table (seconds) per K.
PAPER_TIMES = {
    "Dss": (862, 871, 876, 877, 881),
    "CLIMBER-Adap-4X": (11.2, 12, 12, 13, 13.5),
    "CLIMBER-Adap-2X": (11.2, 12, 12, 12.4, 12.7),
    "CLIMBER-kNN": (11.2, 12, 12, 12.3, 12.4),
    "TARDIS": (10.2, 10.6, 11, 11.2, 11.3),
    "DPiSAX": (10, 10.7, 11, 11, 11.3),
}


def _run() -> list[dict]:
    dataset, queries, _ = workload("RandomWalk", size_gb=SIZE_GB)
    index = build_climber(dataset, SIZE_GB)
    tardis = build_tardis(dataset, SIZE_GB)
    dpisax = build_dpisax(dataset, SIZE_GB)
    dss = build_dss(dataset, SIZE_GB)
    systems = {
        "Dss": dss.knn,
        "CLIMBER-Adap-4X": lambda q, k: index.knn(q, k, "adaptive", 4),
        "CLIMBER-Adap-2X": lambda q, k: index.knn(q, k, "adaptive", 2),
        "CLIMBER-kNN": lambda q, k: index.knn(q, k, "knn"),
        "TARDIS": tardis.knn,
        "DPiSAX": dpisax.knn,
    }
    rows = []
    for ki, k in enumerate(K_VALUES):
        from repro.evaluation import exact_ground_truth

        truth = exact_ground_truth(dataset, queries, k)
        for system, knn in systems.items():
            # CLIMBER's stats carry no modelled clock; the baselines' do.
            ev = evaluate_system(
                system, knn, queries, truth, k,
                modeled=(partial(modeled_query_seconds, index)
                         if system.startswith("CLIMBER") else None),
            )
            rows.append({
                "K": k,
                "paper_K": PAPER_K[ki],
                "system": system,
                "recall": round(ev.recall, 3),
                "query_s": round(ev.sim_seconds, 1),
                "paper_query_s": PAPER_TIMES[system][ki],
                "partitions": round(ev.partitions, 2),
            })
    return rows


@pytest.fixture(scope="module")
def fig9_rows():
    rows = _run()
    emit("fig9_k_sweep", "Fig. 9(a,b): recall & query time vs K "
         "(RandomWalk, 200 GB-equivalent; paper uses 400 GB)", rows)
    return rows


def test_fig9_variants_coincide_at_small_k(fig9_rows):
    by = {(r["K"], r["system"]): r for r in fig9_rows}
    for k in (3, 5):
        knn = by[(k, "CLIMBER-kNN")]["recall"]
        a2 = by[(k, "CLIMBER-Adap-2X")]["recall"]
        a4 = by[(k, "CLIMBER-Adap-4X")]["recall"]
        assert abs(knn - a2) < 0.02
        assert abs(knn - a4) < 0.02


def test_fig9_adaptive_wins_at_large_k(fig9_rows):
    by = {(r["K"], r["system"]): r for r in fig9_rows}
    k = K_VALUES[-1]
    assert by[(k, "CLIMBER-Adap-4X")]["recall"] >= by[(k, "CLIMBER-kNN")]["recall"]
    assert by[(k, "CLIMBER-Adap-4X")]["partitions"] >= by[(k, "CLIMBER-kNN")]["partitions"]


def test_fig9_climber_superior_everywhere(fig9_rows):
    """CLIMBER stays on top across the K sweep.

    Strict superiority is required from the default K upward; at the two
    smallest K values (3 and 5 at our scale) recall quantises in steps of
    1/3 and 1/5, so those points only need to be within noise.
    """
    by = {(r["K"], r["system"]): r for r in fig9_rows}
    for k in K_VALUES:
        best_climber = max(
            by[(k, v)]["recall"]
            for v in ("CLIMBER-kNN", "CLIMBER-Adap-2X", "CLIMBER-Adap-4X")
        )
        slack = 0.06 if k < 25 else 0.0
        assert best_climber > by[(k, "TARDIS")]["recall"] - slack, k
        assert best_climber > by[(k, "DPiSAX")]["recall"] - slack, k


def test_fig9_query_benchmark(benchmark, fig9_rows):
    dataset, queries, _ = workload("RandomWalk", size_gb=SIZE_GB)
    index = build_climber(dataset, SIZE_GB)
    benchmark(lambda: index.knn(queries.values[2], 100, "adaptive", 4))
