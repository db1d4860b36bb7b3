"""Parallel scaling benchmark: build throughput and batch-query QPS.

Sweeps the parallel execution layer (``ClimberConfig.n_workers``) over
1/2/4/8 thread-pool workers and reports:

* **parity gate** — the parallel build must be *bit-identical* to the
  serial one (partition bytes, skeleton + pivots, logical DFS counters)
  and the parallel ``knn_batch`` must return identical answers.  The
  artifact is refused when any of this diverges: scaling numbers from a
  wrong pipeline are meaningless.
* **headline: the measured 1-vs-2-worker build** — end-to-end build
  walls on this host, the worker counts alternating over 5 repetitions
  (2 with ``--smoke``; median reported), stamped with the host's CPU
  count.  Batch-query QPS is measured beside it.
* **modeled makespans** (the ``modeled`` field) — per-task durations
  are measured once on the serial path (conversion blocks, partition
  encodes, per-query scans — the exact task decomposition the executors
  run, which is fixed by block/shard size and independent of worker
  count), then scheduled onto ``k`` workers with a greedy
  longest-processing-time makespan plus the measured serial remainder
  (skeleton phase, RNG tail, routing, the streamed store).  This is the
  schedule the thread pool would realise with ``k`` free cores and
  kernels that release the GIL.

The acceptance gates read the speedups at 4 workers: measured when the
host has the cores (``host_cpus >= 8``), else modeled; ``gate_mode``
records which, so a small CI host cannot masquerade as an 8-core one.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

import repro.core.builder as builder_mod
from bench_common import bench_environment, timed
from repro.core import ClimberConfig, ClimberIndex
from repro.core.builder import build_index_artifacts
from repro.core.index import _QUERY_SHARD_ROWS
from repro.core.skeleton import SkeletonWithPivots
from repro.datasets import make_dataset, sample_queries
from repro.obs import Telemetry
from repro.storage import SimulatedDFS, StorageEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_parallel_scaling.json"

WORKER_COUNTS = (1, 2, 4, 8)


def make_config(n, n_workers):
    # Scaled paper geometry (r=96, m=6, a couple hundred groups).
    return ClimberConfig(
        word_length=8, n_pivots=96, prefix_length=6,
        capacity=max(200, n // 250), sample_fraction=0.02,
        n_input_partitions=64, seed=9,
        n_workers=n_workers,
    )


def build_once(dataset, config):
    return build_index_artifacts(dataset, config, dfs=SimulatedDFS())


# -- parity gate -----------------------------------------------------------------


def partition_payloads(dfs):
    backend = dfs.engine.backend
    return {
        pid: bytes(backend.read_range(dfs.engine.blob_name(pid), 0,
                                      dfs.partition_nbytes(pid)))
        for pid in dfs.list_partitions()
    }


def parity_gate(dataset, queries, k, serial_cfg, parallel_cfg) -> dict:
    serial = build_once(dataset, serial_cfg)
    parallel = build_once(dataset, parallel_cfg)
    partitions_ok = (partition_payloads(serial.dfs)
                     == partition_payloads(parallel.dfs))
    skeleton_ok = (
        SkeletonWithPivots(serial.skeleton, serial.pivots).to_bytes()
        == SkeletonWithPivots(parallel.skeleton, parallel.pivots).to_bytes()
    )
    counters_ok = (
        serial.dfs.counters.bytes_written
        == parallel.dfs.counters.bytes_written
        and serial.dfs.counters.partitions_written
        == parallel.dfs.counters.partitions_written
    )
    idx_serial = ClimberIndex(serial, serial_cfg, model=_model())
    idx_parallel = ClimberIndex(parallel, parallel_cfg, model=_model())
    rs = idx_serial.knn_batch(queries, k)
    rp = idx_parallel.knn_batch(queries, k)
    answers_ok = all(
        np.array_equal(a.ids, b.ids)
        and np.array_equal(a.distances, b.distances)
        and a.stats.partitions_loaded == b.stats.partitions_loaded
        for a, b in zip(rs, rp)
    )
    logical_ok = (
        idx_serial.dfs.counters.bytes_read
        == idx_parallel.dfs.counters.bytes_read
    )
    return {
        "partitions_byte_identical": partitions_ok,
        "skeleton_identical": skeleton_ok,
        "write_counters_identical": counters_ok,
        "knn_answers_identical": answers_ok,
        "logical_read_counters_identical": logical_ok,
    }


def _model():
    from repro.cluster import CostModel
    return CostModel()


# -- modeled scaling -------------------------------------------------------------


def lpt_makespan(durations, k) -> float:
    """Greedy longest-processing-time schedule of ``durations`` on ``k``
    workers — the executor's effective schedule for independent tasks."""
    if not durations:
        return 0.0
    loads = [0.0] * k
    for d in sorted(durations, reverse=True):
        i = loads.index(min(loads))
        loads[i] += d
    return max(loads)


def profile_serial_build(dataset, config):
    """One serial build, with per-task durations of the parallel stages.

    Wraps the exact task units the executors run — ``_convert_block``
    calls and per-partition encodes — so the modeled schedule uses the
    real task decomposition (fixed by block/shard size, identical at
    every worker count).  The store — one ``write_encoded_partitions``
    call that takes the payloads as they come — stays on the caller's
    thread at every worker count, so it counts as serial.  The phase
    walls are the build's own ``build.convert_s`` /
    ``build.redistribute_s`` spans.
    """
    block_times: list[float] = []
    encode_times: list[float] = []
    real_block = builder_mod._convert_block
    real_encode = StorageEngine.encode_arrays

    def timed_block(task):
        t = time.perf_counter()
        out = real_block(task)
        block_times.append(time.perf_counter() - t)
        return out

    def timed_encode(self, *args, **kwargs):
        t = time.perf_counter()
        out = real_encode(self, *args, **kwargs)
        encode_times.append(time.perf_counter() - t)
        return out

    telemetry = Telemetry(enabled=True)
    builder_mod._convert_block = timed_block
    StorageEngine.encode_arrays = timed_encode
    try:
        t0 = time.perf_counter()
        art = build_index_artifacts(dataset, config, dfs=SimulatedDFS(),
                                    telemetry=telemetry)
        wall = time.perf_counter() - t0
    finally:
        builder_mod._convert_block = real_block
        StorageEngine.encode_arrays = real_encode

    convert_wall = telemetry.registry.histogram("build.convert_s").sum
    redist_wall = telemetry.registry.histogram("build.redistribute_s").sum
    return {
        "artifacts": art,
        "wall": wall,
        "convert_wall": convert_wall,
        "redistribute_wall": redist_wall,
        "block_times": block_times,
        "encode_times": encode_times,
        # Serial remainders: whatever each phase spends outside its tasks
        # (RNG tail + copies for conversion; route/sort/registration for
        # redistribution), plus everything before Step 4.
        "convert_serial": max(0.0, convert_wall - sum(block_times)),
        "redist_serial": max(0.0, redist_wall - sum(encode_times)),
        "other_serial": max(0.0, wall - convert_wall - redist_wall),
    }


def modeled_build_walls(profile) -> dict[int, float]:
    out = {}
    for k in WORKER_COUNTS:
        out[k] = (
            profile["other_serial"]
            + profile["convert_serial"]
            + lpt_makespan(profile["block_times"], k)
            + profile["redist_serial"]
            + lpt_makespan(profile["encode_times"], k)
        )
    return out


def profile_serial_queries(index, queries, k):
    """One serial ``knn_batch``, timing every per-query scan task."""
    query_times: list[float] = []
    real_routed = ClimberIndex._knn_routed

    def timed_routed(self, *args, **kwargs):
        t = time.perf_counter()
        out = real_routed(self, *args, **kwargs)
        query_times.append(time.perf_counter() - t)
        return out

    ClimberIndex._knn_routed = timed_routed
    try:
        t0 = time.perf_counter()
        index.knn_batch(queries, k)
        wall = time.perf_counter() - t0
    finally:
        ClimberIndex._knn_routed = real_routed

    # Shards are the executor's task unit: consecutive runs of
    # _QUERY_SHARD_ROWS queries.
    shard_times = [
        sum(query_times[i:i + _QUERY_SHARD_ROWS])
        for i in range(0, len(query_times), _QUERY_SHARD_ROWS)
    ]
    return {
        "wall": wall,
        "shard_times": shard_times,
        "shared_serial": max(0.0, wall - sum(query_times)),
    }


def modeled_query_walls(profile) -> dict[int, float]:
    return {
        k: profile["shared_serial"] + lpt_makespan(profile["shard_times"], k)
        for k in WORKER_COUNTS
    }


# -- measured walls --------------------------------------------------------------


def measure_walls(dataset, queries, k, n, reps) -> dict:
    """Build walls per worker count over ``reps`` repetitions, the order
    of the counts reversed every other repetition so drift in the host's
    speed falls on all of them alike; then one batch-query QPS each."""
    build_reps = {workers: [] for workers in WORKER_COUNTS}
    for rep in range(reps):
        order = WORKER_COUNTS if rep % 2 == 0 else WORKER_COUNTS[::-1]
        for workers in order:
            with timed(f"scaling.build.w{workers}") as t_build:
                build_once(dataset, make_config(n, workers))
            build_reps[workers].append(t_build.seconds)
    qps = {}
    for workers in WORKER_COUNTS:
        cfg = make_config(n, workers)
        index = ClimberIndex(build_once(dataset, cfg), cfg, model=_model())
        index.knn_batch(queries[:8], k)  # warm routing tables / caches
        with timed(f"scaling.batch.w{workers}") as t_batch:
            index.knn_batch(queries, k)
        qps[workers] = len(queries) / t_batch.seconds
    return {
        "build_wall_s": {w: float(np.median(t)) for w, t in build_reps.items()},
        "build_wall_s_reps": build_reps,
        "batch_qps": qps,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI)")
    parser.add_argument("--records", type=int, default=None)
    args = parser.parse_args()
    reps = 2 if args.smoke else 5

    n = args.records or (20_000 if args.smoke else 200_000)
    n_queries = 64 if args.smoke else 256
    k = 10
    length = 32
    dataset = make_dataset("RandomWalk", n, length=length, seed=5)
    queries = sample_queries(dataset, n_queries, seed=7).values

    host_cpus = os.cpu_count() or 1
    gate_workers = 4
    parity = parity_gate(
        dataset, queries, k,
        make_config(n, 1), make_config(n, gate_workers),
    )
    print(f"parity: {parity}")
    # Parity gates the artifact: scaling numbers from a pipeline that
    # diverges from the serial reference must never be written.
    if not all(parity.values()):
        raise SystemExit("parity check failed; results not written")

    profile = profile_serial_build(dataset, make_config(n, 1))
    build_modeled = modeled_build_walls(profile)
    # Queries are profiled untraced, not on the build's telemetry.
    index = ClimberIndex(profile["artifacts"], make_config(n, 1),
                         model=_model(), telemetry=Telemetry())
    qprofile = profile_serial_queries(index, queries, k)
    query_modeled = modeled_query_walls(qprofile)

    measured = measure_walls(dataset, queries, k, n, reps)

    build_speedup_modeled = {
        k_: build_modeled[1] / build_modeled[k_] for k_ in WORKER_COUNTS
    }
    qps_modeled = {
        k_: n_queries / query_modeled[k_] for k_ in WORKER_COUNTS
    }
    qps_speedup_modeled = {
        k_: query_modeled[1] / query_modeled[k_] for k_ in WORKER_COUNTS
    }
    build_speedup_measured = {
        k_: measured["build_wall_s"][1] / measured["build_wall_s"][k_]
        for k_ in WORKER_COUNTS
    }
    qps_speedup_measured = {
        k_: measured["batch_qps"][k_] / measured["batch_qps"][1]
        for k_ in WORKER_COUNTS
    }

    # Gates: measured when the host actually has the cores, else the
    # modeled makespan series (recorded as such).
    use_measured = host_cpus >= max(WORKER_COUNTS)
    gate_mode = "measured" if use_measured else "modeled"
    build_speedup = (build_speedup_measured if use_measured
                     else build_speedup_modeled)
    qps_speedup = (qps_speedup_measured if use_measured
                   else qps_speedup_modeled)

    print(f"records={n:,} queries={n_queries} host_cpus={host_cpus} "
          f"build reps={reps} gates={gate_mode}")
    print(f"headline: measured build wall {measured['build_wall_s'][1]:.3f}s "
          f"at 1 worker, {measured['build_wall_s'][2]:.3f}s at 2 "
          f"(x{build_speedup_measured[2]:.2f}, median of {reps})")
    print(f"serial build {profile['wall']:.3f}s "
          f"(convert {profile['convert_wall']:.3f}s over "
          f"{len(profile['block_times'])} blocks, redistribute "
          f"{profile['redistribute_wall']:.3f}s over "
          f"{len(profile['encode_times'])} encodes, "
          f"other {profile['other_serial']:.3f}s)")
    for k_ in WORKER_COUNTS:
        print(f"  workers={k_}: build measured x{build_speedup_measured[k_]:.2f} "
              f"(wall {measured['build_wall_s'][k_]:.3f}s), modeled "
              f"x{build_speedup_modeled[k_]:.2f}  qps measured "
              f"{measured['batch_qps'][k_]:.0f} q/s, modeled "
              f"x{qps_speedup_modeled[k_]:.2f}")

    payload = {
        "smoke": args.smoke,
        "n_records": n,
        "n_queries": n_queries,
        "series_length": length,
        "k": k,
        "build_reps": reps,
        "environment": bench_environment(),
        "worker_counts": list(WORKER_COUNTS),
        "gate_mode": gate_mode,
        "parity": parity,
        "headline": {
            "what": "measured build wall, 1 vs 2 workers, median of "
                    "build_reps alternating repetitions",
            "build_wall_s_1": measured["build_wall_s"][1],
            "build_wall_s_2": measured["build_wall_s"][2],
            "build_speedup_at_2": build_speedup_measured[2],
        },
        "serial_profile": {
            "build_wall_s": profile["wall"],
            "convert_wall_s": profile["convert_wall"],
            "redistribute_wall_s": profile["redistribute_wall"],
            "n_convert_blocks": len(profile["block_times"]),
            "n_partition_encodes": len(profile["encode_times"]),
            "convert_serial_s": profile["convert_serial"],
            "redistribute_serial_s": profile["redist_serial"],
            "other_serial_s": profile["other_serial"],
            "query_batch_wall_s": qprofile["wall"],
            "n_query_shards": len(qprofile["shard_times"]),
            "query_shared_serial_s": qprofile["shared_serial"],
        },
        "modeled": {
            "what": "LPT makespan of the serially profiled tasks on k "
                    "workers plus the serial remainder; not measured",
            "build_wall_s": build_modeled,
            "build_speedup": build_speedup_modeled,
            "batch_wall_s": query_modeled,
            "batch_qps": qps_modeled,
            "qps_speedup": qps_speedup_modeled,
        },
        "measured": {
            **measured,
            "build_speedup": build_speedup_measured,
            "qps_speedup": qps_speedup_measured,
        },
        "build_speedup_at_4": build_speedup[4],
        "qps_speedup_at_4": qps_speedup[4],
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")

    # Acceptance: >= 2.5x build and >= 2x batch QPS at 4 workers (gate
    # series).  Smoke runs only guard against gross scaling regressions.
    build_floor, qps_floor = (1.5, 1.3) if args.smoke else (2.5, 2.0)
    if build_speedup[4] < build_floor:
        raise SystemExit(
            f"acceptance not met: {gate_mode} build speedup "
            f"x{build_speedup[4]:.2f} < x{build_floor} at 4 workers"
        )
    if qps_speedup[4] < qps_floor:
        raise SystemExit(
            f"acceptance not met: {gate_mode} QPS speedup "
            f"x{qps_speedup[4]:.2f} < x{qps_floor} at 4 workers"
        )


if __name__ == "__main__":
    main()
