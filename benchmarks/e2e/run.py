"""One run of one workload of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload lookup --seed 7 --seconds 20 --trace 0

Generates the workload from ``--seed``, builds and drives ``repro``
through its public API, checks every answer against the raw arrays,
prints every metric it measured with its unit, and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists — the end-to-end ones with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Exits non-zero when an operation
failed, recall fell under the workload's floor, or more queries than the
workload allows were answered with fewer than ``min(k, n)`` results.

Names, units, directions and bounds are read from ``BENCHMARK.json`` at
the root of the checkout; this file defines none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    import repro  # noqa: E402,F401
except ImportError as err:
    sys.exit(f"cannot import repro from {ROOT / 'src'}: {err}")

import layers  # noqa: E402
from repro.obs import global_registry  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

_pc = time.perf_counter

TRACE_PASS_SHARE = 0.4
"""Share of its passes a traced run makes (they feed the per-layer
counts) before the layer replay."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(args, workload, n_passes: int, n_setups: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "passes": n_passes,
        "counted_passes": workload.counted_passes,
        "median_pass_metrics": list(workload.median_pass_metrics),
        "samples_per_pass": workload.samples_per_pass * workload.scale.pass_ops,
        "setup_repeats": n_setups,
        "flush_policy": "the program's own: write + rename, no fsync",
    }


def measure(args, spec: dict, workdir: Path) -> dict:
    """Run the workload and return the full result record."""
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload](
        args.seed, SCALES[args.scale], workdir, trace=bool(args.trace))

    t0 = _pc()
    workload.make_inputs()
    inputs_s = _pc() - t0
    # setup_s is the program's share of set-up only.  Generating the
    # inputs takes the harness four times as long and no change to the
    # program can move it, so adding it in would only hide one that does.
    # The program's share is repeated and the median taken, so one slow
    # build does not read as a set-up regression.
    prepares = []
    for _ in range(1 if args.trace else workload.scale.setup_repeats):
        t0 = _pc()
        workload.prepare()
        prepares.append(_pc() - t0)
    setup_s = statistics.median(prepares)

    # The number of passes follows from --seconds, not from the clock:
    # see Workload.n_passes.
    n_passes = workload.n_passes(
        args.seconds * (TRACE_PASS_SHARE if args.trace else 1.0))
    for p in range(n_passes):
        workload.run_pass(p)

    metrics = workload.metrics(better)
    metrics["setup_s"] = setup_s
    metrics["parallel.fallbacks"] = float(
        global_registry().counter("parallel.fallbacks").value)

    spans = None
    if args.trace:
        layer_metrics, spans = layers.trace_run(workload, workdir / "bulk")
        metrics.update(layer_metrics)

    workload.close()
    # ru_maxrss is in KiB on Linux; taken last so set-up and caches show.
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {
        "workload": args.workload,
        "trace": args.trace,
        "correct": workload.is_correct(),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": dict(workload.failures),
        "short_queries": sorted(workload.short_queries),
        "metrics": metrics,
        "per_pass": workload.passes,
        "setup": {"inputs_s": inputs_s, "prepare_s": prepares},
        "environment": environment(args, workload, n_passes, len(prepares)),
        "spans": spans,
    }


def published(record: dict, spec: dict) -> dict:
    """The metrics of the final line: the group ``--trace`` selects.

    A per-layer metric of a layer this workload does not exercise reads
    0; an end-to-end metric that was not measured is an error.
    """
    measured = record["metrics"]
    if record["trace"]:
        return {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": float(measured[m["name"]]),
                        "unit": m["unit"]} for m in spec["end_to_end"]}


def report(record: dict, spec: dict) -> None:
    """Every measured metric by name, with its unit and sample counts."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    env = record["environment"]
    per_pass = set(record["per_pass"][0]) if record["per_pass"] else set()
    print(f"# workload {record['workload']}  seed {env['seed']}  "
          f"scale {env['scale']}  trace {record['trace']}")
    print("# " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name in sorted(record["metrics"]):
        value = record["metrics"][name]
        note = ""
        if name in per_pass:
            rule = "median" if name in env["median_pass_metrics"] else "best"
            note = f"  ({rule} of {env['passes']} passes"
            if name in ("query_p50_ms", "query_p95_ms"):
                note += f" x {env['samples_per_pass']} samples"
            note += ")"
        print(f"{name:36s} {value:16.6f} {units.get(name, '-'):8s}{note}")
    print(f"# attempted {record['attempted']}  failed {record['failed']}  "
          f"{record['failures'] or ''}  "
          f"queries answered short {record['short_queries']}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results, traces and the store")
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    workdir = args.out / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        record = measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spans = record.pop("spans")
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        (args.out / f"trace-{args.workload}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "spans": spans}))
    (args.out / f"result-{stamp}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1))

    report(record, spec)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": published(record, spec),
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
