"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py SET_A SET_B
    python3 benchmarks/e2e/compare.py --self [--sweeps 5] [--seeds 7]
    python3 benchmarks/e2e/compare.py --collect DIR [--sweeps 5] [--seeds 1-10]

A *set* is a directory of ``result-*.json`` files written by ``run.py``:
some sweeps of the four workloads, interleaved so that the host's slow
spells fall on every workload alike.  A set's value for a metric is the
median of its runs; its spread is the distance between their quartiles
as a share of that median.

First, one line per workload: each side's run count and its failed and
attempted operations.  Then one row per workload and end-to-end metric:
both medians, how much worse B is than A as a share of A, the bound from
``BENCHMARK.json`` and a verdict:

``ok``          B is not worse than A by more than the bound;
``differs``     it is — or a count that must repeat exactly for a seed
                took two values for one seed inside a set (under
                ``--self``: inside the two sets taken together, which
                are one tree);
``unresolved``  a set's own runs spread wider than the bound, so the
                sets cannot tell — unless every run of B reads better
                than every run of A.

``--self`` collects two sets from the current tree and compares them:
the repeatability check.  With ``--seeds 1-10`` each sweep takes the next
seed, which is the check the benchmark contract makes.

The exit code is 1 if any row is not ``ok``, if the sides hold different
numbers of runs of a workload, or if any run was not correct: a side on
which operations fail has no timing worth comparing.  Collecting stops at
the first run that exits non-zero, for the same reason.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from estimators import spread, worse_by

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

EXACT_PER_SEED = ("recall_at_k", "stored_bytes_per_user_byte")
"""End-to-end metrics that are counts of the counted passes: two runs of
one tree on one seed must agree to the last digit."""

MIN_SWEEPS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    """``"7"`` -> [7]; ``"1-10"`` -> [1..10]; ``"3,5,8"`` -> [3, 5, 8]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(out: Path, spec: dict, sweeps: int, seeds: list[int],
            seconds: float | None) -> None:
    """Run ``sweeps`` interleaved sweeps of every workload into ``out``.

    Tracing is off: the end-to-end metrics are the ones compared.
    """
    if sweeps < MIN_SWEEPS:
        raise SystemExit(f"a set is at least {MIN_SWEEPS} sweeps")
    for sweep in range(sweeps):
        seed = seeds[sweep % len(seeds)]
        for workload in spec["workloads"]:
            cmd = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload["name"], "--seed", str(seed),
                   "--trace", "0", "--out", str(out)]
            if seconds is not None:
                cmd += ["--seconds", str(seconds)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or [done.stderr]
            print(f"sweep {sweep} {workload['name']} seed {seed}: "
                  f"exit {done.returncode} {last[0][:100]}",
                  file=sys.stderr, flush=True)
            if done.returncode:
                raise SystemExit(
                    f"{' '.join(cmd)} exited {done.returncode}:\n"
                    f"{done.stderr[-2000:]}")


def load_set(path: Path) -> dict[str, list[dict]]:
    """Untraced result records of one set, by workload, in the order they ran."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for file in sorted(path.glob("result-*.json"),
                       key=lambda f: f.stem.rsplit("-", 1)[-1]):
        record = json.loads(file.read_text())
        if not record["trace"]:
            runs[record["workload"]].append(record)
    if not runs:
        raise SystemExit(f"no untraced result-*.json in {path}")
    return runs


def exact_mismatch(runs: list[dict], name: str) -> bool:
    by_seed: dict[int, set[float]] = defaultdict(set)
    for record in runs:
        by_seed[record["environment"]["seed"]].add(record["metrics"][name])
    return any(len(values) > 1 for values in by_seed.values())


def health(a: dict[str, list[dict]], b: dict[str, list[dict]]) -> bool:
    """Print each side's runs and failures; whether the sets can be compared."""
    sound = True
    for workload in sorted(set(a) | set(b)):
        cells = []
        for runs in (a.get(workload, []), b.get(workload, [])):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            wrong = sum(not r["correct"] for r in runs)
            cells.append(f"{len(runs)} runs, failed {failed}/{attempted}"
                         + (f", {wrong} NOT CORRECT" if wrong else ""))
            sound = sound and not wrong
        if len(a.get(workload, [])) != len(b.get(workload, [])):
            cells.append("RUN COUNTS DIFFER")
            sound = False
        print(f"# {workload:8s} A: {cells[0]};  B: {'; '.join(cells[1:])}")
    return sound


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]],
            metrics: list[dict], same_tree: bool) -> list[dict]:
    """One row per workload both sets ran and metric.

    ``same_tree`` says the sets are two takes of one tree (``--self``), so
    a per-seed count must agree between them too; two different trees may
    differ there, and are then judged against the bound like any metric.
    """
    rows = []
    for workload in a:
        if workload not in b:
            continue
        if same_tree:
            exact_sets = [a[workload] + b[workload]]
        else:
            exact_sets = [a[workload], b[workload]]
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            va = [r["metrics"][name] for r in a[workload]]
            vb = [r["metrics"][name] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = worse_by(ma, mb, better)
            widest = max(spread(va), spread(vb))
            if better == "lower":
                b_always_better = max(vb) < min(va)
            else:
                b_always_better = min(vb) > max(va)
            if name in EXACT_PER_SEED and any(
                    exact_mismatch(runs, name) for runs in exact_sets):
                verdict = "differs"
            elif widest > bound and not b_always_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "differs"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": ma, "b": mb, "n_a": len(va), "n_b": len(vb),
                "worse_by": worse, "bound": bound,
                "spread_a": spread(va), "spread_b": spread(vb),
                "verdict": verdict,
            })
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':8s} {'metric':28s} {'A (median)':>14s} "
          f"{'B (median)':>14s} {'unit':8s} {'B worse by':>10s} "
          f"{'bound':>6s} {'spread A':>9s} {'spread B':>9s} {'runs':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:8s} {r['metric']:28s} {r['a']:14.5f} "
              f"{r['b']:14.5f} {r['unit']:8s} {r['worse_by']:+10.2%} "
              f"{r['bound']:6.0%} {r['spread_a']:9.2%} {r['spread_b']:9.2%} "
              f"{r['n_a']:>3d}/{r['n_b']:<3d} {r['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="*", type=Path,
                        help="two directories of result-*.json files")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="collect two sets of the current tree and compare")
    parser.add_argument("--collect", type=Path, metavar="DIR",
                        help="collect one set into DIR and stop")
    parser.add_argument("--sweeps", type=int, default=5)
    parser.add_argument("--seeds", type=parse_seeds, default=[7],
                        help="one seed, a range 1-10 or a list 3,5,8; "
                             "sweep i takes seed i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.collect:
        collect(args.collect, spec, args.sweeps, args.seeds, args.seconds)
        return 0
    if args.self_check:
        stamp = "-".join(map(str, args.seeds[:1] + args.seeds[-1:]))
        sets = [HERE / "out" / f"self-{side}-seeds{stamp}" for side in "ab"]
        for path in sets:
            shutil.rmtree(path, ignore_errors=True)
            collect(path, spec, args.sweeps, args.seeds, args.seconds)
    elif len(args.sets) == 2:
        sets = args.sets
    else:
        parser.error("give two set directories, --self or --collect DIR")

    a, b = load_set(sets[0]), load_set(sets[1])
    sound = health(a, b)
    rows = compare(a, b, spec["end_to_end"], same_tree=args.self_check)
    print_rows(rows)
    return 0 if sound and all(r["verdict"] == "ok" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
