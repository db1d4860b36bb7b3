"""Smoke test of the end-to-end benchmark at the 2k-record scale.

Checks the contract of ``run.py`` — every name ``BENCHMARK.json`` lists
is printed with its unit, counts repeat for a seed and move with it —
and makes no assertion about any timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare as e2e_compare  # noqa: E402
import run as e2e_run  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

EXACT = (
    "recall_at_k",
    "stored_bytes_per_user_byte",
    "routing.groups_per_query",
    "walk.partitions_per_query",
    "walk.records_examined_per_query",
    "storage.partitions_read_per_query",
    "storage.bytes_read_per_query",
)
"""Metrics that are counts of the counted passes."""


def run_once(out: Path, workload: str, seed: int, trace: int) -> dict:
    """One smoke run in this process: exit code, printed lines, records."""
    before = set(out.glob("result-*.json"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = e2e_run.main([
            "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace), "--scale", "smoke", "--out", str(out),
        ])
    lines = stdout.getvalue().strip().splitlines()
    (result_file,) = set(out.glob("result-*.json")) - before
    return {
        "code": code,
        "table": lines[:-1],
        "final": json.loads(lines[-1]),
        "record": json.loads(result_file.read_text()),
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    done = {}
    for workload in WORKLOADS:
        done[workload, "first"] = run_once(out, workload, 7, 0)
        done[workload, "again"] = run_once(out, workload, 7, 0)
        done[workload, "other"] = run_once(out, workload, 8, 0)
        done[workload, "traced"] = run_once(out, workload, 7, 1)
    done["out"] = out
    return done


def test_spec_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("which, group", [("first", "end_to_end"),
                                          ("traced", "per_layer")])
def test_every_listed_metric_is_printed_with_its_unit(runs, workload, which,
                                                      group):
    run = runs[workload, which]
    final = run["final"]
    assert run["code"] == 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(final["metrics"]) == set(want)
    for name, entry in final["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == want[name]
        assert isinstance(entry["value"], float)
    # The table names the workload and gives every measured metric a unit.
    assert workload in run["table"][0]
    printed = {line.split()[0]: line.split()[2]
               for line in run["table"] if not line.startswith("#")}
    for name in run["record"]["metrics"]:
        assert printed[name] != "-", f"{name} printed without a unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(runs, workload):
    for name, entry in runs[workload, "first"]["final"]["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_move_with_it(runs, workload):
    def counts(which):
        metrics = runs[workload, which]["record"]["metrics"]
        return [metrics[name] for name in EXACT]

    assert counts("first") == counts("again")
    assert counts("first") != counts("other")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_carries_its_environment(runs, workload):
    env = runs[workload, "first"]["record"]["environment"]
    for key in ("nproc", "python", "numpy", "git_sha", "seed", "passes",
                "counted_passes", "samples_per_pass", "setup_repeats",
                "flush_policy"):
        assert key in env
    assert env["seed"] == 7


def test_traced_run_writes_spans_and_leaves_no_store(runs):
    out = runs["out"]
    for workload in WORKLOADS:
        trace = json.loads((out / f"trace-{workload}.json").read_text())
        spans = trace["spans"]
        roots = {s["id"] for s in spans if s["parent"] is None}
        assert roots and all(
            s["parent"] in roots for s in spans if s["parent"] is not None)
        assert all(s["end"] >= s["start"] for s in spans)
    assert not list(out.glob("work-*"))


def test_pass_count_follows_from_seconds_alone():
    from workloads import SCALES, WORKLOADS as CLASSES

    for cls in CLASSES.values():
        workload = cls(7, SCALES["full"], Path("unused"))
        assert workload.n_passes(20) == round(20 * cls.passes_per_s)
        assert workload.n_passes(0.1) == workload.counted_passes == 8


def test_answer_check_rejects_each_kind_of_wrong_answer():
    import oracle
    import numpy as np

    data = oracle.random_walk(50, 16, np.random.default_rng(0))
    query = data[3]
    ids = np.array([3, 4])
    dist = np.sqrt(((data[ids] - query) ** 2).sum(axis=1))
    assert oracle.check_answer(query, ids, dist, 2, data, 50) is None
    assert oracle.check_answer(query, ids, dist + 1e-3, 2, data, 50)
    assert oracle.check_answer(query, ids[::-1], dist[::-1], 2, data, 50)
    assert oracle.check_answer(query, np.array([3, 3]), dist[[0, 0]], 2,
                               data, 50)
    assert oracle.check_answer(query, ids, dist, 2, data, 4)
    assert oracle.check_answer(query, ids, dist, 1, data, 50)
    # Too few results is its own verdict, and only for an otherwise right
    # answer: nothing the program reports about the query excuses it.
    short = oracle.check_answer(query, ids[:1], dist[:1], 2, data, 50)
    assert short == oracle.SHORT_ANSWER
    wrong = oracle.check_answer(query, ids[:1], dist[:1] + 1e-3, 2, data, 50)
    assert wrong and wrong != oracle.SHORT_ANSWER


def test_short_answers_beyond_the_allowance_fail_the_run(tmp_path):
    from workloads import SCALES, WORKLOADS as CLASSES

    workload = CLASSES["lookup"](7, SCALES["smoke"], tmp_path)
    workload.make_inputs()
    workload.prepare()
    workload.run_pass(0)
    assert workload.is_correct()
    workload.short_queries.update(range(workload.scale.short_allowed + 1))
    assert workload.failed == 0 and not workload.is_correct()
    workload.close()


def fake_set(path: Path, seeds, recall: float, p50: float, correct=True):
    """A set of result files holding just what ``compare`` reads."""
    path.mkdir()
    for i, seed in enumerate(seeds):
        metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        metrics.update(recall_at_k=recall + seed / 1000, query_p50_ms=p50)
        (path / f"result-lookup-seed{seed}-trace0-{i}.json").write_text(
            json.dumps({"workload": "lookup", "trace": 0, "correct": correct,
                        "attempted": 100, "failed": 0 if correct else 3,
                        "metrics": metrics, "environment": {"seed": seed}}))
    return str(path)


def compare_sets(capsys, *argv):
    code = e2e_compare.main(list(argv))
    table = capsys.readouterr().out
    verdicts = {line.split()[1]: line.split()[-1]
                for line in table.splitlines() if line.startswith("lookup")}
    return code, verdicts, table


def test_compare_judges_two_trees_by_the_bound(tmp_path, capsys):
    parent = fake_set(tmp_path / "parent", [1, 2, 3], 0.300, 1.00)
    better = fake_set(tmp_path / "better", [1, 2, 3], 0.330, 1.10)
    worse = fake_set(tmp_path / "worse", [1, 2, 3], 0.270, 1.30)
    # Recall repeats per seed inside each set; between two trees it may
    # move, and an improvement is not a difference.
    code, verdicts, _ = compare_sets(capsys, parent, better)
    assert code == 0 and set(verdicts.values()) == {"ok"}
    code, verdicts, _ = compare_sets(capsys, parent, worse)
    assert code == 1
    assert verdicts["recall_at_k"] == verdicts["query_p50_ms"] == "differs"
    assert verdicts["query_per_s"] == "ok"


def test_compare_refuses_failed_runs_and_lopsided_sets(tmp_path, capsys):
    parent = fake_set(tmp_path / "parent", [1, 2, 3], 0.300, 1.00)
    failing = fake_set(tmp_path / "failing", [1, 2, 3], 0.300, 0.50,
                       correct=False)
    fewer = fake_set(tmp_path / "fewer", [1, 2], 0.300, 1.00)
    code, verdicts, table = compare_sets(capsys, parent, failing)
    assert code == 1 and set(verdicts.values()) == {"ok"}
    assert "failed 9/300" in table and "NOT CORRECT" in table
    code, _, table = compare_sets(capsys, parent, fewer)
    assert code == 1 and "RUN COUNTS DIFFER" in table


def test_compare_requires_one_tree_to_repeat_its_counts(tmp_path):
    first = e2e_compare.load_set(Path(
        fake_set(tmp_path / "first", [7, 7, 7], 0.300, 1.00)))
    again = e2e_compare.load_set(Path(
        fake_set(tmp_path / "again", [7, 7, 7], 0.301, 1.00)))

    def recall_verdict(same_tree):
        rows = e2e_compare.compare(first, again, SPEC["end_to_end"], same_tree)
        return next(r["verdict"] for r in rows if r["metric"] == "recall_at_k")

    assert recall_verdict(same_tree=True) == "differs"
    assert recall_verdict(same_tree=False) == "ok"
