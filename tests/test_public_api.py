"""Tests for the top-level package surface."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_climber_exports(self):
        assert repro.ClimberIndex is not None
        assert repro.ClimberConfig is not None
        assert repro.QueryResult is not None

    def test_dataset_exports(self):
        ds = repro.random_walk_dataset(10, 16, seed=1)
        assert isinstance(ds, repro.SeriesDataset)
        assert repro.make_dataset("DNA", 5).count == 5

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_end_to_end_via_top_level(self):
        ds = repro.random_walk_dataset(500, 32, seed=2)
        cfg = repro.ClimberConfig(word_length=8, n_pivots=16, prefix_length=4,
                                  capacity=100, sample_fraction=0.3,
                                  n_input_partitions=8)
        index = repro.ClimberIndex.build(ds, cfg)
        res = index.knn(ds.values[0], 5)
        assert len(res.ids) == 5

    def test_exceptions_importable(self):
        assert issubclass(repro.MemoryBudgetExceeded, repro.ReproError)
        assert issubclass(repro.ConfigurationError, repro.ReproError)

    def test_storage_fault_exceptions_importable(self):
        # PR 8: the resilience error taxonomy is part of the public API.
        assert issubclass(repro.PartitionCorruptError, repro.StorageError)
        assert issubclass(repro.PartitionLostError, repro.StorageError)
        assert issubclass(repro.TransientReadError, repro.StorageError)
        assert issubclass(repro.ReadTimeoutError, repro.StorageError)

    def test_resilience_exports(self):
        plan = repro.FaultPlan(seed=7, transient_rate=0.1)
        assert plan.active
        assert repro.FaultInjector is not None
        assert repro.RetryPolicy().max_attempts >= 1
        for name in ("FaultPlan", "FaultInjector", "RetryPolicy"):
            assert name in repro.__all__

    def test_chaos_config_knobs(self):
        # Storage knobs live on the DFS the caller passes; the degraded-
        # query mode and telemetry sampling on the config.
        from repro.storage import SimulatedDFS

        dfs = SimulatedDFS(
            fault_plan=repro.FaultPlan(seed=3),
            retry_policy=repro.RetryPolicy(max_attempts=2),
        )
        cfg = repro.ClimberConfig(
            word_length=8, n_pivots=16, prefix_length=4, capacity=100,
            sample_fraction=0.3, n_input_partitions=8,
            on_partition_failure="skip",
            telemetry_sample_every=8,
        )
        index = repro.ClimberIndex.build(
            repro.random_walk_dataset(500, 32, seed=2), cfg, dfs=dfs
        )
        assert index.dfs is dfs
        assert dfs.fault_injector.plan.seed == 3
        assert dfs.retry_policy.max_attempts == 2
        assert index.config.on_partition_failure == "skip"


#: The whole of ``ClimberConfig``.  A 20th field is a reviewed decision
#: (DESIGN.md D5), not a side effect of a feature.
CONFIG_FIELDS = {
    "word_length", "n_pivots", "prefix_length", "capacity",
    "sample_fraction", "min_centroid_separation", "max_centroids", "decay",
    "decay_rate", "adaptive_factor", "seed", "n_input_partitions",
    "cost_scale", "sim_partition_bytes", "n_workers", "telemetry",
    "telemetry_sample_every", "on_partition_failure", "early_stop",
}


#: The integer fields of ``ClimberConfig``; the ``| None`` ones may also
#: be ``None`` (unset).
INTEGER_FIELDS = (
    "word_length", "n_pivots", "prefix_length", "capacity",
    "min_centroid_separation", "max_centroids", "adaptive_factor", "seed",
    "n_input_partitions", "sim_partition_bytes", "n_workers",
    "telemetry_sample_every",
)

#: The float fields of ``ClimberConfig``; ``decay_rate`` may also be
#: ``None`` (unset).
FLOAT_FIELDS = ("sample_fraction", "decay_rate", "cost_scale")


def test_config_surface():
    fields = dataclasses.fields(repro.ClimberConfig)
    assert {f.name for f in fields} == CONFIG_FIELDS
    # Every knob a query or build resolves against holds a concrete value.
    cfg = repro.ClimberConfig()
    assert (cfg.n_workers, cfg.on_partition_failure, cfg.early_stop) \
        == (1, "raise", "off")
    for n_workers in (None, 0):
        with pytest.raises(repro.ConfigurationError):
            repro.ClimberConfig(n_workers=n_workers)
    # Every integer field takes a Python or NumPy integer and nothing else:
    # a float or a bool is refused here, not truncated or cast later.
    for name in INTEGER_FIELDS:
        for bad in (2.5, 24.0, True):
            with pytest.raises(repro.ConfigurationError, match=name):
                repro.ClimberConfig(**{name: bad})
    assert repro.ClimberConfig(
        n_workers=np.int64(2), seed=np.int32(3), capacity=np.int64(150)
    ).n_workers == 2
    # A float field takes a finite real number — a Python or NumPy float
    # or integer — and never a bool, a string, a NaN or an infinity.
    for name in FLOAT_FIELDS:
        for bad in (True, np.bool_(False), "0.5", float("nan"),
                    float("inf"), -np.inf):
            with pytest.raises(repro.ConfigurationError, match=name):
                repro.ClimberConfig(**{name: bad})
    assert repro.ClimberConfig(sample_fraction=np.float32(0.5),
                               cost_scale=2, decay_rate=0.25).cost_scale == 2
    # A bool field takes a bool and nothing truthy in its place.
    for bad in ("no", 1, 0, None, np.bool_(True)):
        with pytest.raises(repro.ConfigurationError, match="telemetry"):
            repro.ClimberConfig(telemetry=bad)
    # The seed is a non-negative integer; the decay is one of its kinds.
    with pytest.raises(repro.ConfigurationError, match="seed"):
        repro.ClimberConfig(seed=-1)
    for bad in ("quadratic", None, 1):
        with pytest.raises(repro.ConfigurationError, match="decay"):
            repro.ClimberConfig(decay=bad)
    assert repro.ClimberConfig(seed=0, decay="linear").decay == "linear"
    # The retired routes are gone, not deprecated.
    for retired in ({"fault_plan": repro.FaultPlan(seed=3)},
                    {"executor": "thread"}):
        with pytest.raises(TypeError):
            repro.ClimberConfig(**retired)


@pytest.mark.parametrize("decay, rate", [
    ("exponential", 0.0), ("exponential", 1.0), ("exponential", 1.5),
    ("exponential", -1.0), ("linear", 0.0), ("linear", -0.5),
])
def test_config_refuses_a_decay_rate_outside_its_range(decay, rate):
    # Refused where the config is made, not by the build that uses it.
    with pytest.raises(repro.ConfigurationError, match="decay_rate"):
        repro.ClimberConfig(decay=decay, decay_rate=rate)
    in_range = {"exponential": 0.75, "linear": 2.0}[decay]
    assert repro.ClimberConfig(decay=decay, decay_rate=in_range).decay_rate \
        == in_range


#: The whole of ``QueryStats``: what a query measured and counted.  No
#: modelled clock — that is ``repro.evaluation.modeled_query_seconds``,
#: computed from these on demand (DESIGN.md D7); a model creeping back
#: into the answer is a reviewed decision.
QUERY_STATS_FIELDS = {
    "variant", "k", "best_od", "group_ids", "path_len", "gn_size",
    "n_selected_nodes", "partitions_loaded", "data_bytes",
    "records_examined", "expanded_within_partition", "wall_seconds",
    "partitions_failed", "partitions_forgone", "stage_seconds",
    "cache_hits", "cache_misses",
}


def test_query_stats_surface():
    from repro.core import QueryStats

    assert {f.name for f in dataclasses.fields(QueryStats)} == QUERY_STATS_FIELDS


def test_builder_models_nothing():
    """The build runs no cost model: ``repro.core.builder`` imports nothing
    from ``repro.cluster``, and what a build would cost is
    ``repro.evaluation.modeled_build_seconds`` (DESIGN.md D10)."""
    import repro.core.builder as builder

    tree = ast.parse(Path(builder.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[:2] == ["repro", "cluster"]] == []


def test_library_reads_no_environment():
    """A run is a function of its stated parameters: nothing under
    ``src/repro`` looks at the process environment."""
    banned = {"environ", "environb", "getenv", "getenvb"}
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                hit = (isinstance(node.value, ast.Name)
                       and node.value.id == "os" and node.attr in banned)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "os" and any(
                    alias.name in banned for alias in node.names
                )
            else:
                continue
            if hit:
                offenders.append(f"{path}:{node.lineno}")
    assert offenders == []


#: Names of the reference implementations ``tests/oracles.py`` keeps.
ORACLE_NAMES = {"TrieNode", "build_group_trie", "scalar_group_candidates"}


def test_references_live_in_tests_only():
    """``src/repro`` ships no reference implementation and reaches none:
    no module imports ``tests`` or ``oracles``, and no package exports a
    ``*_reference`` or one of the pointer-trie oracles (DESIGN.md D4, D9)."""
    import importlib

    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("tests", "oracles", "conftest")
                   for m in modules):
                offenders.append(f"{path}:{node.lineno}")
        if path.name == "__init__.py":
            package = ".".join(
                ("repro",) + path.parent.relative_to(root).parts
            )
            for name in getattr(importlib.import_module(package),
                                "__all__", ()):
                if name.endswith("_reference") or name in ORACLE_NAMES:
                    offenders.append(f"{package}.{name}")
    assert offenders == []


def test_stop_rule_is_a_streak_and_nothing_calibrates_it():
    """``early_stop`` is ``"off"`` or a streak (DESIGN.md D19): the
    ``confidence`` rule, its calibration, sidecar and store stamp are
    gone, not deprecated."""
    import importlib

    import repro.core
    import repro.core.progressive
    import repro.evaluation
    import repro.exceptions

    index = repro.ClimberIndex.build(
        repro.random_walk_dataset(200, 32, seed=2),
        repro.ClimberConfig(word_length=8, n_pivots=16, prefix_length=4,
                            capacity=100, sample_fraction=0.3),
    )
    gone = [
        (repro, ("StaleCalibrationError",)),
        (repro.exceptions, ("StaleCalibrationError",)),
        (repro.core, ("ProgressiveCalibration", "StopRule",
                      "resolve_stop_rule")),
        (repro.core.progressive, ("ProgressiveCalibration", "StopRule",
                                  "resolve_stop_rule", "store_stamp",
                                  "CALIBRATION_SCHEMA")),
        (repro.evaluation, ("calibrate_early_stop",)),
        (index, ("attach_calibration", "calibration")),
    ]
    for owner, names in gone:
        for name in names:
            assert not hasattr(owner, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.evaluation.calibration")
    with pytest.raises(repro.ConfigurationError, match="'streak:<s>'"):
        repro.ClimberConfig(early_stop="confidence:0.9")


def test_package_example_runs():
    """The example in ``repro``'s docstring is run, not just read."""
    import doctest

    result = doctest.testmod(repro, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0 and result.failed == 0


def test_every_exported_name_resolves():
    """``from <package> import *`` works: each name a package lists in
    ``__all__`` is one it has."""
    import importlib

    root = Path(repro.__file__).parent
    missing = []
    for path in sorted(root.rglob("__init__.py")):
        package = importlib.import_module(".".join(
            ("repro",) + path.parent.relative_to(root).parts))
        missing += [f"{package.__name__}.{name}"
                    for name in getattr(package, "__all__", ())
                    if not hasattr(package, name)]
    assert missing == []


def test_one_partition_model():
    """Partitions have one encoder, one write call and one reader
    (DESIGN.md D20): the in-memory partition model, its encoder, its write
    call, the second size accessor and the view's mirror readers are
    gone, not deprecated."""
    import importlib
    import inspect

    import repro.storage
    import repro.storage.engine
    import repro.storage.engine.format
    from repro.storage import PartitionV2View, SimulatedDFS, StorageEngine

    gone = [
        (repro.storage, ("PartitionFile", "encode_partition_v2")),
        (repro.storage.engine, ("encode_partition_v2",)),
        (repro.storage.engine.format, ("encode_partition_v2",
                                       "PartitionFile")),
        (SimulatedDFS, ("write_partition",)),
        (StorageEngine, ("physical_nbytes",)),
        (PartitionV2View, ("read_cluster", "read_all", "ids", "values",
                           "cluster_sizes")),
    ]
    for owner, names in gone:
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.storage.partition")
    # The DFS keeps its own metrics registry; there is no knob for it.
    params = inspect.signature(SimulatedDFS).parameters
    assert "registry" not in params and len(params) == 5
    assert SimulatedDFS().registry is not None
