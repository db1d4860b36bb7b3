"""TARDIS baseline: sigTree-based distributed iSAX indexing ([67], ICDE'19).

TARDIS builds a *sigTree*: a k-ary tree over iSAX-T words in which a node
split promotes the cardinality of **all** segments simultaneously, so a
node's children are the distinct refined words observed below it.  Leaves
are packed into physical partitions; queries descend the global tree and
search a single partition.

Compared to DPiSAX the simultaneous refinement preserves more context
per split (recall up to ~40% in the paper vs ~10%), and its word
operations are cheap, making construction slightly faster than CLIMBER's
pivot conversions (Fig. 8).
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
from repro.cluster import (
    ClusterSimulator,
    CostModel,
    TaskCost,
    ops_paa,
    partition_scan_cost,
)
from repro.exceptions import ConfigurationError
from repro.series import ISaxSpace, SeriesDataset, knn_bruteforce, paa_transform
from repro.storage import SimulatedDFS

__all__ = ["TardisConfig", "TardisIndex"]


@dataclass(frozen=True)
class TardisConfig:
    """Knobs of the TARDIS reproduction."""

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
class SigTreeNode:
    """A sigTree node: uniform-cardinality word of ``bits`` bits per segment."""

    bits: int
    word: tuple[int, ...]
    count: float = 0.0
    children: dict[tuple[int, ...], "SigTreeNode"] = field(default_factory=dict)
    partition: int = -1
    default_partition: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def key(self) -> str:
        """Cluster key of this node's records inside a partition."""
        return f"{self.bits}:" + ".".join(str(s) for s in self.word)

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children.values())


class TardisIndex:
    """A built TARDIS index: global sigTree + packed partitions."""

    def __init__(
        self,
        space: ISaxSpace,
        root: SigTreeNode,
        dfs: SimulatedDFS,
        model: CostModel,
        config: TardisConfig,
        build_sim_seconds: float,
        n_partitions: int,
    ) -> None:
        self.space = space
        self.root = root
        self.dfs = dfs
        self.model = model
        self.config = config
        self.build_sim_seconds = build_sim_seconds
        self.n_partitions = n_partitions

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: SeriesDataset,
        config: TardisConfig | None = None,
        model: CostModel | None = None,
        dfs: SimulatedDFS | None = None,
    ) -> "TardisIndex":
        config = config or TardisConfig()
        model = model or CostModel()
        dfs = dfs if dfs is not None else SimulatedDFS()
        rng = np.random.default_rng(config.seed)
        space = ISaxSpace(config.word_length, dataset.length, config.max_bits)
        capacity = config.capacity or dfs.block_records(dataset.length)

        sample = dataset.sample(config.sample_fraction, rng)
        alpha = sample.count / dataset.count
        sample_syms = space.encode_paa(
            paa_transform(sample.values, config.word_length)
        )

        # The sigTree splits down to *local leaf* granularity (the paper's
        # per-partition refinement), much finer than the partition capacity;
        # leaves are then packed into capacity-sized partitions.
        root = SigTreeNode(bits=0, word=(0,) * config.word_length,
                           count=sample.count / alpha)
        cls._split(root, sample_syms, np.arange(sample.count), space,
                   float(config.leaf_capacity), alpha)

        # Pack leaves into partitions *in word order* (next-fit): TARDIS
        # packs whole subtrees together, so sibling words — the closest
        # regions of the iSAX space — share a partition.  Packing by size
        # (FFD) would scatter siblings and wreck the single-partition
        # search's recall.
        leaves: list[SigTreeNode] = []

        def collect(node: SigTreeNode) -> None:
            if node.is_leaf:
                leaves.append(node)
                return
            for word in sorted(node.children):
                collect(node.children[word])

        collect(root)
        bins: list[list[SigTreeNode]] = []
        load = float("inf")
        for leaf in leaves:
            if load + leaf.count > capacity and not (load == 0.0):
                bins.append([])
                load = 0.0
            bins[-1].append(leaf)
            load += leaf.count
        for pid, bin_leaves in enumerate(bins):
            for leaf in bin_leaves:
                leaf.partition = pid
        cls._assign_defaults(root)

        # Route every record for real.
        all_syms = space.encode_paa(
            paa_transform(dataset.values, config.word_length)
        )
        clusters: dict[int, dict[str, list[int]]] = {}
        for i in range(dataset.count):
            node, complete = cls._descend(root, all_syms[i], space)
            if complete and node.is_leaf:
                pid, key = node.partition, node.key()
            else:
                pid, key = node.default_partition, node.key() + "/~"
            clusters.setdefault(pid, {}).setdefault(key, []).append(i)
        for pid in sorted(clusters):
            # Sorted keys, each cluster contiguous (paper §VI).
            header, rows = {}, []
            for key in sorted(clusters[pid]):
                header[key] = (len(rows), len(clusters[pid][key]))
                rows += clusters[pid][key]
            dfs.write_partition_arrays(
                f"tardis{pid}", dataset.ids, dataset.values, header,
                rows=np.array(rows, dtype=np.int64),
            )

        per_record_ops = ops_paa(dataset.length) + 16 * config.word_length
        report = simulate_distributed_build(
            model,
            dataset,
            cost_scale=config.cost_scale,
            n_chunks=config.n_input_partitions,
            sample_fraction=config.sample_fraction,
            per_record_ops=per_record_ops,
        )
        return cls(space, root, dfs, model, config,
                   report.total_seconds, len(bins))

    @classmethod
    def _split(
        cls,
        node: SigTreeNode,
        sample_syms: np.ndarray,
        rows: np.ndarray,
        space: ISaxSpace,
        capacity: float,
        alpha: float,
    ) -> None:
        if node.count <= capacity or node.bits >= space.max_bits:
            return
        bits = node.bits + 1
        shift = space.max_bits - bits
        words = sample_syms[rows] >> shift
        for word_row in np.unique(words, axis=0):
            mask = np.all(words == word_row, axis=1)
            child_rows = rows[mask]
            child = SigTreeNode(
                bits=bits,
                word=tuple(int(s) for s in word_row),
                count=child_rows.shape[0] / alpha,
            )
            node.children[child.word] = child
            cls._split(child, sample_syms, child_rows, space, capacity, alpha)

    @staticmethod
    def _assign_defaults(root: SigTreeNode) -> None:
        """Each internal node defaults to its largest descendant's partition."""

        def visit(node: SigTreeNode) -> tuple[int, float]:
            if node.is_leaf:
                node.default_partition = node.partition
                return node.partition, node.count
            best_pid, best_count = -1, -1.0
            for child in node.children.values():
                pid, count = visit(child)
                if count > best_count:
                    best_pid, best_count = pid, count
            node.default_partition = best_pid
            return best_pid, node.count

        visit(root)

    @staticmethod
    def _descend(
        root: SigTreeNode, symbol_row: np.ndarray, space: ISaxSpace
    ) -> tuple[SigTreeNode, bool]:
        """Follow refined words down; False if stuck before reaching a leaf."""
        node = root
        while not node.is_leaf:
            bits = node.bits + 1
            shift = space.max_bits - bits
            word = tuple(int(s) >> shift for s in symbol_row)
            child = node.children.get(word)
            if child is None:
                return node, False
            node = child
        return node, True

    @staticmethod
    def _descend_path(
        root: SigTreeNode, symbol_row: np.ndarray, space: ISaxSpace
    ) -> list[SigTreeNode]:
        """All nodes on the walk, root first, deepest reachable last."""
        path = [root]
        node = root
        while not node.is_leaf:
            bits = node.bits + 1
            shift = space.max_bits - bits
            word = tuple(int(s) >> shift for s in symbol_row)
            child = node.children.get(word)
            if child is None:
                break
            node = child
            path.append(node)
        return path

    @staticmethod
    def _covers(node: SigTreeNode, kbits: int, ksyms: tuple[int, ...]) -> bool:
        """True if a cluster key at (kbits, ksyms) lies under ``node``."""
        if kbits < node.bits:
            return False
        return all(
            (s >> (kbits - node.bits)) == wsym
            for s, wsym in zip(ksyms, node.word)
        )

    # -- introspection ------------------------------------------------------------

    @property
    def global_index_nbytes(self) -> int:
        """sigTree size: the paper's widest global index (Fig. 8(b))."""
        return self.root.node_count() * (2 * self.space.word_length + 12)

    # -- query ------------------------------------------------------------------------

    def knn(self, query: np.ndarray, k: int) -> BaselineResult:
        """Approximate kNN: descend the sigTree, search one partition."""
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        t0 = time.perf_counter()
        sim = ClusterSimulator(self.model)
        q_syms = self.space.encode_paa(
            paa_transform(query.reshape(1, -1), self.config.word_length)
        )[0]
        path = self._descend_path(self.root, q_syms, self.space)
        node = path[-1]
        complete = node.is_leaf
        pid = node.partition if complete else node.default_partition
        sim.run_driver_step(
            "query/route",
            TaskCost(cpu_ops=32 * self.space.word_length),
        )
        pname = f"tardis{pid}"
        if pid < 0 or not self.dfs.has_partition(pname):
            sim.run_stage("query/scan", [])
            report = sim.fresh_report()
            return BaselineResult(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                BaselineStats("TARDIS", k, (), 0, 0,
                              report.total_seconds, time.perf_counter() - t0),
            )
        part = self.dfs.read_partition(pname)
        parsed_keys = []
        for key in part.cluster_keys():
            bits_str, syms_str = key.rstrip("/~").split(":")
            parsed_keys.append(
                (key, int(bits_str), tuple(int(s) for s in syms_str.split(".")))
            )
        # TARDIS's kNN-g: candidates come from the reached node's clusters;
        # if those hold fewer than k records, expand one level (to the
        # sibling subtree under the parent) — never further.  Still short?
        # Fall back to the whole (single) partition.
        ids = vals = None
        anchors = list(reversed(path))[:2]
        for anchor in anchors:
            keys = [key for key, kbits, ksyms in parsed_keys
                    if self._covers(anchor, kbits, ksyms)]
            if keys:
                ids, vals = part.read_clusters(keys)
                if ids.shape[0] >= k:
                    break
        if ids is None or ids.shape[0] < k:  # expand to the whole partition
            ids, vals = part.read_clusters(part.cluster_keys())
        out_ids, out_d = knn_bruteforce(query, vals, ids, k)
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
                system="TARDIS",
                k=k,
                partitions_loaded=(pname,),
                records_examined=int(ids.shape[0]),
                data_bytes=part.nbytes,
                sim_seconds=report.total_seconds,
                wall_seconds=time.perf_counter() - t0,
            ),
        )
