"""CLIMBER core: the paper's primary contribution.

Feature extraction (CLIMBER-FX) lives in :mod:`repro.series` (PAA) and
:mod:`repro.pivots` (P4 signatures); this package assembles them into the
two-level index (CLIMBER-INX) and the query algorithms (CLIMBER-kNN,
CLIMBER-kNN-Adaptive, OD-Smallest).
"""

from repro.core.assignment import AssignmentResult, GroupAssigner
from repro.core.builder import BuildArtifacts, build_index_artifacts
from repro.core.centroids import FALLBACK_CENTROID, compute_centroids
from repro.core.config import PAPER_DEFAULTS, ClimberConfig, parse_early_stop
from repro.core.index import ClimberIndex, GroupCandidate, QueryResult, QueryStats
from repro.core.packing import first_fit, first_fit_decreasing, one_per_bin
from repro.core.progressive import ProgressiveUpdate
from repro.core.skeleton import (
    DEFAULT_CLUSTER_SUFFIX,
    GroupEntry,
    IndexSkeleton,
    SkeletonWithPivots,
    cluster_key,
    partition_name,
)
from repro.core.trie_flat import FlatTrie, FlatTrieRouter

__all__ = [
    "ClimberConfig",
    "PAPER_DEFAULTS",
    "ClimberIndex",
    "QueryResult",
    "QueryStats",
    "GroupCandidate",
    "ProgressiveUpdate",
    "parse_early_stop",
    "GroupAssigner",
    "AssignmentResult",
    "compute_centroids",
    "FALLBACK_CENTROID",
    "FlatTrie",
    "FlatTrieRouter",
    "DEFAULT_CLUSTER_SUFFIX",
    "first_fit_decreasing",
    "first_fit",
    "one_per_bin",
    "GroupEntry",
    "IndexSkeleton",
    "SkeletonWithPivots",
    "cluster_key",
    "partition_name",
    "BuildArtifacts",
    "build_index_artifacts",
]
