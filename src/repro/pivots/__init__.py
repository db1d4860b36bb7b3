"""Pivot machinery: selection, permutations, P4 dual signatures, metrics."""

from repro.pivots.distances import (
    DecayKind,
    check_pivot_rows,
    decay_weights,
    kendall_tau,
    membership_table,
    overlap_counts,
    overlap_distance,
    spearman_footrule,
    total_weight,
    wd_tie_tolerance,
    weight_distance,
)
from repro.pivots.permutation import (
    full_permutations,
    permutation_prefixes,
    pivot_distance_matrix,
)
from repro.pivots.selection import (
    select_farthest_first_pivots,
    select_random_pivots,
)
from repro.pivots.signatures import (
    DualSignature,
    rank_insensitive,
)

__all__ = [
    "select_random_pivots",
    "select_farthest_first_pivots",
    "pivot_distance_matrix",
    "full_permutations",
    "permutation_prefixes",
    "DualSignature",
    "rank_insensitive",
    "overlap_distance",
    "check_pivot_rows",
    "membership_table",
    "overlap_counts",
    "decay_weights",
    "total_weight",
    "weight_distance",
    "wd_tie_tolerance",
    "spearman_footrule",
    "kendall_tau",
    "DecayKind",
]
