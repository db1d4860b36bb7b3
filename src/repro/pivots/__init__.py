"""Pivot machinery: selection, permutations, P4 dual signatures, metrics."""

from repro.pivots.distances import (
    DecayKind,
    centroid_membership,
    decay_weights,
    kendall_tau,
    overlap_distance,
    overlap_distance_matrix,
    spearman_footrule,
    total_weight,
    wd_tie_tolerance,
    weight_distance,
    weight_distance_matrix,
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
    pack_pivot_sets,
    rank_insensitive,
    words_for,
)

__all__ = [
    "select_random_pivots",
    "select_farthest_first_pivots",
    "pivot_distance_matrix",
    "full_permutations",
    "permutation_prefixes",
    "DualSignature",
    "rank_insensitive",
    "pack_pivot_sets",
    "words_for",
    "overlap_distance",
    "overlap_distance_matrix",
    "decay_weights",
    "centroid_membership",
    "total_weight",
    "weight_distance",
    "weight_distance_matrix",
    "wd_tie_tolerance",
    "spearman_footrule",
    "kendall_tau",
    "DecayKind",
]
