"""Vectorised query-time routing engine (Algorithm 3 lines 5-19).

Routing a query means comparing its P4 signature against *every* group
centroid — Overlap Distance to find the best-matching groups, Weight
Distance to break ties.  Done naively that is O(groups) Python set algebra
per query; at paper scale (hundreds of groups, heavy query traffic) it
dominates single-query latency.

:class:`RoutingTable` precomputes, once per :class:`~repro.core.index.ClimberIndex`
(and again on ``reopen``, which goes through the same constructor):

* a ``(n_pivots, n_groups)`` uint8 centroid membership table, and the
  centroids as Python-int bitsets,
* the fall-back mask,
* the decay-weight vector and its total weight,

so that routing one query — or a whole batch — is one gather of the
membership table for the OD rows of the distinct signatures
(:meth:`RoutingTable.od_matrix`) plus Weight Distances for the few groups
at the best OD (:meth:`RoutingTable.candidates`).  The
engine is *parity-exact* with the scalar path it replaced: identical OD/WD
values bit-for-bit, identical candidate ordering (OD → WD → group id) and
the same tie-break cascade (WD → path length → node size → seeded random,
consuming the RNG stream identically).  The seed's per-group routing is
kept in ``tests/oracles.py`` as the reference the parity tests compare
against.

The table also owns the step after routing, :meth:`RoutingTable.plan`:
which trie nodes a variant searches and which partitions and clusters
cover them.  Candidates and plans trade in *flat node ids* of the
skeleton's tries (:mod:`repro.core.trie_flat`) — ints and floats, no
node objects — so planning is separable from reading and scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.skeleton import GroupEntry, IndexSkeleton, partition_name
from repro.exceptions import ConfigurationError
from repro.pivots import total_weight, wd_tie_tolerance

__all__ = ["GroupCandidate", "RoutingTable", "select_primary"]


@dataclass(frozen=True)
class GroupCandidate:
    """One group considered during routing, with its match diagnostics."""

    entry: GroupEntry
    od: int
    wd: float
    path: tuple[int, ...]
    """Flat ids (pre-order, root = 0) of the nodes the query's walk of the
    group's trie visits, root first: a node's depth is its position."""
    gn_count: float
    """Estimated record count under Node GN."""

    @property
    def gn(self) -> int:
        """The deepest trie node reached by the query (Node GN)."""
        return self.path[-1]

    @property
    def path_len(self) -> int:
        return len(self.path) - 1


class RoutingTable:
    """Precomputed arrays that make group routing a few NumPy ops.

    Parameters
    ----------
    skeleton:
        The index skeleton whose groups are routed over.
    weights:
        ``(m,)`` decay weights of Def. 9 (the index's configured decay).
    """

    def __init__(self, skeleton: IndexSkeleton, weights: np.ndarray) -> None:
        self.skeleton = skeleton
        # The walks of candidate construction and the subtree lookups of
        # planning read the flat tries' tables.
        self.flat = skeleton.flat_router()
        m = skeleton.prefix_length
        self.prefix_length = m
        self.n_pivots = skeleton.n_pivots
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (m,):
            raise ConfigurationError("weights length must equal prefix_length")
        self.total_weight = total_weight(self.weights)
        self.n_groups = len(skeleton.groups)
        self.fallback_mask = skeleton.fallback_mask()
        # members[p, g] = 1 iff pivot p is in group g's centroid; the
        # fall-back groups' columns stay zero, so they score OD m.
        self._members = np.zeros((self.n_pivots, self.n_groups), dtype=np.uint8)
        for i, g in enumerate(skeleton.groups):
            self._members[list(g.centroid), i] = 1
        # An overlap is at most m, so it is summed in the narrowest type
        # that holds m (uint8 for any practical m): several times faster
        # than an int64 sum over the (q, m, n_groups) gather.
        self._overlap_dtype = np.min_scalar_type(m)
        # Python-int bitsets and weights for the Weight Distances of the
        # few chosen groups, where fixed NumPy call overhead would exceed
        # the actual work.
        self._centroid_bits = [
            sum(1 << p for p in g.centroid) for g in skeleton.groups
        ]
        self._weights_list = [float(w) for w in self.weights]

    # -- overlap distances -------------------------------------------------------

    def _check(self, ranked: np.ndarray) -> np.ndarray:
        """``ranked`` as a ``(q, m)`` int64 matrix of valid signatures."""
        arr = np.asarray(ranked, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.prefix_length:
            raise ConfigurationError(
                f"expected (q, {self.prefix_length}) ranked signatures"
            )
        for sig in arr.tolist():
            self._check_sig(sig)
        return arr

    def _check_sig(self, sig: list[int] | tuple[int, ...]) -> None:
        """Refuse a signature that is not ``m`` distinct pivot ids.

        An id outside ``[0, n_pivots)`` would wrap in the membership
        gather or alias another node's edge in the trie walk, and a
        repeated id would be counted twice by the overlap.  Plain Python
        over ``m`` ints: cheaper than any array check for the rows of a
        query.
        """
        if (
            len(sig) != self.prefix_length
            or len(set(sig)) != len(sig)
            or min(sig) < 0
            or max(sig) >= self.n_pivots
        ):
            raise ConfigurationError(
                f"a signature must be {self.prefix_length} distinct pivot "
                f"ids in [0, {self.n_pivots}), got {list(sig)}"
            )

    def od_matrix(self, ranked: np.ndarray) -> np.ndarray:
        """``(q, n_groups)`` int64 Overlap Distances for signature rows.

        One gather of the membership table by the signatures' pivot ids
        counts each row's overlap with every centroid — exact, because a
        checked signature holds distinct ids.  Fall-back groups get OD
        ``m`` (no overlap by definition), exactly as the scalar path
        scored them.
        """
        arr = self._check(ranked)
        overlap = self._members[arr].sum(axis=1, dtype=self._overlap_dtype)
        return (self.prefix_length - overlap).astype(np.int64)

    # -- candidate selection -----------------------------------------------------

    def candidates(
        self,
        ranked_sig: np.ndarray,
        od_row: np.ndarray,
        od_slack: int = 0,
    ) -> list[GroupCandidate]:
        """Groups at (or near) the smallest OD, ordered by (OD, WD, id).

        ``od_row`` is the signature's row of :meth:`od_matrix`.  Weight
        Distances are computed lazily for just the chosen groups — the
        full ``(q, n_groups)`` WD matrix is where the scalar path spent
        most of its time — and only those (few) groups pay for a Python
        trie walk.  Single queries and batch rows take this same path.
        """
        sig = tuple(int(p) for p in ranked_sig)
        self._check_sig(sig)
        m = self.prefix_length
        groups = self.skeleton.groups
        best = int(od_row[1:].min()) if self.n_groups > 1 else m
        if best >= m:
            chosen = [0]
            wds = [self.total_weight]
        else:
            limit = min(best + od_slack, m - 1)
            chosen = np.flatnonzero(
                (od_row <= limit) & ~self.fallback_mask
            ).tolist()
            # Rank-ordered accumulation over the centroid bitset: the
            # same additions, in the same order, as the scalar
            # weight_distance — bit-identical, no array overhead.
            wds = []
            for i in chosen:
                bits = self._centroid_bits[i]
                matched = 0.0
                for p, w in zip(sig, self._weights_list):
                    if (bits >> p) & 1:
                        matched += w
                wds.append(self.total_weight - matched)
        out = []
        flat_tries = self.flat.tries
        for i, wd in zip(chosen, wds):
            ft = flat_tries[i]
            path = tuple(ft.descend_path_ids(sig))
            out.append(GroupCandidate(
                groups[i], int(od_row[i]), wd, path, ft.count[path[-1]]
            ))
        out.sort(key=lambda c: (c.od, c.wd, c.entry.group_id))
        return out

    # -- planning ----------------------------------------------------------------

    def plan(
        self,
        variant: str,
        primary: GroupCandidate,
        candidates: list[GroupCandidate],
        k: int,
        factor: int,
    ) -> tuple[int, dict[str, list[str]]]:
        """The trie nodes a variant searches and the reads covering them.

        Returns ``(n_selected_nodes, {base partition name: [cluster keys
        wanted]})``.  CLIMBER-kNN searches Node GN of the primary group,
        OD-Smallest the root of every candidate group, the adaptive
        variant GN plus memorised runner-up nodes when GN holds fewer
        than ``k`` records (``factor`` is its partition budget).  Nothing
        is read: a plan is a pure function of its arguments and the
        flat tries.
        """
        if variant == "od-smallest":
            selected = [(c.entry.group_id, 0) for c in candidates]
        elif variant == "adaptive" and primary.gn_count < k:
            selected = self._expand_adaptive(primary, candidates, k, factor)
        else:
            selected = [(primary.entry.group_id, primary.gn)]
        to_load: dict[str, list[str]] = {}
        for gid, node in selected:
            ft = self.flat.tries[gid]
            pids, keys = ft.subtree(node)
            if node == 0 or not ft.is_leaf[node]:
                # A root or internal selection also covers the group's
                # default cluster: records whose signatures could not
                # complete a root-to-leaf walk stalled at some internal
                # node — exactly like the query that selected this one.
                pids = sorted({*pids, self.skeleton.groups[gid].default_partition})
                keys = keys + [ft.default_key]
            for pid in pids:
                to_load.setdefault(partition_name(pid), []).extend(keys)
        return len(selected), to_load

    def _expand_adaptive(
        self,
        primary: GroupCandidate,
        candidates: list[GroupCandidate],
        k: int,
        factor: int,
    ) -> list[tuple[int, int]]:
        """CLIMBER-kNN-Adaptive node expansion, as ``(group id, node id)``.

        Starting from the primary GN, add memorised runner-up nodes (other
        best-OD groups' GNs first, then ancestors, deepest first) until the
        estimated record count covers k, keeping the partition budget at
        ``factor`` times CLIMBER-kNN's partition count.  Pre-order ids make
        "inside subtree ``s``" the interval test ``s <= n < subtree_end[s]``.
        """
        tries = self.flat.tries
        gid = primary.entry.group_id
        primary_pids = tries[gid].subtree(primary.gn)[0]
        budget = factor * max(1, len(primary_pids))
        selected = [(gid, primary.gn)]
        selected_pids = {(gid, pid) for pid in primary_pids}
        total = primary.gn_count
        # (group, depth) names a pool node, so the tuples sort strictly.
        pool = sorted(
            (c.od, c.wd, -depth, c.entry.group_id, node)
            for c in candidates
            for depth, node in enumerate(c.path)
        )
        for _, _, _, g, node in pool:
            if total >= k:
                break
            ft = tries[g]
            if any(sg == g and s <= node < ft.subtree_end[s]
                   for sg, s in selected):
                continue
            new_pids = selected_pids | {(g, pid) for pid in ft.subtree(node)[0]}
            if len(new_pids) > budget:
                continue
            # An ancestor replaces its selected descendants; only the
            # difference is new.
            end = ft.subtree_end[node]
            inside = [(sg, s) for sg, s in selected if sg == g and node <= s < end]
            added = ft.count[node] - sum(ft.count[s] for _, s in inside)
            selected = [pair for pair in selected if pair not in inside]
            selected.append((g, node))
            selected_pids = new_pids
            total += max(0.0, added)
        return selected


def select_primary(
    candidates: list[GroupCandidate],
    rng: np.random.Generator,
    wd_tol: float | None = None,
) -> GroupCandidate:
    """Tie-breaking of Algorithm 3 lines 7-19: WD, path length, node size.

    Only groups at the strictly smallest OD compete for primary; slack
    candidates exist purely for adaptive expansion.  Consumes one RNG draw
    iff the full cascade still leaves a tie — the same stream positions as
    the scalar implementation.

    ``wd_tol`` is the WD tie tolerance; callers that know the Total Weight
    pass :func:`repro.pivots.wd_tie_tolerance` of it, otherwise the
    tolerance is anchored to the candidates' own WD scale (which reduces
    to the historical absolute ``1e-12`` for unit-scale decay weights).
    """
    if not candidates:
        raise ConfigurationError("no candidate groups")
    # Candidate lists are tiny (usually 1-3 entries), so plain list
    # filtering beats array construction here; the heavy lifting already
    # happened in the OD/WD matrices these values came from.
    if wd_tol is None:
        wd_tol = wd_tie_tolerance(max(abs(c.wd) for c in candidates))
    best_od = min(c.od for c in candidates)
    tied = [c for c in candidates if c.od == best_od]
    best_wd = min(c.wd for c in tied)
    tied = [c for c in tied if c.wd <= best_wd + wd_tol]
    if len(tied) > 1:
        longest = max(c.path_len for c in tied)
        tied = [c for c in tied if c.path_len == longest]
    if len(tied) > 1:
        largest = max(c.gn_count for c in tied)
        tied = [c for c in tied if c.gn_count == largest]
    if len(tied) > 1:
        return tied[int(rng.integers(0, len(tied)))]
    return tied[0]
