"""Distance functions over raw data series.

The Euclidean distance (Def. 3) is the similarity measure the paper uses
end-to-end: for ground truth, for the final record-level refinement inside
partitions, and between PAA signatures and pivots.  Everything here is
vectorised; the chunked scan is the workhorse of exact search over datasets
that do not comfortably fit one ``(d, n)`` temporary.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.series.series import as_matrix

__all__ = [
    "euclidean",
    "squared_euclidean",
    "pairwise_euclidean",
    "sq_norms",
    "block_scores",
    "knn_select",
    "knn_bruteforce",
    "knn_merge",
]


def euclidean(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean distance between two equal-length series (Def. 3)."""
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.shape != yv.shape:
        raise ValueError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return float(np.sqrt(np.sum((xv - yv) ** 2)))


def squared_euclidean(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all query/data row pairs.

    Uses the ``||a-b||^2 = ||a||^2 - 2 a.b + ||b||^2`` expansion so the bulk
    of the work is a single matrix multiplication.

    Returns
    -------
    numpy.ndarray
        ``(n_queries, n_data)`` matrix; tiny negative values from floating
        point cancellation are clipped to zero.
    """
    q = as_matrix(queries)
    d = as_matrix(data)
    if q.shape[1] != d.shape[1]:
        raise ValueError(
            f"length mismatch: queries have n={q.shape[1]}, data n={d.shape[1]}"
        )
    sq_q = sq_norms(q)[:, None]
    sq_d = sq_norms(d)[None, :]
    cross = q @ d.T
    out = sq_q + sq_d - 2.0 * cross
    np.maximum(out, 0.0, out=out)
    return out


def pairwise_euclidean(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Euclidean distances between all query/data row pairs."""
    return np.sqrt(squared_euclidean(queries, data))


def sq_norms(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``‖v‖²`` of every row ``v`` of a 2-D float64 ``block``.

    The one norm kernel: the partition writer stores its result beside
    each record (into ``out``, the partition's norms section) and every
    query-time score adds what was stored.  A row's norm does not depend
    on the rows around it or on where the block lies in memory, so the
    stored norm equals this kernel over the row as any reader maps it.
    """
    return np.einsum("ij,ij->i", block, block, out=out)


def block_scores(
    block: np.ndarray, neg2q: np.ndarray, norms: np.ndarray | None = None
) -> np.ndarray:
    """Scoring step: ``‖v‖² − 2 v·q`` for every row ``v`` of ``block``.

    That is the squared distance to ``q`` less ``‖q‖²``, a constant
    :func:`knn_select` adds once per query rather than once per block.
    ``block`` is a C-contiguous ``(d, n)`` float64 matrix, read as it
    lies — a read-only view of a mapped partition is scored without a
    copy — and ``neg2q`` is ``-2 * q``.  ``norms`` are the rows'
    :func:`sq_norms`, as a partition stores them; without them the rows'
    norms are computed here.  Either way one matrix-vector product is
    added to the same norms, so the scores agree to the bit.
    """
    if norms is None:
        norms = sq_norms(block)
    scores = np.dot(block, neg2q)
    scores += norms
    return scores


def knn_select(
    scores: np.ndarray, ids: np.ndarray, k: int, query_sq: float
) -> tuple[np.ndarray, np.ndarray]:
    """Selection step: the ``k`` smallest ``(d², id)`` among scored rows.

    ``scores`` are :func:`block_scores` values (of one block or of several,
    concatenated) and ``d² = max(scores + query_sq, 0)``, the clip
    absorbing floating-point cancellation.  Returns ``(positions,
    distances)``: where the chosen rows sit in ``scores``, ascending by
    ``(d², id)``, and their Euclidean distances.
    """
    d2 = scores + query_sq
    np.maximum(d2, 0.0, out=d2)
    k_eff = min(k, d2.shape[0])
    # argpartition first: the candidate set is usually much larger than k.
    # Ties at the k-th distance would make the partition's choice arbitrary,
    # so widen the candidate pool to every element at the boundary distance
    # before the deterministic (distance, id) sort.
    part = np.argpartition(d2, k_eff - 1)[:k_eff]
    boundary = d2[part].max()
    pool = np.flatnonzero(d2 <= boundary)
    order = np.lexsort((ids[pool], d2[pool]))[:k_eff]
    chosen = pool[order]
    return chosen, np.sqrt(d2[chosen])


def knn_bruteforce(
    query: np.ndarray,
    data: np.ndarray,
    ids: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbours of ``query`` among the rows of ``data``.

    :func:`knn_select` over :func:`block_scores` of the one block.

    Returns
    -------
    (ids, distances)
        Both sorted ascending by distance, ties broken by id so results are
        deterministic.  Fewer than ``k`` rows simply yields all of them.
    """
    d = as_matrix(data)
    q = as_matrix(query)
    if q.shape[1] != d.shape[1]:
        raise ValueError(
            f"length mismatch: queries have n={q.shape[1]}, data n={d.shape[1]}"
        )
    qv = q[0]
    ids = np.asarray(ids, dtype=np.int64)
    chosen, dists = knn_select(
        block_scores(d, -2.0 * qv), ids, k, np.dot(qv, qv)
    )
    return ids[chosen], dists


def knn_merge(
    partials: Iterable[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-partition (ids, distances) kNN results into a global top-k.

    This is the reduce step of the distributed scan: each worker returns its
    local top-k and the driver merges them.  Duplicate ids (a record scanned
    twice) keep their smallest distance; the output is deterministically
    ordered by (distance, id), ascending.
    """
    id_parts = []
    dist_parts = []
    for ids, dists in partials:
        id_parts.append(np.asarray(ids, dtype=np.int64).ravel())
        dist_parts.append(np.asarray(dists, dtype=np.float64).ravel())
    if not id_parts or not sum(p.size for p in id_parts):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    all_ids = np.concatenate(id_parts)
    all_dists = np.concatenate(dist_parts)
    # Dedup keeping the minimum distance per id: sort by (id, distance) and
    # take the first row of every id run.
    by_id = np.lexsort((all_dists, all_ids))
    ids_sorted = all_ids[by_id]
    dists_sorted = all_dists[by_id]
    first = np.ones(ids_sorted.size, dtype=bool)
    first[1:] = ids_sorted[1:] != ids_sorted[:-1]
    ids_unique = ids_sorted[first]
    dists_unique = dists_sorted[first]
    top = np.lexsort((ids_unique, dists_unique))[:k]
    return ids_unique[top], dists_unique[top]
