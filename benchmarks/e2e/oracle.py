"""Inputs and answer checks of the end-to-end benchmark, in plain NumPy.

Nothing here imports ``repro``: the generators decide what the program
is given, and the checks decide whether what it returned is right, so
neither may share code with the thing under test.  Every function is a
pure function of its arguments; all randomness comes from the
``numpy.random.Generator`` the caller derives from ``--seed``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "znormalize",
    "random_walk",
    "clustered_vectors",
    "perturbed_queries",
    "exact_knn",
    "SHORT_ANSWER",
    "check_answer",
    "recall",
    "zipf_choices",
    "poisson_due_times",
]

QUERY_NOISE_SIGMA = 0.05
"""Gaussian noise added to a stored series to make a query of it, so no
query is a stored record and a self-hit cannot pass for recall."""

DISTANCE_RTOL = 1e-6
"""Tolerance of the returned distances against distances recomputed from
the raw arrays.  The program scores candidates with the expanded form
``|a|^2 + |b|^2 - 2ab``, the check with ``|a - b|``; on z-normalised
128-point series the two agree to ~1e-12, so 1e-6 only lets rounding by."""


def znormalize(x: np.ndarray) -> np.ndarray:
    """Per-row zero mean and unit variance (rows are never constant here)."""
    x = x - x.mean(axis=1, keepdims=True)
    return x / x.std(axis=1, keepdims=True)


def random_walk(n: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """The RandomWalk benchmark: cumulative sums of unit Gaussian steps."""
    return znormalize(np.cumsum(rng.standard_normal((n, length)), axis=1))


def clustered_vectors(n: int, length: int,
                      rng: np.random.Generator) -> np.ndarray:
    """SIFT-like vectors: non-negative gamma marginals around prototypes.

    ``n / 200`` prototypes of equal popularity.  Clustering alone makes
    the index's groups dense enough that a tied-OD query walks about four
    partitions.  Skewed popularity was tried and dropped: with the
    prototype of each vector drawn from a Zipf(0.5) law the walk is the
    same length, but the 95th percentile of the query latency swings 14 %
    from seed to seed where it swings 7 % without the skew, which would
    drown a change in seed noise.
    """
    n_clusters = max(16, n // 200)
    prototypes = rng.gamma(2.0, 1.0, size=(n_clusters, length))
    owner = rng.integers(n_clusters, size=n)
    vecs = 0.8 * prototypes[owner] + 0.2 * rng.gamma(2.0, 1.0, size=(n, length))
    return znormalize(vecs)


def perturbed_queries(data: np.ndarray, n_queries: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Distinct dataset members plus noise, z-normalised again."""
    rows = rng.choice(data.shape[0], size=n_queries, replace=False)
    noisy = data[rows] + QUERY_NOISE_SIGMA * rng.standard_normal(
        (n_queries, data.shape[1])
    )
    return znormalize(noisy)


def exact_knn(data: np.ndarray, queries: np.ndarray, k: int,
              chunk: int = 50) -> np.ndarray:
    """Ids (= row numbers) of the exact ``k`` nearest rows of ``data``.

    Chunked so the distance block stays near 40 MB at 100k rows and the
    benchmark's own ground truth does not set ``peak_rss_mb``.
    """
    k = min(k, data.shape[0])
    data_sq = np.einsum("ij,ij->i", data, data)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], chunk):
        q = queries[start:start + chunk]
        d2 = data_sq[None, :] - 2.0 * (q @ data.T)
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(d2, nearest, axis=1), axis=1)
        out[start:start + chunk] = np.take_along_axis(nearest, order, axis=1)
    return out


SHORT_ANSWER = "fewer than min(k, n) results"
"""The one verdict of ``check_answer`` a workload may tolerate, up to a
fixed share of its operations: see ``Workload.short_allowed_frac``."""


def check_answer(query: np.ndarray, ids: np.ndarray, distances: np.ndarray,
                 k: int, data: np.ndarray, n_visible: int) -> str | None:
    """Why a kNN answer is wrong, or ``None`` when it passes.

    ``data`` holds every series by id and ``n_visible`` is how many of
    them the index has been given so far: an answer must hold
    ``min(k, n_visible)`` distinct visible ids, in ascending order of
    distance, each distance equal to the one recomputed from ``data``.

    Nothing the program says about itself is consulted.  An answer that
    is right in every other respect but holds too few ids gets the
    verdict ``SHORT_ANSWER``, so that the caller can tell it from a
    wrong one.
    """
    ids = np.asarray(ids)
    distances = np.asarray(distances, dtype=np.float64)
    want = min(k, n_visible)
    if ids.ndim != 1 or distances.shape != ids.shape or ids.shape[0] > want:
        return (f"expected {want} results, got {ids.shape} ids and "
                f"{distances.shape} distances")
    if ids.shape[0]:
        if ids.min() < 0 or ids.max() >= n_visible:
            return "id outside the records ingested so far"
        if np.unique(ids).shape[0] != ids.shape[0]:
            return "duplicate ids"
        if np.any(np.diff(distances) < 0):
            return "distances not ascending"
        true = np.sqrt(((data[ids] - query) ** 2).sum(axis=1))
        if not np.allclose(distances, true, rtol=DISTANCE_RTOL, atol=1e-9):
            return "distance differs from the raw arrays"
    return SHORT_ANSWER if ids.shape[0] < want else None


def recall(ids: np.ndarray, truth: np.ndarray) -> float:
    """Share of the exact neighbours ``truth`` present in ``ids``."""
    return np.intersect1d(ids, truth).shape[0] / truth.shape[0]


def zipf_choices(ranked_items: np.ndarray, size: int, exponent: float,
                 rng: np.random.Generator) -> np.ndarray:
    """``size`` draws of items, P(item at rank r) proportional to r^-exponent.

    ``ranked_items`` lists the items from most to least popular.
    """
    n_items = ranked_items.shape[0]
    weights = np.arange(1, n_items + 1, dtype=np.float64) ** -exponent
    return ranked_items[rng.choice(n_items, size=size, p=weights / weights.sum())]


def poisson_due_times(rate_per_s: float, size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Send times, in seconds from the start of a pass, of a Poisson stream."""
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=size))
