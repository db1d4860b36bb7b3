"""Data-series containers.

A *data series* (Def. 1 of the paper) is an ordered sequence of real values;
a *data series dataset* (Def. 2) is a collection of ``d`` series, all of the
same length ``n``.  We store a dataset as a single contiguous
``(d, n) float64`` matrix plus integer identifiers, which keeps every
downstream transformation (PAA, pivot distances, Euclidean scans) a
vectorised NumPy operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.exceptions import DimensionalityError

__all__ = ["SeriesDataset", "as_matrix", "series_nbytes"]

_RECORD_OVERHEAD_BYTES = 16
"""Per-record metadata overhead (id + header slot) charged by the storage
layer when converting record counts to bytes."""


def as_matrix(data: np.ndarray) -> np.ndarray:
    """Validate and coerce ``data`` into a 2-D ``float64`` C-contiguous matrix.

    A single series (1-D array) is promoted to a one-row matrix.

    Raises
    ------
    DimensionalityError
        If ``data`` has more than two dimensions or is empty.
    """
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionalityError(
            f"expected a 1-D series or (d, n) matrix, got ndim={arr.ndim}"
        )
    if arr.size == 0:
        raise DimensionalityError("dataset must contain at least one value")
    return arr


def series_nbytes(length: int, *, with_overhead: bool = True) -> int:
    """Bytes occupied by one stored data series of ``length`` points.

    The paper sizes partitions against HDFS blocks (64/128 MB).  We express
    capacity in records, so this helper is the records -> bytes conversion
    used by the cost model and the storage layer.
    """
    raw = 8 * length
    return raw + _RECORD_OVERHEAD_BYTES if with_overhead else raw


@dataclass
class SeriesDataset:
    """A fixed-length data-series collection (Def. 2).

    Parameters
    ----------
    values:
        ``(d, n)`` matrix; row ``i`` is series ``ids[i]``.
    ids:
        Unique integer identifiers, one per row.  Defaults to ``0..d-1``.
    name:
        Human-readable dataset name (used in reports).
    """

    values: np.ndarray
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.values = as_matrix(self.values)
        if self.ids is None:
            self.ids = np.arange(self.values.shape[0], dtype=np.int64)
        else:
            self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.shape != (self.values.shape[0],):
            raise DimensionalityError(
                f"ids shape {self.ids.shape} does not match "
                f"{self.values.shape[0]} series"
            )

    # -- basic introspection -------------------------------------------------

    @property
    def count(self) -> int:
        """Number of series ``d``."""
        return self.values.shape[0]

    @property
    def length(self) -> int:
        """Length ``n`` of every series."""
        return self.values.shape[1]

    @property
    def nbytes(self) -> int:
        """Stored size of the dataset, including per-record overhead."""
        return self.count * series_nbytes(self.length)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.values)

    # -- slicing -------------------------------------------------------------

    def take(self, row_indices: np.ndarray, name: str | None = None) -> "SeriesDataset":
        """Return a new dataset containing the given *row positions*."""
        idx = np.asarray(row_indices, dtype=np.int64)
        return SeriesDataset(
            self.values[idx], self.ids[idx], name or self.name
        )

    def sample(
        self, fraction: float, rng: np.random.Generator
    ) -> "SeriesDataset":
        """Uniform random sample of ``fraction`` of the rows (at least 1)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        k = max(1, int(round(fraction * self.count)))
        idx = rng.choice(self.count, size=k, replace=False)
        return self.take(np.sort(idx), name=f"{self.name}[sample]")

    def split_into_chunks(self, n_chunks: int) -> list["SeriesDataset"]:
        """Split rows into ``n_chunks`` nearly equal contiguous chunks.

        Models a raw dataset already resident on a cluster as a set of
        arbitrary input partitions (the starting point of the paper's
        index-construction workflow, Fig. 6).  Each chunk is a row-slice
        view sharing this dataset's memory, not a copy of it.
        """
        if n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        bounds = np.linspace(0, self.count, n_chunks + 1).astype(np.int64)
        return [
            SeriesDataset(self.values[lo:hi], self.ids[lo:hi], self.name)
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
            if hi > lo
        ]
