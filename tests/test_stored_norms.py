"""The stored ``‖v‖²`` of every record, to the bit (DESIGN.md D14).

A partition stores each record's squared norm beside it, and a query's
score is that stored norm plus one matrix-vector product.  Answers equal
those of computing the norm at query time only while the stored norm is,
bit for bit, what :func:`sq_norms` gives over the row as the query maps
it.  Two properties make that so and are pinned here:

* the kernel: a row's norm does not depend on which rows surround it in
  the block or on where the block lies in memory (8- versus 64-byte
  aligned, any row offset);
* the store: every norm a base or delta partition holds equals the
  kernel over its mapped values row, whether the records were written by
  a build or by ``append``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.series import SeriesDataset
from repro.series.distance import block_scores, sq_norms
from repro.storage import SimulatedDFS


def _placed(values: np.ndarray, alignment: int) -> np.ndarray:
    """A read-only copy of ``values`` whose first byte sits at an address
    that is ``alignment`` modulo 64, as a mapped partition payload can."""
    nbytes = values.nbytes
    raw = np.zeros(nbytes + 128, dtype=np.uint8)
    start = (alignment - raw.ctypes.data) % 64
    raw[start:start + nbytes] = np.frombuffer(values.tobytes(), np.uint8)
    placed = raw[start:start + nbytes].view(np.float64).reshape(values.shape)
    placed.flags.writeable = False
    return placed


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        n_rows=st.integers(1, 40),
        length=st.integers(1, 300),
        lo=st.integers(0, 39),
        span=st.integers(1, 40),
        alignments=st.tuples(st.sampled_from((0, 8, 16, 24, 32, 40, 48, 56)),
                             st.sampled_from((0, 8, 16, 24, 32, 40, 48, 56))),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_rows_norm_is_the_same_inside_any_block(
        self, n_rows, length, lo, span, alignments, scale, seed
    ):
        values = np.random.default_rng(seed).standard_normal(
            (n_rows, length)) * scale
        lo = min(lo, n_rows - 1)
        hi = min(lo + span, n_rows)
        whole = sq_norms(_placed(values, alignments[0]))
        # The rows alone, elsewhere in memory, as one run of a read.
        run = sq_norms(_placed(values[lo:hi], alignments[1]))
        np.testing.assert_array_equal(_bits(run), _bits(whole[lo:hi]))
        # One row at a time, and into a preallocated section.
        single = [sq_norms(_placed(values[i:i + 1], alignments[1]))[0]
                  for i in range(lo, hi)]
        np.testing.assert_array_equal(_bits(np.array(single)),
                                      _bits(whole[lo:hi]))
        out = np.empty(n_rows)
        sq_norms(values, out=out)
        np.testing.assert_array_equal(_bits(out), _bits(whole))

    def test_stored_norms_score_like_computed_ones(self):
        rng = np.random.default_rng(3)
        block = _placed(rng.standard_normal((257, 128)), 8)
        neg2q = -2.0 * rng.standard_normal(128)
        np.testing.assert_array_equal(
            _bits(block_scores(block, neg2q, sq_norms(block))),
            _bits(block_scores(block, neg2q)),
        )


@pytest.mark.parametrize("length", [64, 37])
def test_every_stored_norm_is_the_kernel_over_its_row(tmp_path, length):
    # 37 float64 values are 296 bytes a row: rows then start 8- but not
    # 64-byte aligned inside the values payload.
    ds = random_walk_dataset(1_200, length, seed=4)
    cfg = ClimberConfig(word_length=8, n_pivots=24, prefix_length=4,
                        capacity=120, sample_fraction=0.3,
                        n_input_partitions=4, seed=2)
    dfs = SimulatedDFS(backing_dir=tmp_path, cache_bytes=0)
    index = ClimberIndex.build(ds, cfg, dfs=dfs)
    for number in (1, 2):
        extra = random_walk_dataset(150, length, seed=4 + number)
        index.append(SeriesDataset(
            extra.values, ids=np.arange(10_000 * number, 10_000 * number + 150)
        ))
    names = dfs.list_partitions()
    assert any(".d" in name for name in names)  # deltas are covered
    n_records = 0
    for name in names:
        view = dfs.read_partition(name)
        ids, values, norms = view.read_clusters_with_norms(view.cluster_keys())
        assert norms.dtype == np.float64 and norms.shape == ids.shape
        np.testing.assert_array_equal(_bits(norms), _bits(sq_norms(values)))
        # ... and equals the plain definition up to rounding.
        np.testing.assert_allclose(norms, (values * values).sum(axis=1),
                                   rtol=1e-12)
        # Each cluster read alone maps the same stored norms.
        for key in view.cluster_keys():
            start, count = view.header[key]
            _, _, cluster_norms = view.read_clusters_with_norms([key])
            np.testing.assert_array_equal(_bits(cluster_norms),
                                          _bits(norms[start:start + count]))
        n_records += ids.shape[0]
    assert n_records == 1_200 + 300
    dfs.engine.close()
