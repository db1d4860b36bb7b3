"""Property-based end-to-end tests over random configurations.

Hypothesis drives dataset shape and index knobs; the invariants checked
are the ones every legal CLIMBER build/query must satisfy regardless of
parameters.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import all_records

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset


@st.composite
def index_setup(draw):
    count = draw(st.integers(300, 900))
    length = draw(st.sampled_from([32, 48, 64]))
    w = draw(st.sampled_from([4, 8]))
    r = draw(st.integers(8, 24))
    m = draw(st.integers(2, min(6, r)))
    capacity = draw(st.integers(40, 200))
    seed = draw(st.integers(0, 10_000))
    return count, length, w, r, m, capacity, seed


@given(index_setup())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_build_and_query_invariants(setup):
    count, length, w, r, m, capacity, seed = setup
    ds = random_walk_dataset(count, length, seed=seed)
    cfg = ClimberConfig(
        word_length=w, n_pivots=r, prefix_length=m, capacity=capacity,
        sample_fraction=0.3, n_input_partitions=8, seed=seed,
    )
    index = ClimberIndex.build(ds, cfg)

    # (1) Storage conservation: every record stored exactly once.
    stored = []
    for pname in index.dfs.list_partitions():
        stored.extend(all_records(index.dfs.read_partition(pname))[0].tolist())
    assert sorted(stored) == sorted(ds.ids.tolist())

    # (2) The fall-back group exists and is group 0.
    assert index.skeleton.groups[0].is_fallback

    # (3) Queries return k sorted results containing no duplicates.
    rng = np.random.default_rng(seed + 1)
    for qi in rng.choice(count, size=3, replace=False):
        for variant in ("knn", "adaptive", "od-smallest"):
            res = index.knn(ds.values[qi], 10, variant=variant)
            assert len(res.ids) == min(10, res.stats.records_examined)
            assert len(set(res.ids.tolist())) == len(res.ids)
            assert np.all(np.diff(res.distances) >= 0)
            assert res.stats.records_examined >= len(res.ids)

    # (4) The global index is dramatically smaller than the data.
    assert index.global_index_nbytes < ds.nbytes

    # (5) Persistence round-trip preserves routing.
    reopened = ClimberIndex.reopen(index.save_global_index(), index.dfs, cfg)
    probe = ds.values[int(rng.integers(0, count))]
    a = index.knn(probe, 5, variant="knn")
    b = reopened.knn(probe, 5, variant="knn")
    np.testing.assert_array_equal(a.ids, b.ids)


@given(index_setup())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_self_queries_mostly_find_themselves(setup):
    """Dataset members route back to their own cluster almost always.

    (Not strictly always: Algorithm 1's random tie-break can send a
    signature's build-time copy and its query-time routing to different
    groups; that is by design, so we assert a high hit rate, not 100%.)
    """
    count, length, w, r, m, capacity, seed = setup
    ds = random_walk_dataset(count, length, seed=seed)
    cfg = ClimberConfig(
        word_length=w, n_pivots=r, prefix_length=m, capacity=capacity,
        sample_fraction=0.3, n_input_partitions=8, seed=seed,
    )
    index = ClimberIndex.build(ds, cfg)
    rng = np.random.default_rng(seed)
    probes = rng.choice(count, size=12, replace=False)
    hits = sum(
        1
        for qi in probes
        if index.knn(ds.values[qi], 3, variant="adaptive").ids[0] == ds.ids[qi]
    )
    assert hits >= 9
