"""Hostile queries are refused at the boundary, with a typed error.

A NaN or infinite query, a batch handed to the single-query call and a
query of the wrong length used to be *answered* (empty, ``inf`` distances
plus a NumPy warning, a flattened 2n-long "query") or to fail with a bare
``ValueError`` only after partitions had been read.  A complex, boolean,
string or object array used to be cast (imaginary part dropped under a
``ComplexWarning``, digits parsed, a mask read as 0/1), and a fractional
or boolean ``k`` to be truncated, read as 1, or to die in
``np.argpartition`` after the reads.  Every entry point now validates
once, before any routing or DFS read.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import ClimberConfig, ClimberIndex
from repro.datasets import random_walk_dataset
from repro.exceptions import (
    ConfigurationError,
    DimensionalityError,
    NonFiniteValueError,
    ReproError,
)
from repro.obs import MetricsRegistry
from repro.serve import QueryService, ServeConfig
from repro.storage import SimulatedDFS

LENGTH = 32


def build_index():
    ds = random_walk_dataset(600, LENGTH, seed=5)
    cfg = ClimberConfig(word_length=8, n_pivots=24, prefix_length=4,
                        capacity=60, sample_fraction=0.3,
                        n_input_partitions=4, seed=2)
    return ClimberIndex.build(ds, cfg, dfs=SimulatedDFS())


@pytest.fixture(scope="module")
def index():
    return build_index()


def good(seed=0):
    return random_walk_dataset(1, LENGTH, seed=seed).values[0]


def hostile_cases():
    nan = good()
    nan[3] = np.nan
    inf = good()
    inf[-1] = np.inf
    return [
        ("all-nan", np.full(LENGTH, np.nan), NonFiniteValueError),
        ("one-nan", nan, NonFiniteValueError),
        ("inf", inf, NonFiniteValueError),
        ("too-short", good()[:-1], DimensionalityError),
        ("too-long", np.concatenate([good(), good()]), DimensionalityError),
        ("3-d", np.zeros((1, 1, LENGTH)), DimensionalityError),
        ("not-numeric", ["a", "b"], DimensionalityError),
        ("complex", good() + 1j, DimensionalityError),
        ("digit-strings", good().round().astype(str), DimensionalityError),
        ("object", good().astype(object), DimensionalityError),
        ("bool-mask", good() > 0, DimensionalityError),
    ]


DTYPE_CASES = ["complex", "digit-strings", "object", "bool-mask"]
BAD_K = [2.5, np.float64(3.0), True, np.True_, "5", None, 0, -1]
BAD_K_IDS = [repr(k) for k in BAD_K]
BAD_FACTOR = [0, -1, 2.5, True, np.True_, "2", np.float64(2.0), [4]]
BAD_FACTOR_IDS = [repr(f) for f in BAD_FACTOR]


CASES = hostile_cases()
IDS = [name for name, _, _ in CASES]


def single_entry_points(index):
    return {
        "knn": lambda q: index.knn(q, 5),
        "knn_progressive": lambda q: list(index.knn_progressive(q, 5)),
    }


@pytest.mark.parametrize("entry", ["knn", "knn_progressive"])
@pytest.mark.parametrize("name,query,error", CASES, ids=IDS)
def test_single_query_calls_refuse_before_reading(index, entry, name, query,
                                                  error):
    call = single_entry_points(index)[entry]
    before = index.dfs.counters
    rng_state = index._rng.bit_generator.state
    with pytest.raises(error) as caught:
        call(query)
    assert isinstance(caught.value, ReproError)
    # Nothing was read or charged, and the tie-break RNG stream did not
    # advance: a refused query leaves no trace on later answers.
    assert index.dfs.counters == before
    assert index._rng.bit_generator.state == rng_state


@pytest.mark.parametrize("entry", ["knn", "knn_progressive"])
def test_a_batch_is_not_a_query(index, entry):
    batch = np.stack([good(1), good(2)])
    with pytest.raises(DimensionalityError, match="one series"):
        single_entry_points(index)[entry](batch)


@pytest.mark.parametrize("entry", ["knn", "knn_progressive"])
def test_one_row_matrix_is_a_query(index, entry):
    q = good(3)
    flat = index.knn(q, 5)
    if entry == "knn":
        boxed = index.knn(q.reshape(1, -1), 5)
    else:
        boxed = list(index.knn_progressive(q.reshape(1, -1), 5))[-1]
    np.testing.assert_array_equal(boxed.ids, flat.ids)
    np.testing.assert_array_equal(boxed.distances, flat.distances)


@pytest.mark.parametrize("entry", ["knn_batch", "knn_batch_progressive"])
@pytest.mark.parametrize("name,query,error", CASES[1:3], ids=IDS[1:3])
def test_batch_calls_name_the_bad_row(index, entry, name, query, error):
    batch = np.stack([good(1), good(2), query, good(4)])
    before = index.dfs.counters
    with pytest.raises(error, match="row 2"):
        getattr(index, entry)(batch, 5)
    assert index.dfs.counters == before


@pytest.mark.parametrize("entry", ["knn_batch", "knn_batch_progressive"])
@pytest.mark.parametrize("name", DTYPE_CASES)
def test_batch_calls_refuse_non_real_dtypes(index, entry, name):
    query = CASES[IDS.index(name)][1]
    batch = np.stack([query, query])
    before = index.dfs.counters
    with pytest.raises(DimensionalityError, match=str(batch.dtype)):
        getattr(index, entry)(batch, 5)
    assert index.dfs.counters == before


@pytest.mark.parametrize("dtype", ["float16", "float32", "int8", "uint16"])
def test_real_dtypes_are_cast_not_refused(index, dtype):
    q = (good(6) * 4).astype(dtype)
    want = index.knn(q.astype(np.float64), 5)
    got = index.knn(q, 5)
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.distances, want.distances)
    row = index.knn_batch(np.stack([q, q]), 5)[1]
    np.testing.assert_array_equal(row.ids, want.ids)


@pytest.mark.parametrize("entry", ["knn", "knn_progressive", "knn_batch",
                                   "knn_batch_progressive"])
@pytest.mark.parametrize("k", BAD_K, ids=BAD_K_IDS)
def test_k_must_be_a_positive_integer(index, entry, k):
    query = good(7) if not entry.startswith("knn_batch") else np.stack(
        [good(7), good(8)]
    )
    before = index.dfs.counters
    rng_state = index._rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="k must be an integer"):
        getattr(index, entry)(query, k)
    assert index.dfs.counters == before
    assert index._rng.bit_generator.state == rng_state


@pytest.mark.parametrize("entry", ["knn", "knn_progressive", "knn_batch",
                                   "knn_batch_progressive", "explain_query"])
@pytest.mark.parametrize("factor", BAD_FACTOR, ids=BAD_FACTOR_IDS)
def test_adaptive_factor_must_be_none_or_a_positive_integer(index, entry,
                                                            factor):
    """0 used to mean the config's factor and -1 a negative budget; both,
    a fraction and a bool were answered.  ``None`` alone defers."""
    query = good(7) if not entry.startswith("knn_batch") else np.stack(
        [good(7), good(8)]
    )
    before = index.dfs.counters
    rng_state = index._rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="adaptive_factor"):
        getattr(index, entry)(query, 5, adaptive_factor=factor)
    assert index.dfs.counters == before
    assert index._rng.bit_generator.state == rng_state


def test_explain_refuses_bad_arguments_of_an_empty_batch(index):
    empty = np.empty((0, LENGTH))
    for kwargs in (dict(adaptive_factor=0), dict(on_partition_failure="no"),
                   dict(k=0)):
        with pytest.raises(ConfigurationError):
            index.explain_query(empty, **{"k": 5, "progressive": True,
                                          **kwargs})


def test_numpy_integer_adaptive_factor_is_an_integer(index):
    want = index.knn(good(9), 5, variant="knn", adaptive_factor=2)
    got = index.knn(good(9), 5, variant="knn", adaptive_factor=np.int64(2))
    np.testing.assert_array_equal(got.ids, want.ids)
    assert got.stats.n_selected_nodes == want.stats.n_selected_nodes


def test_numpy_integer_k_is_an_integer(index):
    want = index.knn(good(9), 5)
    got = index.knn(good(9), np.int64(5))
    np.testing.assert_array_equal(got.ids, want.ids)
    assert got.stats.k == 5


@pytest.mark.parametrize("entry", ["knn_batch", "knn_batch_progressive"])
def test_batch_calls_refuse_wrong_shapes(index, entry):
    call = getattr(index, entry)
    with pytest.raises(DimensionalityError, match="length"):
        call(np.zeros((3, LENGTH + 1)), 5)
    with pytest.raises(DimensionalityError, match="ndim"):
        call(np.zeros((2, 2, LENGTH)), 5)
    assert call(np.empty((0, LENGTH)), 5) == []


# Signatures the routing boundary must refuse on the 24-pivot, m = 4 index:
# an id at or past n_pivots can alias another node's edge key in the trie
# walk, a negative one wraps in a gather, and a repeated one is counted
# twice by the overlap.
HOSTILE_SIGNATURES = [
    ("id-equals-n-pivots", [24, 1, 2, 3]),
    ("id-36", [36, 1, 2, 3]),
    ("id-50", [0, 50, 2, 3]),
    ("negative-id", [-1, 1, 2, 3]),
    ("repeated-id", [5, 7, 5, 3]),
    ("repeated-id-adjacent", [9, 9, 2, 3]),
]


@pytest.mark.parametrize("route", ["group_candidates", "od_matrix-one-row",
                                   "od_matrix-many-rows", "candidates"])
@pytest.mark.parametrize("name,sig", HOSTILE_SIGNATURES,
                         ids=[name for name, _ in HOSTILE_SIGNATURES])
def test_hostile_signature_is_refused_at_routing(index, monkeypatch, route,
                                                 name, sig):
    from repro.core.trie_flat import FlatTrie

    def no_walk(*_):
        raise AssertionError("a trie was walked with a hostile signature")

    routing = index.routing
    valid = index.query_signature(good(11))
    od_row = routing.od_matrix(valid)[0]
    monkeypatch.setattr(FlatTrie, "descend_path_ids", no_walk)
    calls = {
        "group_candidates": lambda: index.group_candidates(np.array(sig)),
        "od_matrix-one-row": lambda: routing.od_matrix(np.array([sig])),
        "od_matrix-many-rows": lambda: routing.od_matrix(
            np.array([valid, sig, valid])),
        "candidates": lambda: routing.candidates(np.array(sig), od_row),
    }
    with pytest.raises(ConfigurationError, match="distinct pivot ids"):
        calls[route]()


def test_refused_queries_emit_no_numpy_warning(index, recwarn):
    for _, query, error in CASES:
        with pytest.raises(error):
            index.knn(query, 5)
    assert not [w for w in recwarn.list
                if issubclass(w.category, RuntimeWarning)]


def test_service_fails_the_bad_request_alone():
    """A malformed request never reaches a micro-batch: its neighbours in
    the admission window are answered exactly as if it had not come."""
    served, twin = build_index(), build_index()
    queries = [good(i) for i in range(6)]
    expected = [twin.knn(q, 5) for q in queries]
    bad = [np.full(LENGTH, np.nan), good()[:-3], np.stack([good(), good()]),
           good() + 1j]
    bad_k = [2.5, True]
    # Refused at submit, not at dispatch: an unhashable argument used to
    # raise while the dispatch grouped its batch, before any future was
    # resolved, and so hung every request of that batch.
    bad_args = [dict(early_stop=[2]), dict(early_stop="bogus"),
                dict(early_stop="confidence:0.9"),
                dict(on_partition_failure="nope"),
                dict(on_partition_failure=["skip"]),
                dict(adaptive_factor=0), dict(adaptive_factor=[4]),
                dict(variant=np.array(["knn", "adaptive"]))]
    # One rule, three spellings: keyed on the parsed streak, one dispatch.
    streaks = ["streak:2", 2, " STREAK:2 "]

    async def drive():
        config = ServeConfig(max_batch=32, max_delay_s=0.02)
        async with QueryService(served, config,
                                registry=MetricsRegistry()) as service:
            mixed = queries[:3] + bad + queries[3:]
            results = await asyncio.wait_for(asyncio.gather(
                *(service.submit(q, 5) for q in mixed),
                *(service.submit(queries[0], k) for k in bad_k),
                *(service.submit(queries[1], 5, **kw) for kw in bad_args),
                *(service.submit(queries[2], 5, early_stop=s)
                  for s in streaks),
                return_exceptions=True,
            ), timeout=20)
            return results, service.stats()

    results, stats = asyncio.run(drive())
    errors = results[3:7]
    assert isinstance(errors[0], NonFiniteValueError)
    assert isinstance(errors[1], DimensionalityError)
    assert isinstance(errors[2], DimensionalityError)
    assert isinstance(errors[3], DimensionalityError)
    refused = results[10:12 + len(bad_args)]
    assert all(isinstance(e, ConfigurationError) for e in refused)
    answers = results[:3] + results[7:10]
    for got, want in zip(answers, expected):
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)
    streak_answers = results[-len(streaks):]
    assert [r.batch_size for r in streak_answers] == [3, 3, 3]
    for r in streak_answers[1:]:
        np.testing.assert_array_equal(r.ids, streak_answers[0].ids)
    counters = stats["metrics"]["counters"]
    assert counters["serve.requests"] == 12 + len(bad_args) + len(streaks)
    assert counters["serve.responses"] == 6 + len(streaks)
    assert counters["serve.failures"] == 6 + len(bad_args)


def test_empty_store_reopen_still_knows_the_series_length(index):
    """The skeleton records the series length, so an index reopened over
    a store with no partitions refuses a wrong-length query at every
    entry point as any other index does — nothing to probe the store for."""
    empty = SimulatedDFS()
    reopened = ClimberIndex.reopen(index.save_global_index(), empty,
                                   index.config)
    assert reopened.series_length == LENGTH
    short = good()[:-1]
    with pytest.raises(DimensionalityError, match="length"):
        reopened.knn(short, 5)
    with pytest.raises(DimensionalityError, match="length"):
        reopened.knn_batch(np.stack([short, short]), 5)
    with pytest.raises(DimensionalityError, match="length"):
        next(reopened.knn_progressive(short, 5))

    async def submit():
        async with QueryService(reopened, ServeConfig(),
                                registry=MetricsRegistry()) as service:
            return await service.submit(short, 5)

    with pytest.raises(DimensionalityError, match="length"):
        asyncio.run(submit())
    assert empty.counters.partitions_read == 0
