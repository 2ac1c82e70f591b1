"""Cached, batched and async discovery must equal the uncached serial lake.

``repro.exploration.parallel`` memoizes discovery answers; its contract
is that memoization never changes one: every discovery answer (joinable
/ related / union / keyword) from a cached lake, from
``discover_batch``, or from an async-maintenance lake equals the answer
of a ``DataLake(cache=False)``, element for element and score for score.

Discovery runs on the caller's thread, so concurrency comes from
callers: the tests run their queries from {1, 2, 8} caller threads at
once against one freshly ingested lake, which races the first index
build and refresh and the cache fills.  Randomized generated lakes
(hypothesis over the generator seed) and the degenerate lakes (empty,
single table) are pinned too.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.errors import DatasetNotFound
from repro.datagen import LakeGenerator
from repro.core.lake import DataLake

CLIENT_COUNTS = (1, 2, 8)
CLIENT_TIMEOUT_S = 120


def _ingest_workload(lake, workload):
    for table in workload.tables:
        lake.ingest(Dataset(name=table.name, payload=table, format="table"))
    return lake


def _build_lakes(workload):
    serial = _ingest_workload(DataLake(cache=False), workload)
    cached = _ingest_workload(DataLake(cache=True), workload)
    return serial, cached


def _concurrently(clients, run):
    """``run()`` from *clients* caller threads at once; their results."""
    pool = ThreadPoolExecutor(max_workers=clients)
    try:
        futures = [pool.submit(run) for _ in range(clients)]
        return [future.result(timeout=CLIENT_TIMEOUT_S) for future in futures]
    finally:
        pool.shutdown(wait=False)  # a hung caller must not block the exit


def _query_targets(workload):
    """A dimension table, a fact table, and one joinable column each."""
    tables = workload.tables
    names = [table.name for table in tables]
    picks = [names[0], names[len(names) // 2], names[-1]]
    columns = {table.name: table.column_names[0] for table in tables}
    return picks, columns


def _answers(lake, workload, k):
    """The lake's answers to every query kind on the workload's targets."""
    picks, columns = _query_targets(workload)
    answers = []
    for name in picks:
        answers.append(lake.discover_related(name, k=k))
        answers.append(lake.discover_union(name, k=k))
        answers.append(lake.discover_joinable(name, columns[name], k=k))
    for query in ("label", "ent0 id", picks[0].replace("_", " ")):
        answers.append(lake.keyword_search(query, k=k))
    return answers


def _assert_equivalent(serial, cached, workload, k=5, clients=1):
    expected = _answers(serial, workload, k)
    for answers in _concurrently(clients,
                                 lambda: _answers(cached, workload, k)):
        assert answers == expected


def _batch(serial, workload):
    """A batch over all four query kinds and its serial answers."""
    picks, columns = _query_targets(workload)
    queries, expected = [], []
    for name in picks:
        queries.append(("related", name, 5))
        expected.append(serial.discover_related(name, k=5))
        queries.append(("union", name, 5))
        expected.append(serial.discover_union(name, k=5))
        queries.append(("joinable", name, columns[name], 5))
        expected.append(serial.discover_joinable(name, columns[name], k=5))
    queries.append(("keyword", "label", 5))
    expected.append(serial.keyword_search("label", k=5))
    return queries, expected


@pytest.fixture(scope="module")
def module_workload():
    return LakeGenerator(seed=23).generate(
        num_pools=3, tables_per_pool=3, rows_per_table=60, pool_size=90,
        noise_tables=2)


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_all_query_types_match_serial(module_workload, clients):
    serial, cached = _build_lakes(module_workload)
    _assert_equivalent(serial, cached, module_workload, clients=clients)


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_cached_answers_match_serial_on_repeat(module_workload, clients):
    serial, cached = _build_lakes(module_workload)
    name = module_workload.tables[0].name
    expected = serial.discover_related(name, k=7)

    def ask_twice():
        first = cached.discover_related(name, k=7)
        return first, cached.discover_related(name, k=7)  # a cache hit

    for first, again in _concurrently(clients, ask_twice):
        assert first == again == expected
    assert cached.query_cache.stats()["hits"] >= clients

    # a cached answer is a copy: mutating it must not corrupt the cache
    if again:
        again.append(("corrupted", -1.0))
        assert cached.discover_related(name, k=7) == expected


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_discover_batch_matches_individual_queries(module_workload, clients):
    serial, cached = _build_lakes(module_workload)
    queries, expected = _batch(serial, module_workload)
    for results in _concurrently(clients,
                                 lambda: cached.discover_batch(queries)):
        assert results == expected


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_randomized_lakes_equivalent(seed):
    workload = LakeGenerator(seed=seed).generate(
        num_pools=2, tables_per_pool=2, rows_per_table=40, pool_size=60,
        noise_tables=1)
    serial, cached = _build_lakes(workload)
    _assert_equivalent(serial, cached, workload, k=4)


def _probe_empty(lake):
    assert lake.discover_related("ghost") == []
    assert lake.keyword_search("anything") == []
    with pytest.raises(DatasetNotFound):
        lake.discover_joinable("ghost", "id")
    with pytest.raises(DatasetNotFound):
        lake.discover_union("ghost")
    assert lake.discover_batch([]) == []


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_empty_lake(clients):
    _probe_empty(DataLake(cache=False))
    cached = DataLake(cache=True)
    _concurrently(clients, lambda: _probe_empty(cached))


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_single_table_lake(clients):
    def build(cache):
        lake = DataLake(cache=cache)
        lake.ingest_table("solo", {"id": [1, 2, 3], "city": ["a", "b", "c"]})
        return lake

    def probe(lake):
        assert lake.discover_related("solo") == []
        assert lake.discover_union("solo") == []
        assert lake.discover_joinable("solo", "id") == []
        return lake.keyword_search("city")

    expected = probe(build(False))
    assert expected[0].table == "solo"
    cached = build(True)
    assert _concurrently(clients, lambda: probe(cached)) == [expected] * clients


def test_async_mode_equivalent(module_workload):
    serial = _ingest_workload(DataLake(cache=False), module_workload)
    lake = _ingest_workload(
        DataLake(cache=True, async_maintenance=True), module_workload)
    try:
        # the first reads after the ingests, with no drain(): each batched
        # query must quiesce the runtime and refresh the indexes on its own
        queries, expected = _batch(serial, module_workload)
        assert lake.discover_batch(queries) == expected
        _assert_equivalent(serial, lake, module_workload)
    finally:
        lake.close()
