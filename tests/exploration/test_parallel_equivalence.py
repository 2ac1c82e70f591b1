"""Parallel discovery must be element-for-element identical to serial.

The contract of ``repro.exploration.parallel`` is *bit-identical merge*:
whatever ``parallelism=`` and ``cache=`` are set to, every discovery
answer (joinable / related / union / keyword) equals the strictly serial
answer, element for element and score for score.  These tests pin that
across worker counts {1, 2, 8}, randomized generated lakes (hypothesis
over the generator seed), and the degenerate lakes (empty, single
table) where fan-out must quietly collapse to the serial path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.errors import DatasetNotFound
from repro.datagen import LakeGenerator
from repro.core.lake import DataLake

WORKER_COUNTS = (1, 2, 8)


def _ingest_workload(lake, workload):
    for table in workload.tables:
        lake.ingest(Dataset(name=table.name, payload=table, format="table"))
    return lake


def _build_lakes(workload, workers, cache=True):
    serial = _ingest_workload(DataLake(parallelism=1, cache=False), workload)
    parallel = _ingest_workload(
        DataLake(parallelism=workers, cache=cache), workload)
    return serial, parallel


def _query_targets(workload):
    """A dimension table, a fact table, and one joinable column each."""
    tables = workload.tables
    names = [table.name for table in tables]
    picks = [names[0], names[len(names) // 2], names[-1]]
    columns = {table.name: table.column_names[0] for table in tables}
    return picks, columns


def _assert_equivalent(serial, parallel, workload, k=5):
    picks, columns = _query_targets(workload)
    for name in picks:
        assert (parallel.discover_related(name, k=k)
                == serial.discover_related(name, k=k))
        assert (parallel.discover_union(name, k=k)
                == serial.discover_union(name, k=k))
        assert (parallel.discover_joinable(name, columns[name], k=k)
                == serial.discover_joinable(name, columns[name], k=k))
    for query in ("label", "ent0 id", picks[0].replace("_", " ")):
        assert (parallel.keyword_search(query, k=k)
                == serial.keyword_search(query, k=k))


@pytest.fixture(scope="module")
def module_workload():
    return LakeGenerator(seed=23).generate(
        num_pools=3, tables_per_pool=3, rows_per_table=60, pool_size=90,
        noise_tables=2)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_all_query_types_match_serial(module_workload, workers):
    serial, parallel = _build_lakes(module_workload, workers)
    _assert_equivalent(serial, parallel, module_workload)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_cached_answers_match_serial_on_repeat(module_workload, workers):
    serial, parallel = _build_lakes(module_workload, workers)
    name = module_workload.tables[0].name
    first = parallel.discover_related(name, k=7)
    again = parallel.discover_related(name, k=7)  # served from the cache
    assert first == again == serial.discover_related(name, k=7)
    stats = parallel.query_cache.stats()
    assert stats["hits"] >= 1

    # a cached answer is a copy: mutating it must not corrupt the cache
    if again:
        again.append(("corrupted", -1.0))
        assert parallel.discover_related(name, k=7) == first


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_discover_batch_matches_individual_queries(module_workload, workers):
    serial, parallel = _build_lakes(module_workload, workers)
    picks, columns = _query_targets(module_workload)
    queries = []
    for name in picks:
        queries.append(("related", name, 5))
        queries.append(("union", name, 5))
        queries.append(("joinable", name, columns[name], 5))
    queries.append(("keyword", "label", 5))
    results = parallel.discover_batch(queries)
    assert len(results) == len(queries)
    expected = []
    for name in picks:
        expected.append(serial.discover_related(name, k=5))
        expected.append(serial.discover_union(name, k=5))
        expected.append(serial.discover_joinable(name, columns[name], k=5))
    expected.append(serial.keyword_search("label", k=5))
    assert results == expected


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_randomized_lakes_equivalent(seed):
    workload = LakeGenerator(seed=seed).generate(
        num_pools=2, tables_per_pool=2, rows_per_table=40, pool_size=60,
        noise_tables=1)
    serial, parallel = _build_lakes(workload, workers=8)
    _assert_equivalent(serial, parallel, workload, k=4)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_empty_lake(workers):
    serial = DataLake(parallelism=1, cache=False)
    parallel = DataLake(parallelism=workers, cache=True)
    for lake in (serial, parallel):
        assert lake.discover_related("ghost") == []
        assert lake.keyword_search("anything") == []
        with pytest.raises(DatasetNotFound):
            lake.discover_joinable("ghost", "id")
        with pytest.raises(DatasetNotFound):
            lake.discover_union("ghost")
    assert parallel.discover_batch([]) == []


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_single_table_lake(workers):
    def build(parallelism, cache):
        lake = DataLake(parallelism=parallelism, cache=cache)
        lake.ingest_table("solo", {"id": [1, 2, 3], "city": ["a", "b", "c"]})
        return lake

    serial, parallel = build(1, False), build(workers, True)
    for lake in (serial, parallel):
        assert lake.discover_related("solo") == []
        assert lake.discover_union("solo") == []
        assert lake.discover_joinable("solo", "id") == []
    assert (parallel.keyword_search("city")
            == serial.keyword_search("city"))
    assert parallel.keyword_search("city")[0].table == "solo"


def test_async_mode_equivalent(module_workload):
    serial, _ = _build_lakes(module_workload, 1)
    parallel = _ingest_workload(
        DataLake(parallelism=8, cache=True, async_maintenance=True),
        module_workload)
    try:
        _assert_equivalent(serial, parallel, module_workload)
    finally:
        parallel.close()
