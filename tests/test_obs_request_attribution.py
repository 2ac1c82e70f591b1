"""Zero-orphan attribution: every span carries the originating request id.

The acceptance property for the context layer: run a DataLake through
ingest + the full discovery surface in each execution mode — sync,
async-maintenance (scheduler worker threads), and sync with the query
cache on — and *no* recorded span may be missing its ``request_id``.
Scheduler job spans must additionally carry the exact request id of the
ingest call that enqueued them, which proves the context crossed the
thread boundary rather than being re-minted.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.lake import DataLake
from repro.datagen import LakeGenerator
from repro.obs import get_event_log, get_recorder, request_context, reset


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    yield
    reset()


def _all_spans():
    return [span for root in get_recorder().roots() for span in root.walk()]


def _exercise(lake, workload):
    for table in workload.tables:
        lake.ingest(Dataset(name=table.name, payload=table, format="table"))
    name = workload.tables[0].name
    column = workload.tables[0].column_names[0]
    lake.discover_related(name, k=3)
    lake.discover_union(name, k=3)
    lake.discover_joinable(name, column, k=3)
    lake.keyword_search("label", k=3)


def _assert_no_orphans():
    spans = _all_spans()
    assert spans, "the run recorded no spans at all"
    orphans = [span.name for span in spans if not span.request_id]
    assert orphans == [], f"spans without a request id: {sorted(set(orphans))}"
    unattributed = [event.kind for event in get_event_log().events()
                    if event.request_id is None]
    assert unattributed == [], (
        f"events without a request id: {sorted(set(unattributed))}")


def _workload(seed):
    return LakeGenerator(seed=seed).generate(
        num_pools=2, tables_per_pool=2, rows_per_table=30, pool_size=40)


MODES = ("sync", "async", "cached")


def _build(mode):
    if mode == "sync":
        return DataLake(cache=False)
    if mode == "async":
        return DataLake(async_maintenance=True)
    return DataLake(cache=True)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=5_000),
       mode=st.sampled_from(MODES))
def test_no_orphan_spans_in_any_mode(seed, mode):
    reset()
    lake = _build(mode)
    try:
        _exercise(lake, _workload(seed))
        if mode == "async":
            lake.drain()
    finally:
        lake.close()
    _assert_no_orphans()


def test_scheduler_jobs_inherit_the_submitting_request(workload):
    """Async maintenance spans carry the *ingest's* id, not a fresh one."""
    lake = DataLake(async_maintenance=True)
    try:
        for table in workload.tables:
            lake.ingest(Dataset(name=table.name, payload=table, format="table"))
        lake.drain()
        ingest_ids = {span.request_id for span in _all_spans()
                      if span.name == "ingestion.lake.ingest"}
        job_spans = [span for span in _all_spans()
                     if span.name == "maintenance.runtime.job"]
        assert job_spans, "async maintenance scheduled no jobs"
        for span in job_spans:
            assert span.request_id in ingest_ids, (
                f"job {span.tags.get('job')} ran under {span.request_id!r}, "
                f"not one of its submitters")
    finally:
        lake.close()


def test_discovery_spans_and_cache_events_carry_the_query_request(workload):
    lake = DataLake(cache=True)
    try:
        for table in workload.tables:
            lake.ingest(Dataset(name=table.name, payload=table, format="table"))
        name = workload.tables[0].name
        with request_context() as ctx:
            lake.discover_related(name, k=3)
        related = [span for span in _all_spans()
                   if span.name == "exploration.lake.discover_related"]
        assert related
        assert {span.request_id for span in related} == {ctx.request_id}
        # cache events raised on this query belong to the same request
        cache_events = [event for event in get_event_log().events()
                        if event.kind.startswith("cache.")]
        assert cache_events
        assert {event.request_id for event in cache_events} >= {ctx.request_id}
    finally:
        lake.close()
    _assert_no_orphans()


def test_explicit_tenant_rides_into_span_tags(workload):
    lake = DataLake()
    try:
        table = workload.tables[0]
        with request_context(tenant="acme") as ctx:
            lake.ingest(Dataset(name=table.name, payload=table, format="table"))
        ingest = [span for span in _all_spans()
                  if span.name == "ingestion.lake.ingest"]
        assert ingest[0].request_id == ctx.request_id
        assert ingest[0].tags.get("tenant") == "acme"
    finally:
        lake.close()
