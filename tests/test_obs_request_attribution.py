"""Zero-orphan attribution: every span carries the originating request id.

The acceptance property for the context layer: run a DataLake through
ingest + the full discovery surface in each execution mode — sync,
async-maintenance (scheduler worker threads), and sync with the query
cache on — and *no* recorded span may be missing its ``request_id``.
Scheduler job spans must additionally carry the exact request id of the
ingest call that enqueued them, which proves the context crossed the
thread boundary rather than being re-minted.  These tests run under a
recorder that keeps every span; the tests at the end of the module pin
what the process default recorder keeps.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.lake import DataLake
from repro.datagen import LakeGenerator
from repro.obs import (RequestContext, bind_context, get_event_log, get_recorder,
                       get_registry, request_context, reset, traced)
from repro.obs.instrument import ROOTS_PER_RECORDED


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    yield
    reset()


keep_every_span = pytest.mark.usefixtures("keep_every_span")


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


@keep_every_span
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


@keep_every_span
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


@keep_every_span
def test_discovery_spans_carry_the_query_request_and_the_cache_counts_it(workload):
    lake = DataLake(cache=True)
    try:
        for table in workload.tables:
            lake.ingest(Dataset(name=table.name, payload=table, format="table"))
        name = workload.tables[0].name
        before = lake.query_cache.stats()
        with request_context() as ctx:
            first = lake.discover_related(name, k=3)
            assert lake.discover_related(name, k=3) == first
        related = [span for span in _all_spans()
                   if span.name == "exploration.lake.discover_related"]
        assert len(related) == 2
        assert {span.request_id for span in related} == {ctx.request_id}
        # the cache's exact counts are its record: one miss, then one hit
        after = lake.query_cache.stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1
    finally:
        lake.close()
    _assert_no_orphans()


@keep_every_span
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


# -- the process default recorder: the request root decides -------------------


def test_default_recorder_records_a_small_share_of_roots():
    recorder = get_recorder()
    assert recorder.share == 1 / ROOTS_PER_RECORDED

    @traced("test.sampled_root", tier="exploration")
    def operation():
        with get_recorder().span("test.sampled_child"):
            return 1

    calls = 2_000
    for _ in range(calls):
        operation()
    roots = [root for root in recorder.roots() if root.name == "test.sampled_root"]
    # about calls / 64 = 31 expected; the bound is loose because the draw is random
    assert 0 < len(roots) < calls // 20
    for root in roots:  # a recorded request is recorded whole
        assert [child.name for child in root.children] == ["test.sampled_child"]
        assert root.children[0].request_id == root.request_id


def test_unrecorded_requests_still_attribute_their_events(workload):
    lake = DataLake(cache=True)
    try:
        _exercise(lake, workload)
    finally:
        lake.close()
    events = get_event_log().events()
    assert events
    assert [event.kind for event in events if event.request_id is None] == []


def test_recorded_async_ingest_records_its_scheduler_jobs(workload):
    lake = DataLake(async_maintenance=True)
    recorded = RequestContext("req-recorded", draw=0.0)  # below any share
    try:
        table = workload.tables[0]
        with bind_context(recorded):
            lake.ingest(Dataset(name=table.name, payload=table, format="table"))
        lake.drain()
        ingest = [span for span in _all_spans()
                  if span.name == "ingestion.lake.ingest"]
        jobs = [span for span in _all_spans()
                if span.name == "maintenance.runtime.job"]
        assert [span.request_id for span in ingest] == [recorded.request_id]
        assert jobs, "async maintenance scheduled no jobs"
        assert {span.request_id for span in jobs} == {recorded.request_id}
    finally:
        lake.close()


def test_unrecorded_async_ingest_records_nothing_on_its_jobs(workload):
    lake = DataLake(async_maintenance=True)
    unrecorded = RequestContext("req-unrecorded", draw=0.99)
    try:
        table = workload.tables[0]
        with bind_context(unrecorded):
            lake.ingest(Dataset(name=table.name, payload=table, format="table"))
        results = lake.drain()
        assert results and all(result.ok for result in results.values())
        assert [span.name for span in _all_spans()
                if span.request_id == unrecorded.request_id] == []
        assert [span for span in _all_spans()
                if span.name == "maintenance.runtime.job"] == []
        # still attributed: the commit event carries the request id
        assert get_event_log().events(kind="ingest.committed",
                                      request_id=unrecorded.request_id)
    finally:
        lake.close()


def test_warm_cache_hit_emits_no_event_and_registers_no_instrument(workload):
    lake = DataLake(cache=True)
    try:
        for table in workload.tables:
            lake.ingest(Dataset(name=table.name, payload=table, format="table"))
        name = workload.tables[0].name
        # a recorded miss and hit bind the entry points' span histograms
        with bind_context(RequestContext("req-recorded", draw=0.0)):
            lake.discover_related(name, k=3)
            lake.discover_related(name, k=3)
        log, registry = get_event_log(), get_registry()
        emitted, instruments = log.emitted, len(registry)
        hits = lake.query_cache.stats()["hits"]
        for _ in range(200):
            lake.discover_related(name, k=3)
        assert lake.query_cache.stats()["hits"] == hits + 200
        assert log.emitted == emitted
        assert len(registry) == instruments
    finally:
        lake.close()
