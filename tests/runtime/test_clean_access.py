"""Regression: index accessors must not pay maintenance costs when clean.

Before the fast path existed, every ``DataLake.discovery`` /
keyword-searcher access ran the traced ``refresh()`` even when nothing
was dirty — so a read-heavy workload burned maintenance spans per
query.
These tests pin the fixed behavior through the observability layer:
span counts for the maintenance paths stay flat across repeated clean
queries while the ``runtime.index.clean_accesses`` counter grows.  Each
test runs under a recorder that keeps every span.
"""

import pytest

from repro.core.lake import DataLake
from repro.discovery.table_union import TableUnionSearch
from repro.obs import get_recorder, get_registry, reset

pytestmark = pytest.mark.usefixtures("keep_every_span")


def _span_count(name):
    return sum(1 for span in get_recorder().all_spans() if span.name == name)


def _populate(lake):
    lake.ingest_table("orders", {"id": [1, 2, 3], "city": ["a", "b", "c"]})
    lake.ingest_table("users", {"id": [2, 3, 4], "city": ["b", "c", "d"]})
    return lake


def test_clean_incremental_access_skips_refresh():
    reset()
    lake = _populate(DataLake(cache=False))
    # each index applies its own pending changes when first read
    lake.discover_related("orders")
    lake.keyword_search("city")
    lake.discover_union("orders")
    refreshes = _span_count("maintenance.runtime.refresh")
    clean_before = get_registry().counter("runtime.index.clean_accesses").value
    for _ in range(5):
        lake.discover_related("orders")
        lake.keyword_search("city")
        lake.discover_union("orders")
    assert _span_count("maintenance.runtime.refresh") == refreshes, (
        "clean accessor re-ran refresh() with an empty dirty set")
    clean_after = get_registry().counter("runtime.index.clean_accesses").value
    assert clean_after - clean_before >= 15

    # a write applies its own Aurum delta and leaves the keyword and union
    # indexes' for their next queries
    lake.ingest_table("late", {"id": [9], "city": ["z"]})
    assert _span_count("maintenance.runtime.refresh") == refreshes + 1
    assert lake.maintainer.dirty() == ["late"] and "late" in lake.maintainer
    lake.discover_related("late")
    assert _span_count("maintenance.runtime.refresh") == refreshes + 1
    lake.keyword_search("late")
    assert _span_count("maintenance.runtime.refresh") == refreshes + 2
    lake.discover_union("late")
    assert _span_count("maintenance.runtime.refresh") == refreshes + 3
    assert lake.maintainer.dirty() == []


def test_idle_async_queries_do_not_drain():
    reset()
    lake = DataLake(cache=False, async_maintenance=True)
    try:
        _populate(lake)
        lake.discover_related("orders")  # may drain pending ingest jobs
        drains = _span_count("maintenance.runtime.drain")
        for _ in range(5):
            lake.discover_related("orders")
            lake.keyword_search("city")
        assert _span_count("maintenance.runtime.drain") == drains, (
            "idle queries forced scheduler drains with nothing outstanding")
        assert lake.runtime.outstanding() == 0
    finally:
        lake.close()


def test_union_queries_apply_only_the_tables_written_since(monkeypatch):
    """Union search is kept by deltas: repeated union queries on a clean
    lake apply nothing, and after one write the next union query
    profiles that table alone."""
    reset()
    lake = _populate(DataLake(cache=False))
    profiled = []
    add_table = TableUnionSearch.add_table

    def counted(self, table):
        profiled.append(table.name)
        add_table(self, table)

    monkeypatch.setattr(TableUnionSearch, "add_table", counted)
    lake.discover_union("orders")  # the first union query applies the backlog
    assert profiled == ["orders", "users"]
    refreshes = _span_count("maintenance.runtime.refresh")
    for _ in range(4):
        lake.discover_union("orders")
    assert _span_count("maintenance.runtime.refresh") == refreshes
    lake.ingest_table("late", {"id": [9], "city": ["z"]})
    lake.discover_union("orders")
    lake.discover_union("users")
    assert profiled == ["orders", "users", "late"]
    (applied,) = [span.tags["delta_tables"] for span in get_recorder().all_spans()
                  if span.name == "maintenance.runtime.refresh"][refreshes:]
    assert applied == 1


def test_reset_keeps_the_instruments_a_live_lake_holds():
    """``obs.reset()`` starts a fresh window for a lake built before it:
    its gauges keep exporting and its counters count from zero."""
    lake = _populate(DataLake())
    lake.discover_related("orders")
    reset()
    epoch = "exploration.epoch"
    metrics = get_registry().metrics()
    assert metrics[epoch].value == lake.epochs.epoch() > 0
    assert metrics["exploration.cache.entries"].value == len(lake.query_cache) == 1
    assert metrics["runtime.index.clean_accesses"].value == 0
    for k in (2, 3, 4):  # cache misses: each reads the clean index
        lake.discover_related("orders", k=k)
    assert get_registry().metrics()["runtime.index.clean_accesses"].value >= 3
    lake.ingest_table("late", {"id": [9], "city": ["z"]})
    assert get_registry().metrics()[epoch].value == lake.epochs.epoch()
