"""Regression: index accessors must not pay maintenance costs when clean.

Before the fast path existed, every ``DataLake.discovery`` /
``_keyword_searcher()`` access ran the traced ``refresh()`` even when
nothing was dirty — so a read-heavy workload burned maintenance spans
per query.
These tests pin the fixed behavior through the observability layer:
span counts for the maintenance paths stay flat across repeated clean
queries while the ``runtime.index.clean_accesses`` counter grows.  Each
test runs under a recorder that keeps every span.
"""

import threading

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
    refreshes = _span_count("maintenance.runtime.refresh")
    clean_before = get_registry().counter("runtime.index.clean_accesses").value
    for _ in range(5):
        lake.discover_related("orders")
        lake.keyword_search("city")
    assert _span_count("maintenance.runtime.refresh") == refreshes, (
        "clean accessor re-ran refresh() with an empty dirty set")
    clean_after = get_registry().counter("runtime.index.clean_accesses").value
    assert clean_after - clean_before >= 10

    # a write applies its own Aurum delta and leaves the keyword index's
    # for the next keyword query
    lake.ingest_table("late", {"id": [9], "city": ["z"]})
    assert _span_count("maintenance.runtime.refresh") == refreshes + 1
    assert lake.maintainer.dirty() == ["late"] and "late" in lake.maintainer
    lake.discover_related("late")
    assert _span_count("maintenance.runtime.refresh") == refreshes + 1
    lake.keyword_search("late")
    assert _span_count("maintenance.runtime.refresh") == refreshes + 2


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


def test_union_index_rebuilds_only_on_epoch_move():
    reset()
    lake = _populate(DataLake(cache=False))
    for _ in range(4):
        lake.discover_union("orders")
    assert _span_count("maintenance.union.index_build") == 1
    lake.ingest_table("late", {"id": [9], "city": ["z"]})
    lake.discover_union("orders")
    lake.discover_union("users")
    assert _span_count("maintenance.union.index_build") == 2


def test_older_union_build_never_replaces_a_newer_one(monkeypatch):
    """A build that started before an ingest must not publish over the
    index built after it: the lake would lose the ingested table and
    rebuild again on the next query."""
    reset()
    lake = _populate(DataLake(cache=False))
    parked, release = threading.Event(), threading.Event()
    add_table = TableUnionSearch.add_table

    def park_once(self, table):
        if threading.current_thread().name == "stale-build" and not parked.is_set():
            parked.set()
            release.wait(10)
        add_table(self, table)

    monkeypatch.setattr(TableUnionSearch, "add_table", park_once)
    stale = threading.Thread(target=lake.discover_union, args=("orders",),
                             name="stale-build")
    stale.start()
    try:
        assert parked.wait(10)
        lake.ingest_table("late", {"id": [9], "city": ["z"]})
        lake.discover_union("orders")  # builds and publishes the newer index
    finally:
        release.set()
        stale.join(10)
    assert not stale.is_alive()
    builds = _span_count("maintenance.union.index_build")
    assert "late" in lake._union_search().tables()
    assert _span_count("maintenance.union.index_build") == builds, (
        "the stale build replaced the newer index, so the query rebuilt it")


def test_reader_of_an_older_epoch_takes_the_newer_index(monkeypatch):
    """A reader that read epoch E, then saw E+1's index published, uses
    that index: building E's would be thrown away unpublished."""
    reset()
    lake = _populate(DataLake(cache=False))
    lake.discover_union("orders")
    read, go = threading.Event(), threading.Event()
    epoch = lake._epochs.epoch

    def pause_after_read():
        value = epoch()
        if threading.current_thread().name == "late-reader":
            read.set()
            go.wait(10)
        return value

    monkeypatch.setattr(lake._epochs, "epoch", pause_after_read)
    reader = threading.Thread(target=lake.discover_union, args=("orders",),
                              name="late-reader")
    reader.start()
    try:
        assert read.wait(10)
        lake.ingest_table("late", {"id": [9], "city": ["z"]})
        lake.discover_union("orders")  # builds and publishes the newer index
        builds = _span_count("maintenance.union.index_build")
    finally:
        go.set()
        reader.join(10)
    assert not reader.is_alive()
    assert _span_count("maintenance.union.index_build") == builds, (
        "the late reader built an index for an epoch already superseded")


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
