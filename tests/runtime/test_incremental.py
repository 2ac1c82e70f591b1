"""Tests for dirty-set tracking and delta-based index upkeep."""

import pytest

from repro.core.dataset import Table
from repro.core.errors import DeadlineExceeded
from repro.core.lake import DataLake
from repro.discovery.aurum import Aurum
from repro.discovery.profiles import TableProfiler
from repro.obs import request_context
from repro.runtime import DirtySet, IncrementalIndexMaintainer


def make_table(name, key_prefix="c", rows=30, extra=None):
    data = {
        f"{name}_id": [f"{name}-{i}" for i in range(rows)],
        "customer_id": [f"{key_prefix}{i}" for i in range(rows)],
    }
    data.update(extra or {})
    return Table.from_columns(name, data)


class TestDirtySet:
    def test_mark_and_take(self):
        dirty = DirtySet()
        a = make_table("a")
        assert dirty.mark(a) is True
        assert "a" in dirty and len(dirty) == 1
        taken = dirty.take()
        assert taken == [("a", a)]
        assert len(dirty) == 0

    def test_latest_payload_wins(self):
        dirty = DirtySet()
        old = make_table("a", rows=5)
        new = make_table("a", rows=9)
        assert dirty.mark(old) is True
        assert dirty.mark(new) is False  # coalesced, not a new entry
        assert len(dirty) == 1
        assert dirty.take() == [("a", new)]

    def test_latest_change_wins_between_payload_and_removal(self):
        dirty = DirtySet()
        table = make_table("a")
        assert dirty.mark(table) is True
        assert dirty.mark_removed("a") is False
        assert dirty.take() == [("a", None)]
        dirty.mark_removed("a")
        dirty.mark(table)
        assert dirty.take() == [("a", table)]

    def test_peek_does_not_drain(self):
        dirty = DirtySet()
        dirty.mark(make_table("x"))
        assert dirty.peek() == ["x"]
        assert len(dirty) == 1

    def test_restore_keeps_mark_order_and_a_newer_change(self):
        dirty = DirtySet()
        a, b = make_table("a"), make_table("b")
        dirty.mark(a)
        dirty.mark(b)
        taken = dirty.take()
        dirty.mark_removed("b")  # marked again while the apply ran
        dirty.mark(make_table("c"))
        dirty.restore(taken)
        assert dirty.peek() == ["a", "b", "c"]
        assert dict(dirty.take())["b"] is None


class TestIncrementalMaintainer:
    def test_new_tables_become_queryable(self):
        maintainer = IncrementalIndexMaintainer()
        maintainer.note(make_table("customers"))
        maintainer.note(make_table("orders"))
        engine = maintainer.engine()
        hits = engine.joinable("orders", "customer_id", k=3)
        assert hits and hits[0][0] == ("customers", "customer_id")
        assert len(maintainer) == 2 and "orders" in maintainer

    def test_later_tables_use_delta_not_full_build(self, monkeypatch):
        maintainer = IncrementalIndexMaintainer()
        maintainer.note(make_table("customers"))
        maintainer.note(make_table("orders"))
        maintainer.refresh()  # first refresh may build from scratch

        real_build = Aurum.build

        def forbidden_build(self):
            if not self._built:  # a real (non-short-circuited) full rebuild
                raise AssertionError("full build() called on the incremental path")
            return real_build(self)

        monkeypatch.setattr(Aurum, "build", forbidden_build)
        maintainer.note(make_table("products"))
        maintainer.refresh()
        hits = maintainer.engine().related_tables("products", k=3)
        assert {name for name, _ in hits} >= {"customers", "orders"}
        # a changed re-ingest of an indexed table goes through update_table
        maintainer.note(make_table("orders", key_prefix="z"))
        maintainer.refresh()
        hits = maintainer.engine().joinable("orders", "customer_id", k=3)
        assert ("customers", "customer_id") not in [ref for ref, _ in hits]

    def test_refresh_is_idempotent_when_clean(self):
        maintainer = IncrementalIndexMaintainer()
        maintainer.note(make_table("solo"))
        assert maintainer.refresh() == 1
        assert maintainer.refresh() == 0

    def test_keyword_index_is_persistent_and_updatable(self):
        maintainer = IncrementalIndexMaintainer()
        maintainer.note(make_table("events", extra={"city": ["berlin"] * 30}))
        first = maintainer.searcher()
        assert {h.table for h in first.search("berlin")} == {"events"}
        maintainer.note(make_table("venues", extra={"city": ["berlin"] * 30}))
        second = maintainer.searcher()
        assert second is first  # same instance, never rebuilt
        assert {h.table for h in second.search("berlin")} == {"events", "venues"}

    def test_changed_table_is_reindexed(self):
        maintainer = IncrementalIndexMaintainer()
        maintainer.note(make_table("events", extra={"city": ["berlin"] * 30}))
        maintainer.refresh()
        # same name, substantially different content
        maintainer.note(make_table("events", key_prefix="z",
                                   extra={"city": ["tokyo"] * 30}))
        searcher = maintainer.searcher()
        assert searcher.search("berlin") == []
        assert {h.table for h in searcher.search("tokyo")} == {"events"}

    def test_removed_table_leaves_both_indexes(self):
        changes = []
        maintainer = IncrementalIndexMaintainer(on_change=changes.append)
        maintainer.note(make_table("events", extra={"city": ["berlin"] * 30}))
        maintainer.note(make_table("venues", extra={"city": ["berlin"] * 30}))
        maintainer.refresh()
        maintainer.note_removed("events")
        assert changes[-1] == "events"  # a removal moves the epochs too
        assert {h.table for h in maintainer.searcher().search("berlin")} == {"venues"}
        assert maintainer.engine().table_names() == ["venues"]
        assert "events" not in maintainer and len(maintainer) == 1
        maintainer.note_removed("never-indexed")
        assert maintainer.refresh() == 1  # applied, and changes nothing
        assert maintainer.engine().table_names() == ["venues"]


class TestQueryRefreshDeadline:
    def test_expired_deadline_leaves_the_delta_for_the_next_caller(self):
        maintainer = IncrementalIndexMaintainer()
        maintainer.note(make_table("customers"))
        maintainer.refresh()
        maintainer.note(make_table("orders"))
        with request_context(timeout=0.0):
            with pytest.raises(DeadlineExceeded, match="maintenance.refresh"):
                maintainer.engine()
            with pytest.raises(DeadlineExceeded, match="maintenance.refresh"):
                maintainer.searcher()
        assert maintainer.dirty() == ["orders"]
        assert "orders" in maintainer.engine().table_names()
        assert {h.table for h in maintainer.searcher().search("orders")} == {"orders"}


class TestFailedRefresh:
    """A refresh that raises keeps its changes pending: the next refresh
    applies them, and the lake answers as one that never failed."""

    TABLES = {
        "big": {"id": ["a", "b", "c", "d"], "city": ["oslo", "rome", "lima", "kyiv"]},
        "other": {"id": ["b", "c", "d"], "tier": ["gold", "gold", "tin"]},
        "third": {"id": ["c", "d", "e"], "city": ["lima", "kyiv", "bern"]},
    }

    @classmethod
    def _filled(cls, lake):
        for name, data in cls.TABLES.items():
            lake.ingest_table(name, data)
        return lake

    @staticmethod
    def _answers(lake):
        return ([lake.discover_related(name) for name in ("big", "other", "third")],
                lake.discover_joinable("other", "id"),
                lake.discover_union("third"),
                lake.keyword_search("d"))

    @staticmethod
    def _fail_once(monkeypatch, table_name):
        original = TableProfiler.profile_column
        failures = []

        def profile_column(self, name, column):
            if name == table_name and not failures:
                failures.append(name)
                raise RuntimeError(f"profiling {name} failed")
            return original(self, name, column)

        monkeypatch.setattr(TableProfiler, "profile_column", profile_column)
        return failures

    def test_sync_lake_answers_as_a_clean_one(self, monkeypatch):
        expected = self._answers(self._filled(DataLake()))
        lake = self._filled(DataLake())
        self._fail_once(monkeypatch, "other")
        with pytest.raises(RuntimeError, match="profiling other"):
            lake.discover_related("big")
        assert lake.maintainer.dirty() == ["big", "other", "third"]
        assert self._answers(lake) == expected
        assert lake.maintainer.dirty() == []

    def test_async_retry_applies_the_restored_changes(self, monkeypatch):
        expected = self._answers(self._filled(DataLake()))
        lake = DataLake(async_maintenance=True)
        failures = self._fail_once(monkeypatch, "other")
        try:
            self._filled(lake)
            lake.drain()
            assert failures == ["other"]
            assert lake.runtime.dead_letter() == []
            assert self._answers(lake) == expected
        finally:
            lake.close()


class TestDeltaEquivalence:
    """A delta-built EKG answers like a from-scratch build."""

    def test_joinable_matches_full_build(self):
        tables = [
            make_table("customers"),
            make_table("orders"),
            make_table("tickets"),
            make_table("refunds"),
        ]
        full = Aurum()
        for table in tables:
            full.add_table(table)
        full.build()

        delta = Aurum()
        for table in tables:
            delta.add_table(table)
            delta.build_delta()

        for query in ("orders", "tickets", "refunds"):
            full_hits = full.joinable(query, "customer_id", k=3)
            delta_hits = delta.joinable(query, "customer_id", k=3)
            assert [ref for ref, _ in full_hits] == [ref for ref, _ in delta_hits]

    def test_pkfk_matches_full_build(self):
        """Delta and full builds report the same PK-FK pairs and weights in
        either ingest order; each orientation carries its own containment,
        and the undirected edge keeps the larger one."""
        cases = [
            ([Table.from_columns("dim", {"customer_id": [f"c{i}" for i in range(40)]}),
              Table.from_columns("fact", {"customer_id": [f"c{i % 20}" for i in range(40)]})],
             [(("dim", "customer_id"), ("fact", "customer_id"), 1.0)]),
            # two keys, each containing the other
            ([Table.from_columns("t1", {"id": list(range(100))}),
              Table.from_columns("t2", {"id": list(range(90))})],
             [(("t1", "id"), ("t2", "id"), 1.0), (("t2", "id"), ("t1", "id"), 0.9)]),
            # two keys, only one containing the other
            ([Table.from_columns("big", {"id": list(range(100))}),
              Table.from_columns("small", {"id": list(range(50))})],
             [(("big", "id"), ("small", "id"), 1.0)]),
        ]
        for tables, expected in cases:
            for ingest_order in (tables, tables[::-1]):
                full = Aurum()
                for table in ingest_order:
                    full.add_table(table)
                full.build()

                delta = Aurum()
                for table in ingest_order:
                    delta.add_table(table)
                    delta.build_delta()

                key, foreign, weight = expected[0]
                for engine in (full, delta):
                    assert engine.pkfk_candidates() == expected
                    assert engine.ekg.relations_between(key, foreign)["pkfk"] == weight


class TestBuildDeltaEdgeCases:
    def test_delta_with_no_staging_falls_back_to_full(self):
        engine = Aurum()
        engine.add_table(make_table("a"))
        engine.add_table(make_table("b"))
        ekg = engine.build_delta()  # first call: everything fresh == full build
        assert ekg.num_nodes == 4
        assert engine.build_delta() is ekg  # already built and clean

    def test_traced_metadata_present(self):
        # the lint requires build_delta/refresh to be traced entry points
        assert hasattr(Aurum.build_delta, "__obs_span__")
        assert hasattr(IncrementalIndexMaintainer.refresh, "__obs_span__")
        span = Aurum.build_delta.__obs_span__
        assert span["tier"] == "maintenance" and span["system"] == "Aurum"
