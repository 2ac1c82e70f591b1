"""Tests for dirty-set tracking and delta-based index upkeep."""

import contextlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.dataset import Dataset, Table
from repro.core.errors import DatasetNotFound, DeadlineExceeded, SchemaError
from repro.core.lake import DataLake
from repro.discovery.aurum import Aurum
from repro.discovery.profiles import TableProfiler
from repro.discovery.table_union import TableUnionSearch
from repro.exploration.keyword import KeywordSearch
from repro.obs import request_context
from repro.runtime import DirtySet, IncrementalIndexMaintainer


def make_columns(name, key_prefix="c", rows=30, extra=None):
    data = {
        f"{name}_id": [f"{name}-{i}" for i in range(rows)],
        "customer_id": [f"{key_prefix}{i}" for i in range(rows)],
    }
    data.update(extra or {})
    return data


def make_table(name, key_prefix="c", rows=30, extra=None):
    return Table.from_columns(name, make_columns(name, key_prefix, rows, extra))


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
        # applied, and changes nothing; union search, which no query read,
        # applies the removal of "events" too
        assert maintainer.refresh() == 2
        assert maintainer.engine().table_names() == ["venues"]
        assert maintainer.union_index().tables() == ["venues"]


class TestQueryRefreshDeadline:
    def test_expired_deadline_leaves_the_delta_for_the_next_caller(self):
        # both indexes pending, then the keyword backlog alone
        for aurum_current in (False, True):
            maintainer = IncrementalIndexMaintainer()
            maintainer.note(make_table("customers"))
            maintainer.refresh()
            maintainer.note(make_table("orders"))
            readers = [maintainer.engine, maintainer.searcher]
            if aurum_current:
                maintainer.engine()
                readers = [maintainer.searcher]
            with request_context(timeout=0.0):
                for read in readers:
                    with pytest.raises(DeadlineExceeded, match="maintenance.refresh"):
                        read()
            assert maintainer.dirty() == ["orders"]
            assert "orders" in maintainer.engine().table_names()
            assert {h.table for h in maintainer.searcher().search("orders")} == {"orders"}

    def test_expired_write_leaves_its_delta_to_the_next_reader(self):
        lake = DataLake(cache=False)
        lake.ingest_table("customers", make_columns("customers"))
        lake.discover_related("customers")  # Aurum is built: writes apply their delta
        with request_context(timeout=0.0):
            lake.ingest_table("orders", make_columns("orders"))  # returns
        assert "orders" in lake and "orders" not in lake.maintainer
        assert lake.maintainer._dirty[lake.maintainer._aurum].peek() == ["orders"]
        hits = lake.discover_joinable("orders", "customer_id", k=1)
        assert hits[0][0] == ("customers", "customer_id")
        assert "orders" in lake.maintainer


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

    #: an index's apply step, the table it applies, and the query whose
    #: refresh runs it in a sync lake
    FAILING = {
        "aurum": (TableProfiler, "profile_column", lambda name, column: name,
                  lambda lake: lake.discover_related("big")),
        "keyword": (KeywordSearch, "add_table", lambda table: table.name,
                    lambda lake: lake.keyword_search("d")),
    }

    @classmethod
    def _fail_once(cls, monkeypatch, index, table_name):
        owner, method, table_of, _ = cls.FAILING[index]
        original = getattr(owner, method)
        failures = []

        def failing(self, *args):
            if table_of(*args) == table_name and not failures:
                failures.append(table_name)
                raise RuntimeError(f"{method} of {table_name} failed")
            return original(self, *args)

        monkeypatch.setattr(owner, method, failing)
        return failures

    def test_sync_lake_answers_as_a_clean_one(self, monkeypatch):
        expected = self._answers(self._filled(DataLake()))
        for index, (*_, query) in self.FAILING.items():
            with monkeypatch.context() as patch:
                lake = self._filled(DataLake())
                self._fail_once(patch, index, "other")
                with pytest.raises(RuntimeError, match="of other failed"):
                    query(lake)
                assert lake.maintainer.dirty() == ["big", "other", "third"]
                assert self._answers(lake) == expected
                assert lake.maintainer.dirty() == []

    def test_failed_write_apply_leaves_the_change_to_the_next_query(self, monkeypatch):
        def started(lake):
            lake.ingest_table("big", self.TABLES["big"])
            lake.discover_related("big")  # Aurum is built: writes apply their delta
            lake.ingest_table("third", self.TABLES["third"])
            return lake

        clean = started(DataLake())
        clean.ingest_table("other", self.TABLES["other"])
        lake = started(DataLake())
        self._fail_once(monkeypatch, "aurum", "other")
        with pytest.raises(RuntimeError, match="of other failed"):
            lake.ingest_table("other", self.TABLES["other"])
        assert lake.dataset("other").format == "table"  # committed
        assert "other" not in lake.maintainer
        assert lake.maintainer._dirty[lake.maintainer._aurum].peek() == ["other"]
        assert self._answers(lake) == self._answers(clean)
        assert lake.maintainer.dirty() == []

    def test_async_retry_applies_the_restored_changes(self, monkeypatch):
        def started(lake):
            lake.ingest_table("big", self.TABLES["big"])
            lake.discover_related("big")  # Aurum is built: writes apply their delta
            return lake

        expected = self._answers(self._filled(started(DataLake())))
        lake = started(DataLake(async_maintenance=True))
        try:
            failures = self._fail_once(monkeypatch, "aurum", "other")
            self._filled(lake)
            results = lake.drain()
            # the apply failed inside a maintain job, whose retry applied it
            assert failures == ["other"]
            assert lake.runtime.dead_letter() == []
            attempts = sorted(r.attempts for r in results.values())
            assert attempts == [1, 1, 1, 2]
            # the retry resumed at the apply: no write was registered twice
            assert [len(lake.provenance.events_about(name))
                    for name in ("big", "other", "third")] == [2, 1, 1]
            assert lake.maintainer._dirty[lake.maintainer._aurum].peek() == []
            assert "other" in lake.maintainer
            assert self._answers(lake) == expected
        finally:
            lake.close()


class TestKeywordUpkeepFollowsItsReaders:
    """Aurum applies a change at the first query of either kind; the
    keyword index applies it at the first keyword query."""

    @staticmethod
    def _count_keyword_upkeep(monkeypatch):
        calls = {"add_table": [], "remove_table": []}
        for method, seen in calls.items():
            original = getattr(KeywordSearch, method)

            def counted(self, arg, _original=original, _seen=seen):
                _seen.append(getattr(arg, "name", arg))
                return _original(self, arg)

            monkeypatch.setattr(KeywordSearch, method, counted)
        return calls

    def test_discovery_reads_leave_the_keyword_backlog(self, monkeypatch):
        calls = self._count_keyword_upkeep(monkeypatch)
        lake = DataLake(cache=False)
        lake.ingest_table("customers", make_columns("customers"))
        lake.discover_related("customers")
        lake.ingest_table("orders", make_columns("orders"))
        lake.discover_joinable("orders", "customer_id")
        lake.ingest_table("orders", make_columns("orders", key_prefix="z"))
        lake.ingest(Dataset(name="customers", payload="free text", format="text"))
        lake.discover_related("orders")
        assert calls == {"add_table": [], "remove_table": []}
        assert lake.maintainer.dirty() == ["customers", "orders"]
        assert "orders" in lake.maintainer and "customers" not in lake.maintainer

    def test_keyword_query_applies_each_pending_table_once(self, monkeypatch):
        calls = self._count_keyword_upkeep(monkeypatch)
        lake = DataLake(cache=False)
        for prefix in ("a", "b", "c"):
            lake.ingest_table("events", make_columns("events", key_prefix=prefix))
        lake.ingest_table("venues", make_columns("venues"))
        lake.discover_related("events")
        assert calls["add_table"] == []
        assert {hit.table for hit in lake.keyword_search("customer")} == {"events", "venues"}
        assert sorted(calls["add_table"]) == ["events", "venues"]
        assert calls["remove_table"] == []

    def test_keyword_query_applies_aurum_too(self):
        lake = DataLake(cache=False)
        lake.ingest_table("events", make_columns("events"))
        lake.keyword_search("customer")
        assert "events" in lake.maintainer
        # only union search's set, which a union query applies, still holds it
        assert lake.maintainer.dirty() == ["events"]
        lake.discover_union("events")
        assert lake.maintainer.dirty() == []


class EagerMaintainer:
    """The reference upkeep, written out so that it shares no code with the
    maintainer under test: every query applies each pending change to both
    indexes, the keyword index first.  Once Aurum has been built, a write
    applies its change to Aurum at once, as the lake's writers do; the
    keyword index still waits for the next query."""

    def __init__(self, on_change):
        self._aurum, self._keyword = Aurum(), KeywordSearch()
        # name -> newest table, or None for a removal; a mark keeps its place
        self._aurum_pending, self._keyword_pending = {}, {}
        self._indexed = set()
        self._built = False
        self._on_change = on_change

    def note(self, table):
        self._aurum_pending[table.name] = self._keyword_pending[table.name] = table
        self._on_change(table.name)

    def note_removed(self, name):
        self._aurum_pending[name] = self._keyword_pending[name] = None
        self._on_change(name)

    def after_write(self):
        if self._built:
            self._apply_aurum()

    def _apply_aurum(self):
        pending, self._aurum_pending = self._aurum_pending, {}
        for name, table in pending.items():
            if table is None:
                if name in self._indexed:
                    self._aurum.remove_table(name)
                    self._indexed.discard(name)
            elif name in self._indexed:
                self._aurum.update_table(table)
            else:
                self._aurum.add_table(table)
                self._indexed.add(name)
        if pending:
            self._aurum.build_delta()
            self._built = True

    def refresh(self):
        pending, self._keyword_pending = self._keyword_pending, {}
        for name, table in pending.items():
            self._keyword.remove_table(name)  # a no-op for an absent table
            if table is not None:
                self._keyword.add_table(table)
        self._apply_aurum()

    def engine(self):
        self.refresh()
        return self._aurum

    def searcher(self):
        self.refresh()
        return self._keyword

    def reading(self):
        return contextlib.nullcontext()


TOWNS = ("oslo", "rome", "lima", "kyiv", "bern", "nice")
NAMES = ("alpha", "beta", "gamma", "delta")
ROWS = 24

#: (op, table name, argument) of a write: a new version, an edit of some
#: key cells, or a replacement by a text document
LAKE_WRITES = (
    st.tuples(st.just("ingest"), st.sampled_from(NAMES), st.integers(0, 5)),
    st.tuples(st.just("edit"), st.sampled_from(NAMES), st.sampled_from([1, 2, 12])),
    st.tuples(st.just("text"), st.sampled_from(NAMES), st.just(0)),
)
#: writes, then the three index-reading queries
LAKE_OPS = st.one_of(
    *LAKE_WRITES,
    st.tuples(st.just("related"), st.sampled_from(NAMES), st.just(0)),
    st.tuples(st.just("joinable"), st.sampled_from(NAMES), st.just(0)),
    st.tuples(st.just("keyword"), st.sampled_from(TOWNS + NAMES), st.just(0)),
)


def churn_table(name, seed, edited):
    """*name*'s content *seed* with its first *edited* key cells rewritten:
    one cell of 24 is about 0.08 Jaccard distance (under Aurum's 0.1
    change threshold), two or more are over it."""
    keys = [f"k{(7 * i + seed) % 30}" for i in range(ROWS)]
    keys[:edited] = [f"{name}-{seed}-{i}" for i in range(min(edited, ROWS))]
    return {"key": keys, "town": [TOWNS[(i + seed) % len(TOWNS)] for i in range(ROWS)]}


def write(lakes, contents, op, name, arg):
    """Apply write *op* to every lake; *contents* maps each tabular table's
    name to its (seed, edited cells).  Returns False for a query op."""
    if op == "text":
        contents.pop(name, None)
        for lake in lakes:
            lake.ingest(Dataset(name=name, payload=f"notes on {name}", format="text"))
    elif op == "ingest" or (op == "edit" and name in contents):
        seed, edited = (arg, 0) if op == "ingest" else contents[name]
        contents[name] = seed, edited + (arg if op == "edit" else 0)
        for lake in lakes:
            lake.ingest_table(name, churn_table(name, *contents[name]))
    return op in ("ingest", "edit", "text")


def ask(lake, op, name):
    try:
        if op == "related":
            return lake.discover_related(name)
        if op == "joinable":
            return lake.discover_joinable(name, "key")
        return lake.keyword_search(name)
    except DatasetNotFound as exc:  # a table that is not (or no longer) indexed
        return str(exc)


def final_answers(lake):
    """Every query of the three kinds on *lake* as it stands."""
    return [ask(lake, op, name) for name in NAMES + TOWNS
            for op in (("related", "joinable", "keyword") if name in NAMES
                       else ("keyword",))]


class TestDeferredKeywordUpkeep:
    """Keyword upkeep deferred to keyword queries answers every query as
    upkeep applied by every query does."""

    @given(seeds=st.lists(st.integers(0, 5), min_size=len(NAMES), max_size=len(NAMES)),
           ops=st.lists(LAKE_OPS, min_size=1, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_answers_match_eager_upkeep(self, seeds, ops):
        deferred, eager = DataLake(cache=False), DataLake(cache=False)
        eager.maintainer = EagerMaintainer(on_change=eager._bump_epoch)
        # every table starts in the lake: most queries then read an indexed one
        ops = [("ingest", name, seed) for name, seed in zip(NAMES, seeds)] + ops
        contents = {}
        for op, name, arg in ops:
            if not write((deferred, eager), contents, op, name, arg):
                assert ask(deferred, op, name) == ask(eager, op, name)
        assert final_answers(deferred) == final_answers(eager)


class TestWritersApplyAurum:
    """Once Aurum has been built, a sync write applies its own Aurum delta;
    before that, changes wait for Aurum's first reader."""

    def test_bulk_load_and_union_queries_never_index_into_aurum(self, monkeypatch):
        profiled = []
        original = TableProfiler.profile_column

        def counted(self, table_name, column):
            profiled.append(table_name)
            return original(self, table_name, column)

        monkeypatch.setattr(TableProfiler, "profile_column", counted)
        lake = DataLake(cache=False)
        for name in NAMES:
            lake.ingest_table(name, churn_table(name, 0, 0))
        for name in NAMES:
            lake.discover_union(name)
        lake.ingest_table("late", churn_table("late", 1, 0))
        lake.discover_union("late")
        assert profiled == [] and len(lake.maintainer) == 0
        lake.discover_related("late")  # the first reader builds Aurum in one pass
        assert sorted(set(profiled)) == sorted(NAMES + ("late",))
        assert len(lake.maintainer) == len(NAMES) + 1

    @given(seeds=st.lists(st.integers(0, 5), min_size=len(NAMES), max_size=len(NAMES)),
           writes=st.lists(st.one_of(*LAKE_WRITES), min_size=1, max_size=10))
    # a query between the two edits applies each on its own: the second is
    # under the change threshold against the first, the two together are not
    @example(seeds=[0, 1, 2, 3], writes=[("edit", "beta", 2), ("edit", "beta", 1)])
    # the same after every table left Aurum: writes still apply once Aurum
    # has been built, even while it holds no table
    @example(seeds=[0, 1, 2, 3],
             writes=[("text", name, 0) for name in NAMES]
             + [("ingest", name, seed) for seed, name in enumerate(NAMES)]
             + [("edit", "beta", 2), ("edit", "beta", 1)])
    @settings(max_examples=60, deadline=None)
    def test_answers_do_not_depend_on_when_queries_ran(self, seeds, writes):
        asking, quiet = DataLake(cache=False), DataLake(cache=False)
        contents = {}
        for name, seed in zip(NAMES, seeds):
            write((asking, quiet), contents, "ingest", name, seed)
        for lake in (asking, quiet):
            lake.discover_related(NAMES[0])  # the first query builds Aurum
        for op, name, arg in writes:
            write((asking, quiet), contents, op, name, arg)
            ask(asking, "related", name)
        assert final_answers(asking) == final_answers(quiet)


def union_answer(lake, name, fresh=False):
    """*name*'s whole union ranking from the lake, or, when *fresh*, from
    a :class:`TableUnionSearch` built from scratch over ``lake.tables()``."""
    try:
        if not fresh:
            return lake.discover_union(name, k=len(NAMES), min_score=0.0)
        index = TableUnionSearch()
        for table in lake.tables():
            index.add_table(table)
        return index.top_k(lake.table(name), k=len(NAMES), min_score=0.0)
    except (DatasetNotFound, SchemaError) as exc:  # absent, or a text document
        return type(exc).__name__


class TestMaintainedUnionSearch:
    """Union search kept by deltas answers as a fresh build over the
    lake's tables, through new versions, key edits and replacement by a
    text document, whenever its queries run."""

    @given(seeds=st.lists(st.integers(0, 5), min_size=len(NAMES), max_size=len(NAMES)),
           ops=st.lists(st.one_of(*LAKE_WRITES, st.tuples(
               st.just("union"), st.sampled_from(NAMES), st.just(0))),
               min_size=1, max_size=14),
           mode=st.sampled_from(("sync", "async")))
    @settings(max_examples=60, deadline=None)
    def test_answers_equal_a_fresh_build(self, seeds, ops, mode):
        lake = DataLake(cache=False, async_maintenance=mode == "async")
        try:
            contents = {}
            ops = [("ingest", name, seed) for name, seed in zip(NAMES, seeds)] + ops
            for op, name, arg in ops:
                if not write((lake,), contents, op, name, arg):
                    lake.drain()
                    assert union_answer(lake, name) == union_answer(lake, name, True)
            lake.drain()
            for name in NAMES:
                assert union_answer(lake, name) == union_answer(lake, name, True)
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
