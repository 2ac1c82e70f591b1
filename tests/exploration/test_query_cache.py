"""Query-cache coherence, eviction, and exact counter accounting.

The cache's one non-negotiable property: **a re-ingested table can never
be answered from its pre-ingest cached entry** — epoch keys make stale
entries unmatchable rather than relying on any scan-and-invalidate.
Alongside it: every discovery entry point of the lake answers through
the cache funnel (a repeated call is one hit), LRU eviction under a
small ``max_entries`` bound, exact hit/miss/eviction sequences,
copy-on-return isolation, and the lake's ``cache=`` argument accepting
only the values it documents.
"""

import pytest

from repro.core.lake import DataLake
from repro.exploration.parallel import (
    DiscoveryQuery,
    QueryCache,
    as_query,
)
from repro.obs import get_event_log, get_registry


class TestQueryCache:
    def test_exact_hit_miss_sequence(self):
        cache = QueryCache(max_entries=8)
        assert cache.lookup("aurum", ("q",), 0) == (False, None)
        cache.store("aurum", ("q",), 0, [1, 2])
        assert cache.lookup("aurum", ("q",), 0) == (True, [1, 2])
        assert cache.lookup("aurum", ("q",), 1) == (False, None)  # new epoch
        assert cache.lookup("keyword", ("q",), 0) == (False, None)  # other engine
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (1, 3, 0)
        assert stats["hit_rate"] == 0.25

    def test_fetch_memoizes_and_counts(self):
        cache = QueryCache()
        calls = []
        compute = lambda: calls.append(1) or ["answer"]
        assert cache.fetch("union", "k", 3, compute) == ["answer"]
        assert cache.fetch("union", "k", 3, compute) == ["answer"]
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_eviction_under_small_bound_is_lru(self):
        cache = QueryCache(max_entries=2)
        cache.store("aurum", "a", 0, [1])
        cache.store("aurum", "b", 0, [2])
        assert cache.lookup("aurum", "a", 0)[0]  # touch a: b is now oldest
        cache.store("aurum", "c", 0, [3])
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2
        assert cache.lookup("aurum", "b", 0) == (False, None)  # evicted
        assert cache.lookup("aurum", "a", 0) == (True, [1])
        assert cache.lookup("aurum", "c", 0) == (True, [3])

    def test_returned_lists_are_copies(self):
        cache = QueryCache()
        cache.store("aurum", "q", 0, [1, 2])
        first = cache.fetch("aurum", "q", 0, list)
        first.append(99)
        assert cache.lookup("aurum", "q", 0) == (True, [1, 2])

    def test_stored_value_from_fetch_is_isolated_too(self):
        cache = QueryCache()
        computed = cache.fetch("aurum", "q", 0, lambda: [1, 2])
        computed.append(99)  # the caller got a copy of what was stored
        assert cache.lookup("aurum", "q", 0) == (True, [1, 2])

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)

    def test_clear(self):
        cache = QueryCache()
        cache.store("aurum", "q", 0, [1])
        cache.clear()
        assert len(cache) == 0


class TestDiscoveryQuery:
    def test_engine_mapping(self):
        assert DiscoveryQuery(kind="joinable", table="t", column="c").engine == "aurum"
        assert DiscoveryQuery(kind="related", table="t").engine == "aurum"
        assert DiscoveryQuery(kind="union", table="t").engine == "union"
        assert DiscoveryQuery(kind="keyword", keywords="x").engine == "keyword"

    def test_keyword_key_is_token_normalized(self):
        loud = DiscoveryQuery(kind="keyword", keywords="  Customer   City ")
        quiet = DiscoveryQuery(kind="keyword", keywords="customer city")
        assert loud.key() == quiet.key()

    @pytest.mark.parametrize("bad", [
        dict(kind="nope", table="t"),
        dict(kind="related"),
        dict(kind="joinable", table="t"),
        dict(kind="keyword"),
        dict(kind="related", table="t", k=0),
        dict(kind="related", table="t", k=2.5),
        dict(kind="joinable", table="t", column="c", k="5"),
        dict(kind="union", table="t", k=True),
        dict(kind="keyword", keywords="x", k=None),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            DiscoveryQuery(**bad)

    def test_replace_validates(self):
        query = DiscoveryQuery(kind="related", table="t")
        assert query._replace(k=3) == DiscoveryQuery(kind="related", table="t", k=3)
        with pytest.raises(ValueError):
            query._replace(k=0)
        with pytest.raises(ValueError):
            query._replace(table="")

    def test_as_query_coercions(self):
        assert as_query(("joinable", "t", "c", 3)).k == 3
        assert as_query(("keyword", "hello", 7)).keywords == "hello"
        assert as_query({"kind": "union", "table": "t"}).engine == "union"
        original = DiscoveryQuery(kind="related", table="t")
        assert as_query(original) is original
        with pytest.raises(ValueError):
            as_query(("garbage",))


#: every public discovery entry point of the lake, one query each
LAKE_QUERIES = {
    "discover_related": lambda lake: lake.discover_related("facts"),
    "discover_joinable": lambda lake: lake.discover_joinable("facts", "id"),
    "discover_union": lambda lake: lake.discover_union("facts"),
    "keyword_search": lambda lake: lake.keyword_search("alpha"),
    "discover_batch": lambda lake: lake.discover_batch([("related", "other")]),
}


class TestLakeCoherence:
    """Ingest -> query -> re-ingest -> query must never serve the old answer."""

    @staticmethod
    def _lake(**kwargs):
        kwargs.setdefault("cache", True)
        lake = DataLake(**kwargs)
        lake.ingest_table("facts", {"id": [1, 2, 3],
                                    "tag": ["alpha", "alpha", "beta"]})
        lake.ingest_table("other", {"id": [4, 5], "tag": ["beta", "beta"]})
        return lake

    def test_reingest_invalidates_cached_answer(self):
        lake = self._lake()
        pre = lake.keyword_search("gamma")
        assert pre == []  # and this empty answer is now cached
        assert lake.keyword_search("gamma") == []
        lake.ingest_table("facts", {"id": [7, 8, 9],
                                    "tag": ["gamma", "gamma", "gamma"]})
        post = lake.keyword_search("gamma")
        assert [hit.table for hit in post] == ["facts"], (
            "re-ingest served the pre-ingest cached answer")

    def test_exact_counter_sequence_through_reingest(self):
        lake = self._lake()
        stats = lambda: (lake.query_cache.stats()["hits"],
                         lake.query_cache.stats()["misses"])
        assert stats() == (0, 0)
        lake.keyword_search("alpha")
        assert stats() == (0, 1)  # cold
        lake.keyword_search("alpha")
        assert stats() == (1, 1)  # warm
        lake.discover_related("facts")
        assert stats() == (1, 2)  # different engine, cold
        lake.ingest_table("facts", {"id": [1], "tag": ["alpha"]})
        lake.keyword_search("alpha")
        assert stats() == (1, 3)  # epoch moved: cold again
        lake.keyword_search("alpha")
        assert stats() == (2, 3)  # warm at the new epoch

    def test_tabular_ingest_bumps_the_epoch_once(self):
        lake = self._lake()
        epoch = lake.epochs.epoch()
        get_event_log().reset()
        lake.ingest_table("facts", {"id": [1], "tag": ["alpha"]})
        bumps = get_event_log().events(kind="index.epoch_bump")
        assert [bump.fields for bump in bumps] == [{"epoch": epoch + 1}]
        assert lake.epochs.epoch() == epoch + 1
        assert get_registry().metrics()["exploration.epoch"].value == epoch + 1

    @pytest.mark.parametrize("entry", sorted(LAKE_QUERIES))
    def test_repeated_query_is_one_cache_hit(self, entry):
        # an entry point that computes past the cache funnel answers the
        # repeat without a hit, and without the epoch check behind it
        lake = self._lake()
        first = LAKE_QUERIES[entry](lake)
        before = lake.query_cache.stats()
        assert LAKE_QUERIES[entry](lake) == first
        after = lake.query_cache.stats()
        assert (after["hits"] - before["hits"],
                after["misses"] - before["misses"]) == (1, 0)

    def test_cache_disabled_recomputes(self):
        lake = DataLake(cache=False)
        lake.ingest_table("t", {"id": [1], "tag": ["alpha"]})
        assert lake.query_cache is None
        assert lake.keyword_search("alpha") == lake.keyword_search("alpha")

    @pytest.mark.parametrize("call", [
        lambda lake: lake.discover_related("facts", k=0),
        lambda lake: lake.discover_related(""),
        lambda lake: lake.discover_joinable("facts", "id", k=0),
        lambda lake: lake.discover_joinable("", "id"),
        lambda lake: lake.discover_joinable("facts", ""),
        lambda lake: lake.discover_union("facts", k=0),
        lambda lake: lake.discover_union(""),
        lambda lake: lake.keyword_search("alpha", k=0),
        lambda lake: lake.discover_batch([("related", "facts", 0)]),
        lambda lake: lake.discover_batch([{"kind": "joinable", "table": "facts",
                                           "column": ""}]),
        lambda lake: lake.discover_union("facts", min_score="0.3"),
        lambda lake: lake.discover_union("facts", min_score=None),
        lambda lake: lake.discover_union("facts", min_score=float("nan")),
        lambda lake: lake.discover_union("facts", min_score=True),
        lambda lake: lake.discover_batch([{"kind": "union", "table": "facts",
                                           "min_score": "0.3"}]),
    ])
    def test_entry_points_reject_bad_arguments(self, call):
        lake = self._lake()
        with pytest.raises(ValueError):
            call(lake)
        assert lake.query_cache.stats()["misses"] == 0

    @pytest.mark.parametrize("text", ["", "  ", "!?"])
    def test_term_free_keyword_search_is_empty_and_uncached(self, text):
        lake = self._lake()
        assert lake.keyword_search(text) == []
        assert lake.keyword_search(text, k=0) == []
        stats = lake.query_cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 0)

    @pytest.mark.parametrize("bad", ["on", 2.0, [1], 2, None, QueryCache()])
    def test_unrecognised_cache_value_is_rejected(self, bad):
        # a typo must not quietly turn the cache off, and a cache shared
        # with another lake would serve that lake's answers: its keys
        # name no lake
        with pytest.raises(TypeError, match="cache="):
            DataLake(cache=bad)
