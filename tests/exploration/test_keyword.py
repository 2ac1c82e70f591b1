"""Tests for keyword search over schemata and data."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataset import Table
from repro.exploration.keyword import KeywordSearch


@pytest.fixture
def searcher():
    searcher = KeywordSearch()
    searcher.add_table(Table.from_columns("customer_master", {
        "customer_id": ["c1", "c2"],
        "city": ["berlin", "paris"],
    }))
    searcher.add_table(Table.from_columns("web_orders", {
        "order_id": ["o1", "o2"],
        "customer_id": ["c1", "c1"],
        "status": ["shipped", "pending"],
    }))
    return searcher


class TestSearch:
    def test_schema_hits(self, searcher):
        hits = searcher.search("customer")
        tables = [h.table for h in hits]
        assert set(tables) == {"customer_master", "web_orders"}

    def test_value_hits(self, searcher):
        hits = searcher.search("berlin")
        assert hits[0].table == "customer_master"
        assert "berlin" in hits[0].matched_values

    def test_schema_weighs_above_values(self, searcher):
        searcher.add_table(Table.from_columns("misc", {"note": ["status report"]}))
        hits = searcher.search("status")
        assert hits[0].table == "web_orders"  # column name beats cell value

    def test_multi_term_accumulates(self, searcher):
        hits = searcher.search("customer city")
        assert hits[0].table == "customer_master"

    def test_matched_schema_reported(self, searcher):
        hits = searcher.search("status")
        web = next(h for h in hits if h.table == "web_orders")
        assert "status" in web.matched_schema

    def test_no_hits(self, searcher):
        assert searcher.search("quux") == []

    def test_empty_query(self, searcher):
        assert searcher.search("") == []

    def test_k_bound(self, searcher):
        assert len(searcher.search("customer", k=1)) == 1

    def test_identifier_convention_insensitive(self, searcher):
        assert searcher.search("customerId")  # camelCase finds customer_id


def _answers(index, queries, names, k=10):
    """Everything the public surface says about *index*."""
    return [index.search(query, k) for query in queries], len(index), [n in index for n in names]


class TestMaintenance:
    def test_re_adding_a_table_replaces_it(self):
        index = KeywordSearch()
        index.add_table(Table.from_columns("t", {"city": ["berlin", "paris"]}))
        new = Table.from_columns("t", {"town": ["rome"]})
        index.add_table(new)
        fresh = KeywordSearch()
        fresh.add_table(new)
        assert index.search("berlin") == index.search("city") == []
        queries = ["t", "town", "rome", "town rome", "berlin city"]
        assert _answers(index, queries, ["t"]) == _answers(fresh, queries, ["t"])
        assert set(index._index) == {"t", "town", "rome"}


TABLE_NAMES = ["orders", "paris_sales", "city_stats", "rome"]
WORDS = ["berlin", "paris", "rome", "city", "order", "id", "shipped"]


@st.composite
def keyword_table(draw, name):
    """A small table whose names and values share words across tables."""
    column_names = draw(st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map("_".join),
        min_size=1, max_size=3, unique=True))
    rows = draw(st.integers(1, 4))
    cell = st.one_of(
        st.none(), st.integers(0, 3),
        st.lists(st.sampled_from(WORDS + ["NA", ""]), min_size=1, max_size=2).map(" ".join))
    return Table.from_columns(name, {
        column: draw(st.lists(cell, min_size=rows, max_size=rows)) for column in column_names})


class TestMaintenanceProperty:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_an_index_built_from_the_surviving_tables(self, data):
        """Any sequence of adds, re-adds and removals leaves the index
        answering like a fresh one holding only the surviving tables."""
        index = KeywordSearch()
        surviving = {}
        steps = data.draw(st.lists(st.tuples(st.sampled_from(["add", "remove"]),
                                             st.sampled_from(TABLE_NAMES)), max_size=10))
        for op, name in steps:
            if op == "add":
                table = data.draw(keyword_table(name))
                index.add_table(table)
                surviving[name] = table
            else:
                assert index.remove_table(name) == (surviving.pop(name, None) is not None)
        fresh = KeywordSearch()
        for table in data.draw(st.permutations(list(surviving.values()))):
            fresh.add_table(table)

        assert set(index._index) == set(fresh._index)
        assert all(index._index.values())  # no term keeps an empty posting
        assert all(schema or values for posting in index._index.values()
                   for schema, values in posting.values())
        terms = sorted(fresh._index)
        queries = terms + data.draw(st.lists(
            st.tuples(st.sampled_from(terms + WORDS), st.sampled_from(WORDS)).map(" ".join),
            max_size=4))
        k = data.draw(st.integers(1, 5))
        assert _answers(index, queries, TABLE_NAMES, k) == _answers(fresh, queries, TABLE_NAMES, k)
