"""Tests for table union search."""

import pytest

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound
from repro.discovery.table_union import TableUnionSearch


@pytest.fixture
def search():
    search = TableUnionSearch()
    search.add_table(Table.from_columns("eu_sales", {
        "city": ["berlin", "paris", "rome", "madrid"],
        "revenue": [10.0, 20.0, 30.0, 40.0],
    }))
    search.add_table(Table.from_columns("us_sales", {
        "town": ["austin", "boston", "denver", "seattle"],
        "income": [15.0, 25.0, 35.0, 45.0],
    }))
    search.add_table(Table.from_columns("inventory", {
        "sku": ["p1", "p2", "p3", "p4"],
        "stock": [5, 6, 7, 8],
    }))
    return search


@pytest.fixture
def query():
    return Table.from_columns("query_sales", {
        "city": ["berlin", "oslo", "wien", "paris"],
        "revenue": [11.0, 21.0, 31.0, 41.0],
    })


class TestAttributeSignals:
    def test_value_overlap_signal(self, search, query):
        score = search.table_unionability(query, "eu_sales")
        assert score > 0.5  # shared city values + same column names

    def test_semantic_signal_without_overlap(self, search, query):
        """us_sales shares no values and no names, only numeric pairing and
        weak semantics — unionability should be positive but lower."""
        eu = search.table_unionability(query, "eu_sales")
        us = search.table_unionability(query, "us_sales")
        assert 0.0 < us < eu

    def test_type_mismatch_zero(self, search):
        numeric_query = Table.from_columns("q", {"n": [1, 2, 3]})
        alignment = search.alignment(numeric_query, "eu_sales")
        # the numeric column may only align with the numeric candidate column
        assert all(pair[1] != "city" for pair in alignment)


class TestAlignment:
    def test_greedy_one_to_one(self, search, query):
        alignment = search.alignment(query, "eu_sales")
        assert ("city", "city", pytest.approx(alignment[0][2])) and \
            {(q, c) for q, c, _ in alignment} == {("city", "city"), ("revenue", "revenue")}

    def test_unknown_candidate(self, search, query):
        with pytest.raises(DatasetNotFound):
            search.alignment(query, "ghost")


class TestTopK:
    def test_ranking(self, search, query):
        hits = search.top_k(query, k=3, min_score=0.1)
        assert hits[0][0] == "eu_sales"
        tables = [name for name, _ in hits]
        assert tables.index("eu_sales") < tables.index("inventory") \
            if "inventory" in tables else True

    def test_min_score_filters(self, search, query):
        strict = search.top_k(query, k=3, min_score=0.9)
        assert all(score >= 0.9 for _, score in strict)

    def test_excludes_self(self, search):
        table = Table.from_columns("eu_sales", {"city": ["berlin"], "revenue": [1.0]})
        hits = search.top_k(table, k=5, min_score=0.0)
        assert all(name != "eu_sales" for name, _ in hits)

    def test_unionable_workload_ground_truth(self, unionable):
        workload, search = unionable
        for group in workload.unionable_groups:
            query = workload.table(group[0])
            hits = [name for name, _ in search.top_k(query, k=2, min_score=0.3)]
            assert set(hits) == set(group[1:])


@pytest.fixture
def unionable():
    from repro.datagen import LakeGenerator

    workload = LakeGenerator(seed=13).generate_unionable(
        num_groups=2, tables_per_group=3, rows_per_table=30,
    )
    search = TableUnionSearch()
    for table in workload.tables:
        search.add_table(table)
    return workload, search


def _count_embeds(monkeypatch, search):
    calls = []
    embed_set = search.embedder.embed_set

    def spy(texts):
        calls.append(texts)
        return embed_set(texts)

    monkeypatch.setattr(search.embedder, "embed_set", spy)
    return calls


class TestQueryProfileReuse:
    def test_indexed_query_is_not_embedded(self, monkeypatch, unionable):
        workload, search = unionable
        calls = _count_embeds(monkeypatch, search)
        for table in workload.tables:  # the very objects add_table profiled
            search.top_k(table, k=3, min_score=0.0)
            search.alignment(table, search.tables()[0])
        assert calls == []

    def test_indexed_and_copied_queries_score_alike(self, unionable):
        workload, search = unionable
        for table in workload.tables:
            copy = Table(table.name, table.columns)  # equal content, new object
            assert search.top_k(table, k=4, min_score=0.0) == \
                search.top_k(copy, k=4, min_score=0.0)
            for candidate in search.tables():
                assert search.table_unionability(table, candidate) == \
                    search.table_unionability(copy, candidate)
                assert search.alignment(table, candidate) == \
                    search.alignment(copy, candidate)
