"""Tests for table union search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound
from repro.discovery.table_union import TableUnionSearch
from repro.ml.embeddings import cosine
from repro.ml.text import jaccard, tokenize


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


def reference_attribute_unionability(left, right):
    """The per-pair formula that recomputes both sides on every call:
    ``jaccard`` copies both sets and builds their union, ``cosine`` takes
    both norms.  Tokens come from the name, not from the profile."""
    if left.numeric != right.numeric:
        return 0.0
    set_signal = jaccard(left.values, right.values)
    semantic_signal = max(0.0, cosine(left.embedding, right.embedding))
    name_signal = jaccard(tokenize(left.name), tokenize(right.name))
    return max(set_signal, 0.9 * semantic_signal, 0.8 * name_signal)


def reference_table_unionability(search, query, candidate_name):
    """Mean reference score over the greedy 1:1 alignment, ties in
    (query column, candidate column) order."""
    candidate = search._tables[candidate_name]
    query_profiles = search._query_profiles(query)
    scored = []
    for qi, qp in enumerate(query_profiles):
        for ci, cp in enumerate(candidate):
            scored.append((reference_attribute_unionability(qp, cp), qi, ci))
    scored.sort(key=lambda item: -item[0])
    used_q, used_c = set(), set()
    total = 0.0
    for score, qi, ci in scored:
        if qi in used_q or ci in used_c:
            continue
        used_q.add(qi)
        used_c.add(ci)
        total += score
    return total / max(len(query_profiles), 1)


def reference_alignment(search, query, candidate_name):
    """The reference alignment, ties broken by column names."""
    candidate = search._tables[candidate_name]
    scored = []
    for qp in search._query_profiles(query):
        for cp in candidate:
            scored.append((reference_attribute_unionability(qp, cp), qp.name, cp.name))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    used_q, used_c = set(), set()
    pairs = []
    for score, q_name, c_name in scored:
        if q_name in used_q or c_name in used_c or score <= 0.0:
            continue
        used_q.add(q_name)
        used_c.add(c_name)
        pairs.append((q_name, c_name, round(score, 4)))
    return pairs


def reference_top_k(search, query, k, min_score):
    scored = []
    for name in search.tables():
        if name == query.name:
            continue
        score = reference_table_unionability(search, query, name)
        if score >= min_score:
            scored.append((name, round(score, 4)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


# names that share tokens (customerId / customer_id) or repeat one (id_id)
NAMES = ["customerId", "customer_id", "id", "id_id", "city", "town",
         "amount", "total_amount"]
TEXT = ["berlin", "paris", "rome", "oslo", "c1", "c2", None]
NUMBERS = [1, 2, 3, 10, 2.5, 40.0, None]
# no alphanumeric character in name or values: the zero embedding
SYMBOL_NAMES = ["--", "##"]
SYMBOLS = ["#", "@@", "%", "+"]


@st.composite
def union_lakes(draw):
    tables = []
    for index in range(draw(st.integers(2, 4))):
        rows = draw(st.integers(1, 4))
        columns = {}
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["text", "numeric", "symbols", "duplicate"]))
            name = draw(st.sampled_from(SYMBOL_NAMES if kind == "symbols" else NAMES))
            if name in columns:
                continue
            if kind == "duplicate" and columns:
                values = list(columns[draw(st.sampled_from(sorted(columns)))])
            else:
                pool = {"text": TEXT, "numeric": NUMBERS, "symbols": SYMBOLS,
                        "duplicate": TEXT}[kind]
                values = draw(st.lists(st.sampled_from(pool),
                                       min_size=rows, max_size=rows))
            columns[name] = values
        tables.append(Table.from_columns(f"t{index}", columns))
        if draw(st.booleans()):  # a second table with the same columns
            tables.append(Table.from_columns(f"t{index}_copy", columns))
    return tables


class TestScoresEqualTheReference:
    """Scores from stored per-attribute features equal the per-pair
    formula bit for bit, for the indexed query object and for a copy
    that is profiled afresh."""

    @given(lake=union_lakes())
    @settings(max_examples=60, deadline=None)
    def test_every_entry_point_matches(self, lake):
        search = TableUnionSearch()
        for table in lake:
            search.add_table(table)
        for table in lake:
            copy = Table.from_columns(table.name, {
                column.name: list(column.values) for column in table.columns})
            for query in (table, copy):
                profiles = search._query_profiles(query)
                for name in search.tables():
                    for left in profiles:
                        for right in search._tables[name]:
                            assert search.attribute_unionability(left, right) == \
                                reference_attribute_unionability(left, right)
                    assert search.table_unionability(query, name) == \
                        reference_table_unionability(search, query, name)
                    assert search.alignment(query, name) == \
                        reference_alignment(search, query, name)
                k = len(lake)
                assert search.top_k(query, k=k, min_score=0.0) == \
                    reference_top_k(search, query, k, 0.0)
                assert search.top_k(query, k=k) == reference_top_k(search, query, k, 0.3)


class TestNoPerPairNorm:
    def test_indexed_queries_take_no_norm(self, monkeypatch, unionable):
        """Each attribute's embedding norm is taken once, when it is
        profiled; scoring indexed tables takes none."""
        workload, search = unionable
        calls = []
        norm = np.linalg.norm

        def spy(*args, **kwargs):
            calls.append(args)
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        for table in workload.tables:
            assert search.top_k(table, k=3, min_score=0.0)
            for candidate in search.tables():
                search.alignment(table, candidate)
        assert calls == []
