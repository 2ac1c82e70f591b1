"""Tests for the in-memory relational store."""

import pytest

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound, SchemaError
from repro.core.types import DataType
from repro.storage.relational import Predicate, RelationalStore


@pytest.fixture
def store():
    store = RelationalStore()
    store.create_table(Table.from_columns("sales", {
        "region": ["eu", "us", "eu", "apac"],
        "amount": [10, 20, 30, 40],
        "rep": ["ann", "bob", "ann", "cid"],
    }))
    return store


class TestDdl:
    def test_create_and_list(self, store):
        assert store.tables() == ["sales"]
        assert "sales" in store

    def test_replace_drops_indexes(self, store):
        store.create_index("sales", "region")
        store.create_table(Table.from_columns("sales", {"region": ["x"]}))
        assert not store.has_index("sales", "region")

    def test_drop(self, store):
        store.drop_table("sales")
        assert "sales" not in store
        with pytest.raises(DatasetNotFound):
            store.drop_table("sales")

    def test_missing_table(self, store):
        with pytest.raises(DatasetNotFound):
            store.table("nope")


class TestInsert:
    def test_append_rows(self, store):
        store.insert("sales", [{"region": "eu", "amount": 5, "rep": "dan"}])
        assert len(store.table("sales")) == 5

    def test_partial_row_padded(self, store):
        store.insert("sales", [{"region": "eu"}])
        assert store.table("sales")["amount"].values[-1] is None

    def test_unknown_column_rejected(self, store):
        with pytest.raises(SchemaError):
            store.insert("sales", [{"bogus": 1}])

    def test_rejection_is_atomic(self, store):
        with pytest.raises(SchemaError):
            store.insert("sales", [{"region": "eu"}, {"bogus": 1}])
        assert len(store.table("sales")) == 4

    def test_insert_keeps_and_extends_indexes(self, store):
        store.create_index("sales", "rep")
        store.insert("sales", [{"region": "us", "amount": 50, "rep": "cid"}])
        assert store.has_index("sales", "rep")
        store.rows_scanned = 0
        result = store.scan("sales", [Predicate("rep", "=", "cid")])
        assert result["amount"].values == [40, 50]
        assert store.rows_scanned == 2  # the bucket, not the 5-row table

    def test_inserted_cells_retype_the_column(self, store):
        store.insert("sales", [{"amount": 2.5}])
        assert store.table("sales")["amount"].dtype is DataType.FLOAT


class TestScan:
    def test_full_scan(self, store):
        assert len(store.scan("sales")) == 4

    def test_predicate_pushdown(self, store):
        result = store.scan("sales", [Predicate("region", "=", "eu")])
        assert len(result) == 2

    def test_numeric_predicates(self, store):
        assert len(store.scan("sales", [Predicate("amount", ">", 15)])) == 3
        assert len(store.scan("sales", [Predicate("amount", "<=", 20)])) == 2

    def test_contains(self, store):
        assert len(store.scan("sales", [Predicate("rep", "contains", "AN")])) == 2

    def test_conjunction(self, store):
        result = store.scan("sales", [
            Predicate("region", "=", "eu"), Predicate("amount", ">", 15),
        ])
        assert result["amount"].values == [30]

    def test_projection(self, store):
        result = store.scan("sales", columns=["rep"])
        assert result.column_names == ["rep"]

    def test_empty_result_keeps_schema(self, store):
        result = store.scan("sales", [Predicate("region", "=", "mars")])
        assert len(result) == 0
        assert result.column_names == ["region", "amount", "rep"]

    def test_unknown_operator(self):
        with pytest.raises(SchemaError):
            Predicate("a", "like", "x")

    def test_non_numeric_comparison_is_false(self, store):
        result = store.scan("sales", [Predicate("rep", ">", 5)])
        assert len(result) == 0

    def test_integer_beyond_float_range_is_non_numeric(self, store):
        assert len(store.scan("sales", [Predicate("amount", "<", 10**400)])) == 0
        store.create_table(Table.from_columns("big", {"n": [10**400, 5]}))
        assert store.scan("big", [Predicate("n", ">", 3)])["n"].values == [5]
        assert store.scan("big", [Predicate("n", "=", 10**400)])["n"].values == [10**400]

    def test_missing_column_matches_nothing(self, store):
        assert len(store.scan("sales", [Predicate("ghost", "!=", "x")])) == 0

    def test_result_columns_are_typed_from_the_selected_rows(self, store):
        store.create_table(Table.from_columns("mixed", {"v": [1, "x", 2]}))
        assert store.table("mixed")["v"].dtype is DataType.STRING
        result = store.scan("mixed", [Predicate("v", ">", 0)])
        assert result["v"].values == [1, 2]
        assert result["v"].dtype is DataType.INTEGER

    def test_projection_of_an_unknown_column(self, store):
        with pytest.raises(SchemaError):
            store.scan("sales", columns=["ghost"])


class TestIndexes:
    def test_index_used_and_correct(self, store):
        store.create_index("sales", "region")
        store.rows_scanned = 0
        result = store.scan("sales", [Predicate("region", "=", "eu")])
        assert len(result) == 2
        assert store.rows_scanned == 2  # only the indexed bucket was read

    def test_index_with_extra_predicate(self, store):
        store.create_index("sales", "region")
        result = store.scan("sales", [
            Predicate("region", "=", "eu"), Predicate("amount", ">", 15),
        ])
        assert result["amount"].values == [30]

    def test_scan_counter_without_index(self, store):
        store.rows_scanned = 0
        store.scan("sales", [Predicate("region", "=", "eu")])
        assert store.rows_scanned == 4


class TestJoin:
    def test_join(self, store):
        store.create_table(Table.from_columns("regions", {
            "region": ["eu", "us"], "name": ["Europe", "America"],
        }))
        joined = store.join("sales", "regions", "region", "region")
        assert len(joined) == 3
        assert set(joined["name"].values) == {"Europe", "America"}
