"""Tests for the SQL-subset engine."""

import pytest

from repro.core.dataset import Table
from repro.core.errors import QueryError
from repro.core.types import DataType
from repro.exploration.sql import SqlEngine
from repro.storage.relational import RelationalStore


@pytest.fixture
def engine():
    store = RelationalStore()
    store.create_table(Table.from_columns("sales", {
        "region": ["eu", "us", "eu", "apac", "us"],
        "amount": [10, 25, 30, 40, 5],
        "rep": ["ann", "bob", "ann", "cid", "dee"],
    }))
    store.create_table(Table.from_columns("regions", {
        "region": ["eu", "us", "apac"],
        "name": ["Europe", "America", "Asia-Pacific"],
    }))
    return SqlEngine(store)


class TestSelect:
    def test_star(self, engine):
        result = engine.execute("SELECT * FROM sales")
        assert len(result) == 5
        assert result.column_names == ["region", "amount", "rep"]

    def test_projection(self, engine):
        result = engine.execute("SELECT rep, amount FROM sales")
        assert result.column_names == ["rep", "amount"]

    def test_count(self, engine):
        assert engine.execute("SELECT COUNT(*) FROM sales")["count"].values == [5]

    def test_distinct(self, engine):
        result = engine.execute("SELECT DISTINCT region FROM sales")
        assert sorted(result["region"].values) == ["apac", "eu", "us"]


class TestWhere:
    def test_string_equality(self, engine):
        result = engine.execute("SELECT amount FROM sales WHERE region = 'eu'")
        assert sorted(result["amount"].values) == [10, 30]

    def test_numeric_comparison(self, engine):
        result = engine.execute("SELECT rep FROM sales WHERE amount >= 25")
        assert sorted(result["rep"].values) == ["ann", "bob", "cid"]

    def test_conjunction(self, engine):
        result = engine.execute(
            "SELECT amount FROM sales WHERE region = 'eu' AND amount > 15"
        )
        assert result["amount"].values == [30]

    def test_contains(self, engine):
        result = engine.execute("SELECT region FROM sales WHERE rep CONTAINS 'nn'")
        assert len(result) == 2

    def test_count_with_where(self, engine):
        result = engine.execute("SELECT COUNT(*) FROM sales WHERE region != 'eu'")
        assert result["count"].values == [3]

    def test_quoted_string_with_escape(self, engine):
        engine.store.create_table(Table.from_columns("notes", {"text": ["it's", "plain"]}))
        result = engine.execute("SELECT text FROM notes WHERE text = 'it''s'")
        assert len(result) == 1


class TestJoin:
    def test_join_qualified_columns(self, engine):
        result = engine.execute(
            "SELECT name, amount FROM sales JOIN regions "
            "ON sales.region = regions.region"
        )
        assert len(result) == 5
        assert "Europe" in result["name"].values

    def test_join_then_filter(self, engine):
        result = engine.execute(
            "SELECT name FROM sales JOIN regions ON sales.region = regions.region "
            "WHERE amount > 25"
        )
        assert sorted(result["name"].values) == ["Asia-Pacific", "Europe"]


class TestOrderLimit:
    def test_order_desc(self, engine):
        result = engine.execute("SELECT amount FROM sales ORDER BY amount DESC")
        assert result["amount"].values == [40, 30, 25, 10, 5]

    def test_order_asc_default(self, engine):
        result = engine.execute("SELECT amount FROM sales ORDER BY amount")
        assert result["amount"].values == [5, 10, 25, 30, 40]

    def test_limit(self, engine):
        result = engine.execute("SELECT amount FROM sales ORDER BY amount DESC LIMIT 2")
        assert result["amount"].values == [40, 30]

    def test_order_by_string_column(self, engine):
        result = engine.execute("SELECT rep FROM sales ORDER BY rep")
        assert result["rep"].values == sorted(result["rep"].values)

    def test_order_by_column_outside_the_select_list(self, engine):
        result = engine.execute("SELECT rep FROM sales ORDER BY amount DESC LIMIT 1")
        assert result.column_names == ["rep"]
        assert result["rep"].values == ["cid"]

    def test_qualified_order_by_names_the_joined_column(self, engine):
        engine.store.create_table(Table.from_columns("a", {"id": [1, 2], "name": ["x", "y"]}))
        engine.store.create_table(Table.from_columns("b", {"aid": [1, 2], "name": ["q", "p"]}))
        result = engine.execute("SELECT name FROM a JOIN b ON a.id = b.aid ORDER BY b.name")
        assert result["name"].values == ["y", "x"]  # a's names, in the order of b's

    def test_distinct_order_by_must_be_selected(self, engine):
        with pytest.raises(QueryError):
            engine.execute("SELECT DISTINCT region FROM sales ORDER BY amount")
        result = engine.execute("SELECT DISTINCT region FROM sales ORDER BY region DESC")
        assert result["region"].values == ["us", "eu", "apac"]

    def test_order_keeps_the_scan_types(self, engine):
        result = engine.execute("SELECT amount FROM sales WHERE amount > 20 ORDER BY amount")
        assert result["amount"].values == [25, 30, 40]
        assert result["amount"].dtype is DataType.INTEGER


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "SELECT",
        "SELECT * FROM sales WHERE amount LIKE 5",
        "SELECT * FROM sales LIMIT many",
        "SELECT * FROM sales extra tokens",
        "SELECT missing_col FROM sales",
    ])
    def test_rejected(self, engine, bad):
        with pytest.raises(QueryError):
            engine.execute(bad)

    def test_unknown_table(self, engine):
        from repro.core.errors import DatasetNotFound

        with pytest.raises(DatasetNotFound):
            engine.execute("SELECT * FROM nope")


class TestPushdown:
    def test_predicates_pushed_to_scan(self, engine):
        engine.store.create_index("sales", "region")
        engine.store.rows_scanned = 0
        engine.execute("SELECT amount FROM sales WHERE region = 'eu'")
        assert engine.store.rows_scanned == 2  # index bucket only
