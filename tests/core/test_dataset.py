"""Tests for the Table / Dataset model."""

from dataclasses import dataclass
from typing import Any, List, Optional

import pytest

import repro.core.dataset as dataset_module
from repro.core.dataset import Column, Dataset, Table
from repro.core.errors import SchemaError
from repro.core.types import DataType, infer_column_type


class TestConstruction:
    def test_from_columns(self):
        table = Table.from_columns("t", {"a": [1, 2], "b": ["x", "y"]})
        assert table.column_names == ["a", "b"]
        assert len(table) == 2

    def test_from_rows_pads_ragged(self):
        table = Table.from_rows("t", ["a", "b"], [[1, 2], [3]])
        assert table["b"].values == [2, None]

    def test_from_records_unions_keys(self):
        table = Table.from_records("t", [{"a": 1}, {"b": 2}])
        assert table.column_names == ["a", "b"]
        assert table["a"].values == [1, None]

    def test_from_csv(self):
        table = Table.from_csv("t", "a,b\n1,x\n2,y\n")
        assert len(table) == 2
        assert table["a"].dtype is DataType.INTEGER

    def test_from_csv_empty(self):
        assert len(Table.from_csv("t", "")) == 0

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", [1]), Column("a", [2])])

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", [1]), Column("b", [1, 2])])


class TestAccess:
    def test_getitem_unknown_column(self):
        table = Table.from_columns("t", {"a": [1]})
        with pytest.raises(SchemaError, match="no column"):
            table["missing"]

    def test_contains(self):
        table = Table.from_columns("t", {"a": [1]})
        assert "a" in table
        assert "z" not in table

    def test_row_and_rows(self):
        table = Table.from_columns("t", {"a": [1, 2], "b": ["x", "y"]})
        assert table.row(1) == {"a": 2, "b": "y"}
        assert list(table.rows()) == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_schema(self):
        table = Table.from_columns("t", {"a": [1], "b": ["x"]})
        assert table.schema() == {"a": DataType.INTEGER, "b": DataType.STRING}


class TestColumn:
    def test_distinct_stringifies(self):
        column = Column("a", [1, "1", 2, None])
        assert column.distinct() == {"1", "2"}

    def test_null_stats(self):
        column = Column("a", [1, None, "", 4])
        assert column.null_count == 2
        assert column.null_fraction == 0.5

    def test_non_null(self):
        assert Column("a", [1, None, 2]).non_null() == [1, 2]


@dataclass
class _EagerColumn:
    """The eagerly typed dataclass that ``Column`` replaced, as a reference."""

    name: str
    values: List[Any]
    dtype: Optional[DataType] = None

    def __post_init__(self) -> None:
        if self.dtype is None:
            self.dtype = infer_column_type(self.values)


COLUMN_CASES = [
    ("a", [1, 2], None),
    ("b", [1, "x", None], None),
    ("c", [], None),
    ("d", [1.5, 2, "NA"], None),
    ("e", ["2024-01-02", None], None),
    ("f", [1, 2], DataType.STRING),
]


class TestColumnTyping:
    @pytest.mark.parametrize("name, values, dtype", COLUMN_CASES)
    def test_dtype_is_the_inferred_or_given_type(self, name, values, dtype):
        expected = dtype or infer_column_type(values)
        assert Column(name, list(values), dtype).dtype is expected

    def test_type_is_inferred_on_first_read_only(self, monkeypatch):
        calls = []

        def counting(values):
            calls.append(list(values))
            return infer_column_type(values)

        monkeypatch.setattr(dataset_module, "infer_column_type", counting)
        column = Column("a", [1, 2])
        assert calls == []
        assert column.dtype is DataType.INTEGER
        assert column.dtype is DataType.INTEGER
        assert calls == [[1, 2]]

    def test_given_type_is_never_inferred(self, monkeypatch):
        def refuse(values):
            raise AssertionError("a given dtype was re-inferred")

        monkeypatch.setattr(dataset_module, "infer_column_type", refuse)
        column = Column("a", [1, 2], DataType.STRING)
        assert column.dtype is DataType.STRING
        assert column == Column("a", [1, 2], DataType.STRING)
        assert "DataType.STRING" in repr(column)

    @pytest.mark.parametrize("name, values, dtype", COLUMN_CASES)
    def test_repr_matches_the_dataclass(self, name, values, dtype):
        expected = repr(_EagerColumn(name, list(values), dtype))
        assert repr(Column(name, list(values), dtype)) == expected.replace("_EagerColumn", "Column", 1)

    def test_equality_matches_the_dataclass(self):
        columns = [(Column(*case), _EagerColumn(*case)) for case in COLUMN_CASES]
        columns.append((Column("a", [1, 2], DataType.INTEGER), _EagerColumn("a", [1, 2], DataType.INTEGER)))
        for left, left_ref in columns:
            for right, right_ref in columns:
                assert (left == right) is (left_ref == right_ref)
                assert (left != right) is (left_ref != right_ref)
        assert Column("a", [1]) != _EagerColumn("a", [1])
        assert Column("a", [1]).__eq__(("a", [1], DataType.INTEGER)) is NotImplemented
        with pytest.raises(TypeError):
            hash(Column("a", [1]))

    def test_take_and_filter_keep_the_source_type(self):
        table = Table.from_columns("t", {"a": [1, "x", 2]})
        assert table.take([0, 2])["a"].dtype is DataType.STRING
        assert table.filter(lambda row: row["a"] != "x")["a"].dtype is DataType.STRING


class TestRelationalOps:
    def test_project(self):
        table = Table.from_columns("t", {"a": [1], "b": [2], "c": [3]})
        assert table.project(["c", "a"]).column_names == ["c", "a"]

    def test_rename(self):
        table = Table.from_columns("t", {"a": [1]})
        assert table.rename({"a": "z"}).column_names == ["z"]

    def test_filter(self):
        table = Table.from_columns("t", {"a": [1, 2, 3]})
        assert table.filter(lambda r: r["a"] > 1)["a"].values == [2, 3]

    def test_head(self):
        table = Table.from_columns("t", {"a": [1, 2, 3]})
        assert len(table.head(2)) == 2

    def test_join(self):
        left = Table.from_columns("l", {"k": ["a", "b"], "v": [1, 2]})
        right = Table.from_columns("r", {"k": ["b", "b", "c"], "w": [10, 20, 30]})
        joined = left.join(right, "k", "k")
        assert len(joined) == 2
        assert set(joined["w"].values) == {10, 20}

    def test_join_disambiguates_collisions(self):
        left = Table.from_columns("l", {"k": ["a"], "v": [1]})
        right = Table.from_columns("r", {"k": ["a"], "v": [9]})
        joined = left.join(right, "k", "k")
        assert "r.v" in joined.column_names

    def test_join_skips_nulls(self):
        left = Table.from_columns("l", {"k": [None, "a"]})
        right = Table.from_columns("r", {"k": [None, "a"]})
        assert len(left.join(right, "k", "k")) == 1

    def test_union_rows_aligns_by_name(self):
        left = Table.from_columns("l", {"a": [1], "b": [2]})
        right = Table.from_columns("r", {"b": [3], "c": [4]})
        union = left.union_rows(right)
        assert union.column_names == ["a", "b", "c"]
        assert union["a"].values == [1, None]
        assert union["b"].values == [2, 3]

    def test_distinct_rows(self):
        table = Table.from_columns("t", {"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert len(table.distinct_rows()) == 2


class TestSerialization:
    def test_csv_roundtrip(self):
        table = Table.from_columns("t", {"a": [1, 2], "b": ["x", "y"]})
        again = Table.from_csv("t", table.to_csv())
        assert [tuple(str(v) for v in r) for r in again.row_tuples()] == [
            ("1", "x"), ("2", "y")
        ]

    def test_to_records(self):
        table = Table.from_columns("t", {"a": [1]})
        assert table.to_records() == [{"a": 1}]

    def test_equality(self):
        left = Table.from_columns("x", {"a": [1]})
        right = Table.from_columns("y", {"a": [1]})
        assert left == right  # names don't matter, content does


class TestDataset:
    def test_table_payload(self):
        dataset = Dataset("d", Table.from_columns("d", {"a": [1]}))
        assert dataset.is_tabular
        assert dataset.as_table()["a"].values == [1]

    def test_records_payload_tabularizes(self):
        dataset = Dataset("d", [{"a": 1}, {"a": 2}], format="json")
        assert dataset.as_table()["a"].values == [1, 2]

    def test_text_payload_not_tabularizable(self):
        dataset = Dataset("d", "free text", format="text")
        with pytest.raises(SchemaError):
            dataset.as_table()
