"""Tests for the schema-on-read type system."""

import math

import pytest

from repro.core.types import (
    DataType,
    coerce,
    infer_column_type,
    infer_type,
    is_null,
    numeric_values,
    unify,
    value_pattern,
)


class TestIsNull:
    def test_none_is_null(self):
        assert is_null(None)

    def test_nan_is_null(self):
        assert is_null(float("nan"))

    @pytest.mark.parametrize("token", ["", "  ", "NA", "n/a", "NULL", "None", "-", "?"])
    def test_null_spellings(self, token):
        assert is_null(token)

    @pytest.mark.parametrize("value", [0, 0.0, False, "0", "no", "x"])
    def test_non_null_values(self, value):
        assert not is_null(value)


class TestInferType:
    def test_native_types(self):
        assert infer_type(True) is DataType.BOOLEAN
        assert infer_type(3) is DataType.INTEGER
        assert infer_type(3.5) is DataType.FLOAT

    def test_string_sniffing(self):
        assert infer_type("42") is DataType.INTEGER
        assert infer_type("-7") is DataType.INTEGER
        assert infer_type("3.14") is DataType.FLOAT
        assert infer_type("1e5") is DataType.FLOAT
        assert infer_type("true") is DataType.BOOLEAN
        assert infer_type("hello") is DataType.STRING

    def test_dates(self):
        assert infer_type("2024-01-31") is DataType.DATE
        assert infer_type("2024-01-31 12:30:00") is DataType.DATE
        assert infer_type("31/12/2024") is DataType.DATE

    def test_null(self):
        assert infer_type("") is DataType.NULL


class TestUnify:
    def test_identity(self):
        assert unify(DataType.INTEGER, DataType.INTEGER) is DataType.INTEGER

    def test_null_is_neutral(self):
        assert unify(DataType.NULL, DataType.DATE) is DataType.DATE
        assert unify(DataType.FLOAT, DataType.NULL) is DataType.FLOAT

    def test_numeric_widening(self):
        assert unify(DataType.INTEGER, DataType.FLOAT) is DataType.FLOAT

    def test_conflict_decays_to_string(self):
        assert unify(DataType.INTEGER, DataType.DATE) is DataType.STRING
        assert unify(DataType.BOOLEAN, DataType.FLOAT) is DataType.STRING


class TestInferColumnType:
    def test_homogeneous(self):
        assert infer_column_type(["1", "2", "3"]) is DataType.INTEGER

    def test_with_nulls(self):
        assert infer_column_type(["1", "", "3", None]) is DataType.INTEGER

    def test_mixed_numeric(self):
        assert infer_column_type([1, 2.5]) is DataType.FLOAT

    def test_all_null(self):
        assert infer_column_type([None, ""]) is DataType.NULL

    def test_empty(self):
        assert infer_column_type([]) is DataType.NULL


class TestCoerce:
    def test_int(self):
        assert coerce("42", DataType.INTEGER) == 42

    def test_float(self):
        assert coerce("2.5", DataType.FLOAT) == 2.5

    def test_bool(self):
        assert coerce("yes", DataType.BOOLEAN) is True
        assert coerce("no", DataType.BOOLEAN) is False

    def test_null_becomes_none(self):
        assert coerce("NA", DataType.INTEGER) is None

    def test_uncoercible_passes_through(self):
        assert coerce("abc", DataType.INTEGER) == "abc"


class TestNumericValues:
    def test_extracts_numbers(self):
        assert numeric_values([1, "2", 3.5, "x", None]) == [1.0, 2.0, 3.5]

    def test_skips_booleans(self):
        assert numeric_values([True, False, 1]) == [1.0]

    def test_skips_an_integer_beyond_float_range(self):
        assert numeric_values([10**400, 5, "7"]) == [5.0, 7.0]


class TestValuePattern:
    def test_collapses_runs(self):
        assert value_pattern("AB-1234") == "A-9"

    def test_mixed(self):
        assert value_pattern("user_42@host") == "A_9@A"

    def test_null_is_empty(self):
        assert value_pattern(None) == ""

    def test_spaces(self):
        assert value_pattern("New York 10001") == "A A 9"

    def test_same_pattern_same_format(self):
        assert value_pattern("XY-0001") == value_pattern("QQ-93")
