"""Tests for polystore routing."""

import pytest

from repro.core.dataset import Dataset, Table
from repro.core.errors import DatasetNotFound, StorageError
from repro.storage.polystore import Polystore


@pytest.fixture
def polystore():
    return Polystore()


class TestRouting:
    def test_table_goes_relational(self, polystore):
        placement = polystore.store(Dataset("t", Table.from_columns("t", {"a": [1]})))
        assert placement.backend == "relational"
        assert "t" in polystore.relational

    def test_json_goes_document(self, polystore):
        placement = polystore.store(Dataset("d", [{"a": 1}], format="json"))
        assert placement.backend == "document"
        assert polystore.document.count("d") == 1

    def test_single_document_wrapped(self, polystore):
        polystore.store(Dataset("d", {"a": 1}, format="json"))
        assert polystore.document.count("d") == 1

    def test_text_goes_objects(self, polystore):
        placement = polystore.store(Dataset("log", "line1\nline2", format="text"))
        assert placement.backend == "objects"
        assert polystore.objects.exists("raw", "log")

    def test_restore_off_relational_drops_the_old_table(self, polystore):
        polystore.store(Dataset("t", Table.from_columns("t", {"a": [1]})))
        placement = polystore.store(Dataset("t", "now text", format="text"))
        assert placement.backend == "objects"
        assert "t" not in polystore.relational
        assert polystore.fetch("t") == "now text"

    def test_user_override(self, polystore):
        table = Table.from_columns("t", {"a": [1]})
        placement = polystore.store(Dataset("t", table), backend="document")
        assert placement.backend == "document"

    def test_unknown_backend(self, polystore):
        with pytest.raises(StorageError):
            polystore.store(Dataset("t", Table.from_columns("t", {"a": [1]})), backend="blob")


class TestFetch:
    def test_fetch_relational(self, polystore):
        table = Table.from_columns("t", {"a": [1, 2]})
        polystore.store(Dataset("t", table))
        assert polystore.fetch("t") == table

    def test_fetch_document_strips_ids(self, polystore):
        polystore.store(Dataset("d", [{"a": 1}], format="json"))
        assert polystore.fetch("d") == [{"a": 1}]

    def test_fetch_text(self, polystore):
        polystore.store(Dataset("log", "hello", format="text"))
        assert polystore.fetch("log") == "hello"

    def test_fetch_unplaced(self, polystore):
        with pytest.raises(DatasetNotFound):
            polystore.fetch("ghost")


class TestSummary:
    def test_backend_summary(self, polystore):
        polystore.store(Dataset("t", Table.from_columns("t", {"a": [1]})))
        polystore.store(Dataset("d", [{"a": 1}], format="json"))
        polystore.store(Dataset("x", "text", format="text"))
        assert polystore.backend_summary() == {
            "relational": 1, "document": 1, "objects": 1,
        }

    def test_placements_sorted(self, polystore):
        polystore.store(Dataset("b", Table.from_columns("b", {"a": [1]})))
        polystore.store(Dataset("a", Table.from_columns("a", {"a": [1]})))
        assert [p.dataset for p in polystore.placements()] == ["a", "b"]
