"""Tests for the shared column profiler."""

import pytest

from repro.core.dataset import Column, Table
from repro.core.types import DataType
from repro.discovery.profiles import TableProfiler


@pytest.fixture
def profiler():
    return TableProfiler()


class TestProfileColumn:
    def test_basic_signals(self, profiler):
        column = Column("customer_id", [f"c{i}" for i in range(50)])
        profile = profiler.profile_column("t", column)
        assert profile.ref == ("t", "customer_id")
        assert profile.num_distinct == 50
        assert profile.uniqueness == 1.0
        assert profile.name_tokens == ("customer", "id")
        assert profile.minhash.set_size == 50

    def test_key_candidate(self, profiler):
        unique = profiler.profile_column("t", Column("id", [f"k{i}" for i in range(40)]))
        repeated = profiler.profile_column("t", Column("cat", ["a", "b"] * 20))
        assert unique.is_key_candidate
        assert not repeated.is_key_candidate

    def test_nully_column_not_key(self, profiler):
        values = [f"k{i}" for i in range(10)] + [None] * 10
        profile = profiler.profile_column("t", Column("id", values))
        assert not profile.is_key_candidate

    def test_numeric_signal(self, profiler):
        profile = profiler.profile_column("t", Column("x", [1, 2, 3, "4"]))
        assert profile.numeric == [1.0, 2.0, 3.0, 4.0]

    def test_patterns(self, profiler):
        profile = profiler.profile_column("t", Column("code", ["AB-12", "CD-3456", None]))
        assert profile.dominant_pattern() == "A-9"
        assert profile.patterns["A-9"] == 2

    def test_distinct_capped_but_sketch_full(self):
        profiler = TableProfiler(max_distinct=10)
        column = Column("v", [f"x{i}" for i in range(100)])
        profile = profiler.profile_column("t", column)
        assert len(profile.distinct) == 10
        assert profile.num_distinct == 100
        assert profile.minhash.set_size == 100

    def test_embedding_normalized(self, profiler):
        import numpy as np

        profile = profiler.profile_column("t", Column("city", ["berlin", "paris"]))
        assert np.linalg.norm(profile.embedding) == pytest.approx(1.0)


class TestLazyEmbedding:
    @pytest.fixture
    def calls(self, monkeypatch, profiler):
        calls = []
        embed_set = profiler.embedder.embed_set

        def spy(texts):
            calls.append(list(texts))
            return embed_set(texts)

        monkeypatch.setattr(profiler.embedder, "embed_set", spy)
        return calls

    def test_profiling_does_not_embed(self, profiler, calls, customers):
        profiler.profile_table(customers)
        assert calls == []

    @pytest.mark.parametrize("max_distinct, column", [
        (10_000, Column("city", ["berlin", "paris", None, "berlin"])),
        (10, Column("v", [f"x{i}" for i in range(100)])),
        (10_000, Column("empty", [None, None])),
        (10_000, Column("", [None, None])),  # no name tokens: the zero vector
    ])
    def test_first_read_embeds_name_and_sample(self, profiler, calls,
                                               max_distinct, column):
        import numpy as np

        profiler.max_distinct = max_distinct
        profile = profiler.profile_column("t", column)
        texts = [column.name] + sorted(profile.distinct)[: profiler.embed_sample]
        expected = profiler.embedder.embed_set(texts)
        del calls[:]
        first = profile.embedding
        assert calls == [texts]
        assert np.array_equal(first, expected)
        if not column.name:
            assert not first.any()
        assert profile.embedding is first  # kept: no second embed
        assert len(calls) == 1


class TestProfileTable:
    def test_profiles_every_column(self, profiler, customers):
        profiles = profiler.profile_table(customers)
        assert [p.column for p in profiles] == customers.column_names
        assert all(p.table == "customers" for p in profiles)

    def test_comparable_signatures(self, profiler, customers, orders):
        left = {p.column: p for p in profiler.profile_table(customers)}
        right = {p.column: p for p in profiler.profile_table(orders)}
        similarity = left["customer_id"].minhash.jaccard(right["customer_id"].minhash)
        assert similarity > 0.5  # orders draw from customers' ids
