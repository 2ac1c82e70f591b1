"""Tests for the shared column profiler."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataset import Column, Table
from repro.core.types import DataType, is_null, numeric_values, value_pattern
from repro.discovery.profiles import TableProfiler
from repro.ml.text import qgrams
from tests.core.test_dataset import MESSY_VALUES


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


class TestLazySignals:
    @given(values=MESSY_VALUES, name=st.text(max_size=8), max_distinct=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_signals_equal_the_eager_formulas(self, values, name, max_distinct):
        profile = TableProfiler(max_distinct=max_distinct).profile_column("t", Column(name, values))
        # the expressions profiling evaluated eagerly before these signals were lazy
        distinct_all = {str(v) for v in values if not is_null(v)}
        distinct = distinct_all
        if len(distinct) > max_distinct:
            distinct = set(sorted(distinct)[:max_distinct])
        patterns = Counter(value_pattern(v) for v in values if v is not None)
        patterns.pop("", None)
        assert profile.distinct == distinct
        assert profile.num_distinct == len(distinct_all)
        assert profile.num_values == len(values) - sum(1 for v in values if is_null(v))
        signals = (profile.patterns, profile.numeric, profile.name_qgrams)
        assert signals == (patterns, numeric_values(values), qgrams(name))
        again = (profile.patterns, profile.numeric, profile.name_qgrams)
        assert all(first is second for first, second in zip(signals, again))


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
