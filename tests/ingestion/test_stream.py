"""Tests for streaming ingestion and the incremental MinHash."""

import random

import pytest

from repro.ingestion.stream import StreamIngester
from repro.ml.lsh import LSHIndex
from repro.ml.minhash import MinHasher


class TestIncrementalMinHash:
    def test_matches_batch_signature_exactly(self):
        hasher = MinHasher(num_perm=128)
        values = [f"v{i}" for i in range(200)]
        incremental = hasher.incremental()
        incremental.update_many(values)
        assert incremental.signature().values == hasher.signature(values).values

    def test_duplicates_free(self):
        hasher = MinHasher(num_perm=64)
        incremental = hasher.incremental()
        incremental.update_many(["a", "a", "a", "b"])
        assert incremental.distinct_count == 2
        assert incremental.values_seen == 4
        assert incremental.signature().values == hasher.signature(["a", "b"]).values

    def test_empty_sketch(self):
        hasher = MinHasher(num_perm=32)
        assert hasher.incremental().signature().set_size == 0

    def test_order_independent(self):
        hasher = MinHasher(num_perm=64)
        forward = hasher.incremental()
        forward.update_many(["x", "y", "z"])
        backward = hasher.incremental()
        backward.update_many(["z", "y", "x"])
        assert forward.signature().values == backward.signature().values


class TestStreamIngester:
    def test_columns_appear_lazily(self):
        ingester = StreamIngester("events")
        ingester.consume({"a": 1})
        ingester.consume({"a": 2, "b": "x"})
        assert ingester.columns() == ["a", "b"]
        assert ingester.column("b").count == 1

    def test_reservoir_bounded(self):
        ingester = StreamIngester("events", reservoir_size=10)
        ingester.consume_many({"v": f"val{i}"} for i in range(1000))
        assert len(ingester.column("v").reservoir) == 10
        assert ingester.column("v").count == 1000

    def test_reservoir_roughly_uniform(self):
        """Late values must have a fair chance of being sampled."""
        ingester = StreamIngester("events", reservoir_size=50, seed=3)
        ingester.consume_many({"v": i} for i in range(1000))
        sampled = ingester.column("v").reservoir
        late = sum(1 for v in sampled if v >= 500)
        assert 10 <= late <= 40  # expectation 25, generous bounds

    def test_welford_statistics(self):
        ingester = StreamIngester("m")
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        ingester.consume_many({"x": v} for v in values)
        column = ingester.column("x")
        assert column.mean == pytest.approx(5.0)
        assert column.variance == pytest.approx(4.0)
        assert (column.minimum, column.maximum) == (2.0, 9.0)

    def test_integer_beyond_float_range_skips_the_statistics(self):
        ingester = StreamIngester("m")
        ingester.consume_many({"x": v} for v in (10**400, 2, 4))
        column = ingester.column("x")
        assert (column.count, column.numeric_count) == (3, 2)
        assert column.mean == pytest.approx(3.0)
        assert (column.minimum, column.maximum) == (2.0, 4.0)

    def test_nulls_counted_not_sketched(self):
        ingester = StreamIngester("m")
        ingester.consume_many([{"x": None}, {"x": ""}, {"x": "a"}])
        column = ingester.column("x")
        assert column.null_count == 2
        assert column.sketch.distinct_count == 1

    def test_summary(self):
        ingester = StreamIngester("m")
        ingester.consume_many({"x": i % 5} for i in range(100))
        summary = ingester.summary()["x"]
        assert summary["count"] == 100
        assert summary["distinct_estimate"] == 5
        assert summary["mean"] == pytest.approx(2.0)


class TestStreamDiscovery:
    def test_stream_joins_against_lake_index_without_storage(self):
        """The DLN setting: discover related lake columns for a stream."""
        rng = random.Random(0)
        universe = [f"cust-{i:04d}" for i in range(300)]
        hasher = MinHasher(num_perm=128)
        index = LSHIndex(num_perm=128, threshold=0.4)
        index.add(("customers", "customer_id"), hasher.signature(universe))
        index.add(("products", "sku"), hasher.signature(f"sku{i}" for i in range(300)))
        ingester = StreamIngester("orders_stream", num_perm=128)
        ingester.consume_many(
            {"customer_id": rng.choice(universe), "amount": rng.random()}
            for _ in range(2000)
        )
        hits = ingester.joinable_against(index, "customer_id", min_similarity=0.5)
        assert hits and hits[0][0] == ("customers", "customer_id")

    def test_incompatible_index_rejected(self):
        ingester = StreamIngester("s", num_perm=64)
        ingester.consume({"x": "a"})
        index = LSHIndex(num_perm=128)
        with pytest.raises(ValueError):
            # query signature length mismatches the index geometry
            index.query(ingester.column("x").signature())
