"""Tests for D3L five-dimensional discovery."""

import math

import pytest

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound
from repro.discovery.d3l import D3L, FEATURE_NAMES, column_pair_features
from repro.discovery.profiles import TableProfiler


@pytest.fixture
def d3l(small_lake):
    engine = D3L()
    for table in small_lake:
        engine.add_table(table)
    return engine


class TestFeatures:
    def test_five_features_in_unit_interval(self, customers, orders):
        profiler = TableProfiler()
        left = profiler.profile_column("customers", customers["customer_id"])
        right = profiler.profile_column("orders", orders["customer_id"])
        features = column_pair_features(left, right)
        assert len(features) == 5
        assert all(0.0 <= f <= 1.0 for f in features)

    def test_name_feature_high_for_same_name(self, customers, orders):
        profiler = TableProfiler()
        left = profiler.profile_column("customers", customers["customer_id"])
        right = profiler.profile_column("orders", orders["customer_id"])
        name, value, *_ = column_pair_features(left, right)
        assert name == 1.0
        assert value > 0.4

    def test_distribution_feature_for_numeric(self, customers):
        profiler = TableProfiler()
        age = profiler.profile_column("customers", customers["age"])
        features = column_pair_features(age, age)
        assert features[4] == 1.0  # identical distributions

    def test_format_feature(self):
        profiler = TableProfiler()
        left = profiler.profile_column("a", Table.from_columns("a", {"c": ["AB-12"]})["c"])
        right = profiler.profile_column("b", Table.from_columns("b", {"c": ["XY-99"]})["c"])
        features = column_pair_features(left, right)
        assert features[3] == 1.0  # same representation pattern


class TestDistance:
    def test_identical_columns_distance_zero(self, d3l):
        profile = d3l._profiles[("customers", "customer_id")]
        assert d3l.column_distance(profile, profile) == pytest.approx(0.0, abs=1e-9)

    def test_active_feature_subset(self, small_lake):
        engine = D3L(active_features=["value"])
        for table in small_lake:
            engine.add_table(table)
        left = engine._profiles[("customers", "customer_id")]
        right = engine._profiles[("orders", "customer_id")]
        # only the value dimension contributes
        expected = 1.0 - left.minhash.jaccard(right.minhash)
        assert engine.column_distance(left, right) == pytest.approx(expected, abs=1e-6)

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            D3L(active_features=["bogus"])

    def test_ablation_without_embedding_never_embeds(self, monkeypatch,
                                                     small_lake):
        from repro.ml.embeddings import HashedEmbedder

        calls = []
        embed_set = HashedEmbedder.embed_set

        def spy(self, texts):
            calls.append(texts)
            return embed_set(self, texts)

        monkeypatch.setattr(HashedEmbedder, "embed_set", spy)
        engine = D3L(active_features=["name", "value", "format",
                                      "distribution"])
        for table in small_lake:
            engine.add_table(table)
        assert engine.related_columns("orders", "customer_id")
        assert calls == []

    @pytest.mark.parametrize("active", [None, ["name", "value", "format",
                                               "distribution"]])
    def test_distance_equals_the_all_features_distance(self, small_lake,
                                                       active):
        """Computing only the used dimensions changes no distance."""
        engine = D3L(active_features=active)
        for table in small_lake:
            engine.add_table(table)
        profiles = list(engine._profiles.values())
        for left in profiles:
            for right in profiles:
                features = column_pair_features(left, right)
                total = used = 0.0
                for weight, feature, on, defined in zip(
                        engine.weights, features, engine.active,
                        engine._applicable(left, right)):
                    if on and defined:
                        gap = 1.0 - feature
                        total += weight * gap * gap
                        used += weight
                expected = math.sqrt(total / used) if used else 1.0
                assert engine.column_distance(left, right) == expected


class TestTraining:
    def test_weights_from_ground_truth(self, d3l):
        labeled = [
            (("customers", "customer_id"), ("orders", "customer_id"), True),
            (("customers", "city"), ("orders", "amount"), False),
            (("customers", "age"), ("orders", "order_id"), False),
            (("customers", "name"), ("products", "price"), False),
        ]
        weights = d3l.train_weights(labeled)
        assert len(weights) == 5
        assert sum(weights) == pytest.approx(1.0)
        assert all(w >= 0 for w in weights)

    def test_empty_training_rejected(self, d3l):
        with pytest.raises(ValueError):
            d3l.train_weights([])

    def test_unresolvable_pairs_rejected(self, d3l):
        with pytest.raises(DatasetNotFound):
            d3l.train_weights([(("x", "y"), ("z", "w"), True)])


class TestQueries:
    def test_related_columns(self, d3l):
        hits = d3l.related_columns("orders", "customer_id", k=3)
        assert hits[0][0] == ("customers", "customer_id")

    def test_related_tables(self, d3l):
        hits = d3l.related_tables("orders", k=2)
        assert hits[0][0] == "customers"

    def test_unknown_table(self, d3l):
        with pytest.raises(DatasetNotFound):
            d3l.related_tables("ghost")

    def test_populate_includes_topk(self, d3l):
        result = d3l.populate("orders", k=2)
        assert "customers" in result

    def test_populate_join_path_extension(self):
        """A table outside the top-k joins in via a top-k member."""
        engine = D3L()
        base = Table.from_columns("base", {"k": [f"k{i}" for i in range(50)]})
        middle = Table.from_columns("middle", {
            "k": [f"k{i}" for i in range(50)],
            "m": [f"m{i}" for i in range(50)],
        })
        # 'far' shares nothing with 'base' but joins with 'middle' and adds
        # a new attribute
        far = Table.from_columns("far", {
            "m": [f"m{i}" for i in range(50)],
            "extra_attribute": list(range(50)),
        })
        for table in (base, middle, far):
            engine.add_table(table)
        result = engine.populate("base", k=1)
        assert result[0] == "middle"
        assert "far" in result
