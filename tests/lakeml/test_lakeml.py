"""Tests for the ML-aware lake features (Sec. 8.2 implemented)."""

import random

import pytest

from repro.core.dataset import Table
from repro.core.errors import DataLakeError
from repro.lakeml import LakeMLPipeline, ModelRegistry, TrainingDataAugmenter
from repro.lakeml.pipeline import _featurize, _stable_bucket


def churn_world(seed=5, n=200):
    """A generative churn scenario: 'plan' is highly predictive."""
    rng = random.Random(seed)
    ids = [f"c{i:04d}" for i in range(n)]
    plans = [rng.choice(["basic", "premium"]) for _ in range(n)]
    usage = [round(rng.uniform(0, 100), 1) for _ in range(n)]
    churn = [
        "yes" if (plan == "basic" and rng.random() < 0.9)
        or (plan == "premium" and rng.random() < 0.1) else "no"
        for plan in plans
    ]
    return ids, plans, usage, churn


def split_tables(seed=5):
    ids, plans, usage, churn = churn_world(seed)
    train_idx = list(range(0, 25))
    extra_idx = list(range(25, 150))
    test_idx = list(range(150, 200))

    def subset(name, idx):
        return Table.from_columns(name, {
            "customer_id": [ids[i] for i in idx],
            "usage": [usage[i] for i in idx],
            "churn": [churn[i] for i in idx],
        })

    training = subset("training", train_idx)
    crm_extract = subset("crm_extract", extra_idx)          # unionable
    plans_table = Table.from_columns("plans", {             # joinable
        "customer_id": ids,
        "plan": plans,
    })
    test = subset("test", test_idx)
    return training, crm_extract, plans_table, test


@pytest.fixture
def world():
    return split_tables()


class TestAugmenter:
    def test_find_unionable(self, world):
        training, crm_extract, plans_table, _ = world
        augmenter = TrainingDataAugmenter()
        augmenter.add_lake_table(crm_extract)
        augmenter.add_lake_table(plans_table)
        hits = augmenter.find_unionable(training)
        assert hits and hits[0][0] == "crm_extract"

    def test_augment_rows_grows_training_set(self, world):
        training, crm_extract, _, _ = world
        augmenter = TrainingDataAugmenter()
        augmenter.add_lake_table(crm_extract)
        result = augmenter.augment_rows(training)
        assert result.added_rows == len(crm_extract)
        assert result.used_tables == ["crm_extract"]
        assert result.table.column_names == training.column_names

    def test_augment_rows_deduplicates(self, world):
        training, _, _, _ = world
        augmenter = TrainingDataAugmenter()
        augmenter.add_lake_table(training.rename({}, name="copy"))
        result = augmenter.augment_rows(training)
        assert result.added_rows == 0

    def test_find_joinable(self, world):
        training, _, plans_table, _ = world
        augmenter = TrainingDataAugmenter()
        augmenter.add_lake_table(plans_table)
        hits = augmenter.find_joinable(training, "customer_id")
        assert hits[0][0] == ("plans", "customer_id")

    def test_augment_features_left_join(self, world):
        training, _, plans_table, _ = world
        augmenter = TrainingDataAugmenter()
        augmenter.add_lake_table(plans_table)
        result = augmenter.augment_features(training, "customer_id")
        assert "plans.plan" in result.table.column_names
        assert len(result.table) == len(training)  # left join keeps all rows
        assert result.added_columns == ["plans.plan"]

    def test_augment_features_unmatched_keys_null(self, world):
        training, _, plans_table, _ = world
        augmenter = TrainingDataAugmenter(join_overlap=1)
        augmenter.add_lake_table(plans_table)
        odd = Table.from_columns("odd", {
            "customer_id": ["c0000", "zzz"], "churn": ["yes", "no"],
        })
        result = augmenter.augment_features(odd, "customer_id")
        assert result.table["plans.plan"].values[1] is None


class TestRegistry:
    def test_register_and_versions(self):
        registry = ModelRegistry()
        first = registry.register("churn", ["training"], metrics={"accuracy": 0.7})
        second = registry.register("churn", ["training", "plans"],
                                   metrics={"accuracy": 0.9})
        assert first.version == 1 and second.version == 2
        assert registry.get("churn").version == 2
        assert registry.get("churn", 1).metrics["accuracy"] == 0.7

    def test_lifecycle(self):
        registry = ModelRegistry()
        registry.register("m", ["d"])
        registry.advance("m", 1, "deployed")
        assert registry.get("m").stage == "deployed"
        with pytest.raises(DataLakeError):
            registry.advance("m", 1, "trained")  # no going back

    def test_models_trained_on(self):
        registry = ModelRegistry()
        registry.register("a", ["sales", "plans"])
        registry.register("b", ["plans"])
        registry.register("c", ["other"])
        assert registry.models_trained_on("plans") == ["model:a:v1", "model:b:v1"]

    def test_best_version(self):
        registry = ModelRegistry()
        registry.register("m", ["d"], metrics={"accuracy": 0.6})
        registry.register("m", ["d"], metrics={"accuracy": 0.8})
        assert registry.best_version("m", "accuracy").version == 2

    def test_unknown_model(self):
        with pytest.raises(DataLakeError):
            ModelRegistry().get("ghost")

    def test_provenance_links_model_to_data(self):
        registry = ModelRegistry()
        record = registry.register("m", ["sales"])
        events = registry.recorder.events("train-model")
        assert events[0].inputs == ("sales",)
        assert events[0].outputs == (record.key,)


class TestFeaturize:
    def test_integer_beyond_float_range_is_bucketed_as_text(self):
        table = Table.from_columns("t", {"n": [10**400, 5], "label": ["a", "b"]})
        features, labels = _featurize(table, ["n"], "label")
        assert features == [[_stable_bucket(str(10**400))], [5.0]]
        assert labels == ["a", "b"]


class TestPipeline:
    def test_augmentation_improves_accuracy(self, world):
        training, crm_extract, plans_table, test = world
        pipeline = LakeMLPipeline(seed=3)
        pipeline.add_lake_table(crm_extract)
        pipeline.add_lake_table(plans_table)
        model, report = pipeline.run(
            training, test, label_column="churn", key_column="customer_id",
        )
        assert report.rows_after > report.rows_before
        assert report.features_after > report.features_before
        assert "crm_extract" in report.used_tables
        assert "plans" in report.used_tables
        # the Sec. 8.2 question, answered: lake augmentation helps
        assert report.augmented_accuracy > report.baseline_accuracy
        assert report.augmented_accuracy >= 0.75

    def test_model_registered_with_lineage(self, world):
        training, crm_extract, plans_table, test = world
        pipeline = LakeMLPipeline(seed=3)
        pipeline.add_lake_table(crm_extract)
        pipeline.add_lake_table(plans_table)
        _, report = pipeline.run(training, test, label_column="churn",
                                 key_column="customer_id", model_name="churn")
        assert report.model_key == "model:churn:v1"
        lineage = pipeline.registry.datasets_of("churn")
        assert "training" in lineage and "plans" in lineage

    def test_missing_label_rejected(self, world):
        training, _, _, test = world
        with pytest.raises(DataLakeError):
            LakeMLPipeline().run(training, test, label_column="nope")
