"""The end-to-end ML-aware lake pipeline (Sec. 8.2).

"How to combine and optimize the whole pipeline of data management and ML
life cycle in data lakes?" — :class:`LakeMLPipeline` composes the answers
this framework provides into one loop:

1. **clean** the training table (RFD violation repair, Sec. 6.5.1);
2. **augment rows** with unionable lake tables (discovery, Sec. 6.2);
3. **augment features** with joinable lake tables (JOSIE);
4. **train** the from-scratch random forest on the prepared data;
5. **evaluate** on held-out data and **register** the model version with
   its full data lineage.

``run`` returns both the trained model and an experiment report comparing
baseline (no lake help) against the lake-augmented model — the measurable
form of the survey's "improve ML model accuracy" question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cleaning.rfd_cleaning import RfdCleaner
from repro.core.dataset import Table
from repro.core.errors import DataLakeError
from repro.core.types import as_float, is_null
from repro.lakeml.augmentation import TrainingDataAugmenter
from repro.lakeml.registry import ModelRegistry
from repro.ml.forest import RandomForest


@dataclass
class PipelineReport:
    """What the pipeline did and how the models compare."""

    baseline_accuracy: float
    augmented_accuracy: float
    rows_before: int
    rows_after: int
    features_before: int
    features_after: int
    used_tables: List[str] = field(default_factory=list)
    repaired_cells: int = 0
    model_key: str = ""


def _stable_bucket(value: str, buckets: int = 97) -> float:
    """Process-independent categorical hashing (builtin hash() is salted)."""
    import hashlib

    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=4).digest()
    return (int.from_bytes(digest, "big") % buckets) / buckets


def _featurize(table: Table, feature_columns: Sequence[str], label_column: str):
    """Numeric feature matrix + labels; categorical cells hash to buckets."""
    features = []
    labels = []
    for row in table.rows():
        if is_null(row.get(label_column)):
            continue
        vector = []
        for column in feature_columns:
            value = row.get(column)
            if is_null(value):
                vector.append(0.0)
                continue
            number = as_float(value)
            vector.append(_stable_bucket(str(value)) if number is None
                          else number)
        features.append(vector)
        labels.append(str(row[label_column]))
    return features, labels


class LakeMLPipeline:
    """clean -> augment -> train -> evaluate -> register."""

    def __init__(
        self,
        augmenter: Optional[TrainingDataAugmenter] = None,
        registry: Optional[ModelRegistry] = None,
        seed: int = 7,
    ):
        self.augmenter = augmenter or TrainingDataAugmenter()
        self.registry = registry or ModelRegistry()
        self.cleaner = RfdCleaner(min_confidence=0.85)
        self.seed = seed

    def add_lake_table(self, table: Table) -> None:
        self.augmenter.add_lake_table(table)

    def _train_eval(
        self,
        train: Table,
        test: Table,
        label_column: str,
    ) -> Tuple[RandomForest, float]:
        feature_columns = [c for c in train.column_names if c != label_column]
        x_train, y_train = _featurize(train, feature_columns, label_column)
        if not x_train:
            raise DataLakeError("training table has no usable rows")
        model = RandomForest(num_trees=15, max_depth=8, seed=self.seed)
        model.fit(x_train, y_train)
        x_test, y_test = _featurize(test, feature_columns, label_column)
        return model, (model.accuracy(x_test, y_test) if x_test else 0.0)

    def run(
        self,
        training: Table,
        test: Table,
        label_column: str,
        key_column: Optional[str] = None,
        model_name: str = "lake_model",
    ) -> Tuple[RandomForest, PipelineReport]:
        """Run the pipeline; returns the augmented model and its report."""
        if label_column not in training:
            raise DataLakeError(f"training table lacks label column {label_column!r}")
        # baseline: train directly on the raw training table
        _, baseline_accuracy = self._train_eval(training, test, label_column)
        # 1. clean
        cleaned, cleaning_report = self.cleaner.repair(training)
        # 2. row augmentation
        row_result = self.augmenter.augment_rows(cleaned)
        prepared = row_result.table
        used = list(row_result.used_tables)
        # 3. feature augmentation (optional, needs a key); joined columns
        #    that would duplicate the label are dropped (no target leakage)
        added_columns: List[str] = []
        if key_column is not None and key_column in prepared:
            feature_result = self.augmenter.augment_features(prepared, key_column)
            prepared = feature_result.table
            leaky = [
                c for c in feature_result.added_columns
                if c.rsplit(".", 1)[-1] == label_column
            ]
            if leaky:
                prepared = prepared.project(
                    [c for c in prepared.column_names if c not in leaky]
                )
            used.extend(feature_result.used_tables)
            added_columns = [c for c in feature_result.added_columns if c not in leaky]
            # the test table needs the same feature columns
            test_augmented = self.augmenter.augment_features(test, key_column).table
            test = test_augmented.project(
                [c for c in test_augmented.column_names if c not in leaky]
            )
        used = list(dict.fromkeys(used))
        # 4-5. train, evaluate, register
        model, augmented_accuracy = self._train_eval(prepared, test, label_column)
        record = self.registry.register(
            model_name,
            training_datasets=[training.name] + used,
            hyperparameters={"num_trees": 15, "max_depth": 8},
            metrics={"accuracy": augmented_accuracy,
                     "baseline_accuracy": baseline_accuracy},
        )
        report = PipelineReport(
            baseline_accuracy=baseline_accuracy,
            augmented_accuracy=augmented_accuracy,
            rows_before=len(training),
            rows_after=len(prepared),
            features_before=training.width - 1,
            features_after=prepared.width - 1,
            used_tables=used,
            repaired_cells=cleaning_report.repaired_cells,
            model_key=record.key,
        )
        return model, report
