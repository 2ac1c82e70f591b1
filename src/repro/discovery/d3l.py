"""D3L — dataset discovery via five similarity dimensions (Sec. 6.2.1).

D3L "regards five signals of dataset similarity: i) attribute name
similarity, ii) instance value overlaps between columns, iii) embedding
similarity of columns, iv) format similarity of instance values, and v)
distribution similarity of numerical attributes ... transforms the problem
of finding the relatedness between tables to the calculation of weighted
Euclidean distance in a 5-dimensional space ... To tune the feature
weights, D3L trains a binary classifier over a training dataset with
relatedness ground truth, and applies the coefficients of the trained model
as the weight of features."

Implementation notes
--------------------
- The five per-column-pair features are computed from
  :class:`~repro.discovery.profiles.ColumnProfile` signals:
  name q-gram Jaccard, value MinHash Jaccard, embedding cosine,
  pattern-distribution cosine, and 1 - Kolmogorov-Smirnov.
- ``train_weights`` fits a least-squares linear separator on labeled pairs
  (the binary classifier) and uses its normalized non-negative
  coefficients as the distance weights, exactly the paper's recipe.
- Candidate generation uses the MinHash LSH index (instead of all-pairs),
  with a name-index union so purely-schema-related columns are found too.
- ``populate`` implements the survey's exploration mode 2, including the
  join-path extension: a table outside the top-k enters the result if it
  joins with a top-k table and adds attribute coverage.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound
from repro.core.registry import Function, Method, SystemInfo, register_system
from repro.discovery.profiles import ColumnProfile, TableProfiler
from repro.ml.embeddings import cosine
from repro.ml.lsh import LSHIndex
from repro.ml.stats import ks_similarity
from repro.obs import traced
from repro.ml.text import jaccard

FEATURE_NAMES = ("name", "value", "embedding", "format", "distribution")


def _name_similarity(left: ColumnProfile, right: ColumnProfile) -> float:
    return jaccard(left.name_qgrams, right.name_qgrams)


def _value_similarity(left: ColumnProfile, right: ColumnProfile) -> float:
    return left.minhash.jaccard(right.minhash)


def _embedding_similarity(left: ColumnProfile, right: ColumnProfile) -> float:
    return max(0.0, cosine(left.embedding, right.embedding))


def _distribution_similarity(left: ColumnProfile, right: ColumnProfile) -> float:
    if left.numeric and right.numeric:
        return ks_similarity(left.numeric, right.numeric)
    return 0.0


def _pattern_cosine(left: ColumnProfile, right: ColumnProfile) -> float:
    """Cosine similarity of the two pattern-frequency distributions."""
    if not left.patterns or not right.patterns:
        return 0.0
    keys = set(left.patterns) | set(right.patterns)
    l_total = sum(left.patterns.values())
    r_total = sum(right.patterns.values())
    dot = l_norm = r_norm = 0.0
    for key in keys:
        lv = left.patterns.get(key, 0) / l_total
        rv = right.patterns.get(key, 0) / r_total
        dot += lv * rv
        l_norm += lv * lv
        r_norm += rv * rv
    if l_norm == 0.0 or r_norm == 0.0:
        return 0.0
    return dot / math.sqrt(l_norm * r_norm)


#: one similarity function per dimension, in FEATURE_NAMES order
_FEATURES = (_name_similarity, _value_similarity, _embedding_similarity,
             _pattern_cosine, _distribution_similarity)


def column_pair_features(left: ColumnProfile, right: ColumnProfile) -> Tuple[float, ...]:
    """The five D3L similarity features of a column pair, each in [0, 1]."""
    return tuple(feature(left, right) for feature in _FEATURES)


@register_system(SystemInfo(
    name="D3L",
    functions=(Function.RELATED_DATASET_DISCOVERY, Function.QUERY_DRIVEN_DISCOVERY),
    methods=(Method.JOINABLE,),
    paper_refs=("[14]",),
    summary="Five similarity dimensions (name, values, embeddings, format, "
            "distribution) combined as weighted Euclidean distance in 5-dim space; "
            "weights from a trained binary classifier; LSH candidate generation.",
    relatedness_criteria=(
        "Instance value overlap", "Attribute name", "Semantics",
        "Data value representation pattern", "(Numerical) data distribution",
    ),
    similarity_metrics=(
        "Jaccard similarity (MinHash)", "Cosine similarity (Random projections)",
    ),
    technique="5-dim Euclidean space",
))
class D3L:
    """Five-dimensional weighted-distance dataset discovery."""

    def __init__(
        self,
        weights: Optional[Sequence[float]] = None,
        num_perm: int = 128,
        lsh_threshold: float = 0.3,
        active_features: Optional[Sequence[str]] = None,
    ):
        self.profiler = TableProfiler(num_perm=num_perm)
        self.lsh = LSHIndex(num_perm=num_perm, threshold=lsh_threshold)
        self._profiles: Dict[Tuple[str, str], ColumnProfile] = {}
        self._tables: Dict[str, Table] = {}
        self.weights = tuple(weights) if weights is not None else (0.2,) * 5
        if active_features is None:
            self.active = tuple(True for _ in FEATURE_NAMES)
        else:
            unknown = set(active_features) - set(FEATURE_NAMES)
            if unknown:
                raise ValueError(f"unknown features {sorted(unknown)}")
            self.active = tuple(name in active_features for name in FEATURE_NAMES)

    # -- indexing ---------------------------------------------------------------

    def add_table(self, table: Table) -> None:
        self._tables[table.name] = table
        for profile in self.profiler.profile_table(table):
            self._profiles[profile.ref] = profile
            self.lsh.add(profile.ref, profile.minhash)

    def tables(self) -> List[str]:
        return sorted(self._tables)

    # -- distance ----------------------------------------------------------------

    @staticmethod
    def _applicable(left: ColumnProfile, right: ColumnProfile) -> Tuple[bool, ...]:
        """Which of the five dimensions are defined for this column pair.

        The distribution dimension only exists when both columns hold
        numbers; the format dimension when both have value patterns.  An
        undefined dimension must not contribute distance (otherwise two
        identical text columns would sit 1.0 apart on the distribution
        axis).
        """
        both_numeric = bool(left.numeric) and bool(right.numeric)
        both_patterned = bool(left.patterns) and bool(right.patterns)
        return (True, True, True, both_patterned, both_numeric)

    def column_distance(self, left: ColumnProfile, right: ColumnProfile) -> float:
        """Weighted Euclidean distance in the (active, applicable) space.

        Only the active, applicable dimensions are computed, so an
        ablation without ``embedding`` never embeds a column.
        """
        applicable = self._applicable(left, right)
        total = 0.0
        used_weight = 0.0
        for weight, feature, active, defined in zip(
            self.weights, _FEATURES, self.active, applicable
        ):
            if not active or not defined:
                continue
            gap = 1.0 - feature(left, right)
            total += weight * gap * gap
            used_weight += weight
        if used_weight == 0.0:
            return 1.0
        return math.sqrt(total / used_weight)

    def column_similarity(self, left: ColumnProfile, right: ColumnProfile) -> float:
        return 1.0 - self.column_distance(left, right)

    # -- weight training ------------------------------------------------------------

    def train_weights(
        self,
        labeled_pairs: Sequence[Tuple[Tuple[str, str], Tuple[str, str], bool]],
    ) -> Tuple[float, ...]:
        """Learn feature weights from (left_ref, right_ref, related) triples.

        Fits a linear model ``features @ w ~ label`` by least squares and
        normalizes the clipped-positive coefficients into distance weights —
        the paper's "coefficients of the trained model as the weight of
        features".
        """
        if not labeled_pairs:
            raise ValueError("labeled_pairs must be non-empty")
        rows = []
        labels = []
        for left_ref, right_ref, related in labeled_pairs:
            left = self._profiles.get(tuple(left_ref))
            right = self._profiles.get(tuple(right_ref))
            if left is None or right is None:
                continue
            rows.append(column_pair_features(left, right))
            labels.append(1.0 if related else 0.0)
        if not rows:
            raise DatasetNotFound("no labeled pair references resolve to indexed columns")
        matrix = np.array(rows)
        target = np.array(labels)
        coefficients, *_ = np.linalg.lstsq(matrix, target, rcond=None)
        clipped = np.clip(coefficients, 0.0, None)
        if clipped.sum() == 0:
            clipped = np.ones_like(clipped)
        self.weights = tuple(float(w) for w in clipped / clipped.sum())
        return self.weights

    # -- queries ------------------------------------------------------------------------

    def _candidates(self, profile: ColumnProfile) -> Set[Tuple[str, str]]:
        """LSH value-candidates plus name-similar columns (cheap union)."""
        found = {
            ref for ref, _ in self.lsh.query(profile.minhash, min_similarity=0.0,
                                             exclude=profile.ref)
        }
        for ref, other in self._profiles.items():
            if ref == profile.ref:
                continue
            if jaccard(profile.name_qgrams, other.name_qgrams) >= 0.5:
                found.add(ref)
        return found

    @traced("exploration.d3l.related_columns", tier="exploration", system="D3L",
            function="query_driven_discovery")
    def related_columns(
        self, table: str, column: str, k: int = 5
    ) -> List[Tuple[Tuple[str, str], float]]:
        """Top-k columns by combined similarity."""
        profile = self._profiles.get((table, column))
        if profile is None:
            raise DatasetNotFound(f"column {table}.{column} is not indexed")
        scored = []
        for ref in self._candidates(profile):
            if ref[0] == table:
                continue
            similarity = self.column_similarity(profile, self._profiles[ref])
            scored.append((ref, similarity))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

    @traced("exploration.d3l.related_tables", tier="exploration", system="D3L",
            function="query_driven_discovery")
    def related_tables(self, table: str, k: int = 5) -> List[Tuple[str, float]]:
        """Top-k tables by summed best-per-column similarity."""
        if table not in self._tables:
            raise DatasetNotFound(f"table {table!r} is not indexed")
        per_table: Dict[str, float] = {}
        for ref, profile in self._profiles.items():
            if ref[0] != table:
                continue
            best: Dict[str, float] = {}
            for other_ref in self._candidates(profile):
                if other_ref[0] == table:
                    continue
                similarity = self.column_similarity(profile, self._profiles[other_ref])
                best[other_ref[0]] = max(best.get(other_ref[0], 0.0), similarity)
            for other_table, similarity in best.items():
                per_table[other_table] = per_table.get(other_table, 0.0) + similarity
        ranked = sorted(per_table.items(), key=lambda pair: (-pair[1], pair[0]))
        return ranked[:k]

    @traced("exploration.d3l.populate", tier="exploration", system="D3L",
            function="query_driven_discovery")
    def populate(self, table: str, k: int = 5) -> List[str]:
        """Exploration mode 2: tables to populate *table*, with join paths.

        Returns the top-k related tables, extended with tables outside the
        top-k that join with a top-k member and contribute at least one
        column name not yet covered (the D3L join-path augmentation).
        """
        top = [name for name, _ in self.related_tables(table, k=k)]
        covered = set(self._tables[table].column_names)
        for member in top:
            covered |= set(self._tables[member].column_names)
        extended = list(top)
        for candidate in self.tables():
            if candidate == table or candidate in extended:
                continue
            candidate_columns = set(self._tables[candidate].column_names)
            adds_coverage = bool(candidate_columns - covered)
            if not adds_coverage:
                continue
            joins_topk = any(
                self._joinable(candidate, member) for member in top
            )
            if joins_topk:
                extended.append(candidate)
                covered |= candidate_columns
        return extended

    def _joinable(self, left_table: str, right_table: str, threshold: float = 0.4) -> bool:
        for left_ref, left in self._profiles.items():
            if left_ref[0] != left_table:
                continue
            for right_ref, right in self._profiles.items():
                if right_ref[0] != right_table:
                    continue
                if left.minhash.jaccard(right.minhash) >= threshold:
                    return True
        return False
