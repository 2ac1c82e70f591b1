"""Column profiling — the shared first step of every discovery system.

The survey observes (Sec. 6.2.5) a "standard procedure": first "define and
extract relatedness signals from tables w.r.t. data (e.g., value overlaps,
data distribution patterns), schemata (e.g., attribute names, key
constraints), semantics, and descriptive metadata".  :class:`TableProfiler`
extracts those signals once per column into a :class:`ColumnProfile`, which
the individual systems (Aurum, JOSIE, D3L, Juneau, ...) then index in their
own ways.  Aurum calls these per-column summaries *signatures*.

Profiling extracts the signals every engine reads: the distinct values
and their MinHash sketch, the counts, the name tokens and the type.  The
signals only some engines read (the value patterns, the numeric
projection, the name q-grams and the value embedding; on the lake's
write path Aurum reads none of them) are computed on the first read of
the :class:`ColumnProfile` property and then kept on the profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.dataset import Column, Table
from repro.core.types import DataType, numeric_values, value_pattern
from repro.ml.embeddings import HashedEmbedder
from repro.ml.minhash import MinHasher, MinHashSignature
from repro.ml.text import qgrams, tokenize


@dataclass
class ColumnProfile:
    """All relatedness signals of one table column.

    Covers every criterion the survey's Table 3 lists: instance values
    (``distinct``, ``minhash``), attribute name (``name_tokens``,
    ``name_qgrams``), semantics (``embedding``), value representation
    pattern (``patterns``), numeric distribution (``numeric``), plus key
    signals (``uniqueness``) and null statistics.

    ``name_qgrams``, ``patterns``, ``numeric`` and ``embedding`` are
    computed on first read and kept from then on.  The q-grams come from
    the column name.  The patterns and the numeric projection come from
    the column's value list, which the profile keeps a reference to:
    every value, not only the ``distinct`` values ``max_distinct`` keeps.
    The embedding comes, by ``embedder``, from the column name plus the
    first ``embed_sample`` sorted ``distinct`` values.  Two threads racing
    on a first read compute the same deterministic value, so no lock
    guards them.
    """

    table: str
    column: str
    dtype: DataType
    num_values: int
    num_distinct: int
    null_fraction: float
    uniqueness: float
    distinct: FrozenSet[str]
    minhash: MinHashSignature
    name_tokens: Tuple[str, ...]
    embedder: HashedEmbedder = field(repr=False, compare=False)
    embed_sample: int = field(repr=False, compare=False)
    _values: Sequence[Any] = field(repr=False, compare=False)
    _name_qgrams: Optional[Set[str]] = field(
        default=None, init=False, repr=False, compare=False)
    _patterns: Optional[Counter] = field(
        default=None, init=False, repr=False, compare=False)
    _numeric: Optional[List[float]] = field(
        default=None, init=False, repr=False, compare=False)
    _embedding: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def name_qgrams(self) -> Set[str]:
        """Character 3-grams of the column name (D3L's name signal)."""
        if self._name_qgrams is None:
            self._name_qgrams = qgrams(self.column)
        return self._name_qgrams

    @property
    def patterns(self) -> Counter:
        """Value-representation pattern counts over the non-null values."""
        if self._patterns is None:
            patterns = Counter(value_pattern(v) for v in self._values if v is not None)
            patterns.pop("", None)
            self._patterns = patterns
        return self._patterns

    @property
    def numeric(self) -> List[float]:
        """The float projection of the values (the distribution signal)."""
        if self._numeric is None:
            self._numeric = numeric_values(self._values)
        return self._numeric

    @property
    def embedding(self) -> np.ndarray:
        """The semantic signal: a unit-norm centroid of name and sample."""
        if self._embedding is None:
            sample = sorted(self.distinct)[: self.embed_sample]
            self._embedding = self.embedder.embed_set([self.column] + sample)
        return self._embedding

    @property
    def ref(self) -> Tuple[str, str]:
        return (self.table, self.column)

    @property
    def is_key_candidate(self) -> bool:
        """Approximately unique, mostly non-null columns are key candidates.

        Aurum "detects primary-foreign key relationships between columns by
        first inferring approximate key attributes" (Sec. 6.2.1).
        """
        return self.uniqueness >= 0.95 and self.null_fraction <= 0.05 and self.num_values > 0

    def dominant_pattern(self) -> str:
        """Most frequent value-representation pattern (D3L's format signal)."""
        if not self.patterns:
            return ""
        return self.patterns.most_common(1)[0][0]


class TableProfiler:
    """Extract :class:`ColumnProfile` objects with shared, reusable hashers.

    Parameters
    ----------
    num_perm:
        MinHash permutations (shared across all profiles so signatures are
        comparable).
    max_distinct:
        Cap on how many distinct values a profile keeps; beyond the cap
        only the MinHash sketch represents the set (lake-scale
        discipline — the sketch, not the data, is what is indexed).
    embedder:
        The text embedder used for the semantic signal; defaults to a
        shared :class:`~repro.ml.embeddings.HashedEmbedder`.
    embed_sample:
        How many sorted distinct values join the column name in the
        semantic signal.  Profiling does not embed: each profile computes
        its embedding on first read.
    """

    def __init__(
        self,
        num_perm: int = 128,
        max_distinct: int = 10_000,
        embedder: Optional[HashedEmbedder] = None,
        embed_sample: int = 50,
    ):
        self.hasher = MinHasher(num_perm=num_perm)
        self.max_distinct = max_distinct
        self.embedder = embedder or HashedEmbedder()
        self.embed_sample = embed_sample

    def profile_column(self, table_name: str, column: Column) -> ColumnProfile:
        """Extract the signals every engine reads; the others wait for
        their first read."""
        distinct_all = column.distinct()
        minhash = self.hasher.signature(distinct_all)
        distinct = distinct_all
        if len(distinct) > self.max_distinct:
            distinct = frozenset(sorted(distinct)[: self.max_distinct])
        non_null = len(column) - column.null_count
        return ColumnProfile(
            table=table_name,
            column=column.name,
            dtype=column.dtype,
            num_values=non_null,
            num_distinct=len(distinct_all),
            null_fraction=column.null_fraction,
            uniqueness=(len(distinct_all) / non_null) if non_null else 0.0,
            distinct=distinct,
            minhash=minhash,
            name_tokens=tuple(tokenize(column.name)),
            embedder=self.embedder,
            embed_sample=self.embed_sample,
            _values=column.values,
        )

    def profile_table(self, table: Table) -> List[ColumnProfile]:
        """Profile every column of *table*."""
        return [self.profile_column(table.name, column) for column in table.columns]
