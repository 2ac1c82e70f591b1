"""Column profiling — the shared first step of every discovery system.

The survey observes (Sec. 6.2.5) a "standard procedure": first "define and
extract relatedness signals from tables w.r.t. data (e.g., value overlaps,
data distribution patterns), schemata (e.g., attribute names, key
constraints), semantics, and descriptive metadata".  :class:`TableProfiler`
extracts those signals once per column into a :class:`ColumnProfile`, which
the individual systems (Aurum, JOSIE, D3L, Juneau, ...) then index in their
own ways.  Aurum calls these per-column summaries *signatures*.

Every signal but one is extracted when the column is profiled.  The value
embedding, which of the profiling engines only D3L reads, is computed on
the first read of :attr:`ColumnProfile.embedding` and then kept on the
profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

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

    ``embedding`` is computed on first read, by ``embedder``, from the
    column name plus the first ``embed_sample`` sorted ``distinct`` values,
    and kept from then on.  Two threads racing on the first read compute
    the same deterministic vector, so no lock guards it.
    """

    table: str
    column: str
    dtype: DataType
    num_values: int
    num_distinct: int
    null_fraction: float
    uniqueness: float
    distinct: Set[str]
    minhash: MinHashSignature
    name_tokens: Tuple[str, ...]
    name_qgrams: Set[str]
    patterns: Counter
    numeric: List[float]
    embedder: HashedEmbedder = field(repr=False, compare=False)
    embed_sample: int = field(repr=False, compare=False)
    _embedding: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)

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
        Cap on how many distinct values are materialized per column; beyond
        the cap only the MinHash sketch represents the set (lake-scale
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
        """Extract all signals for one column; the embedding waits for its
        first read."""
        distinct_all = column.distinct()
        minhash = self.hasher.signature(distinct_all)
        distinct = distinct_all
        if len(distinct) > self.max_distinct:
            distinct = set(sorted(distinct)[: self.max_distinct])
        non_null = len(column) - column.null_count
        patterns = Counter(
            value_pattern(v) for v in column.values if v is not None
        )
        patterns.pop("", None)
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
            name_qgrams=qgrams(column.name),
            patterns=patterns,
            numeric=numeric_values(column.values),
            embedder=self.embedder,
            embed_sample=self.embed_sample,
        )

    def profile_table(self, table: Table) -> List[ColumnProfile]:
        """Profile every column of *table*."""
        return [self.profile_column(table.name, column) for column in table.columns]
