"""Table union search (Nargesian et al. [106], referenced throughout Sec. 6).

The survey leans on "table union search on open data" repeatedly: it is the
source of the attribute representations behind the organization work
(Sec. 6.1.3) and the "semantics-aware dataset unionability" that
classification-based organizers miss (Sec. 6.1.4).  This module implements
the core of [106]: *attribute unionability* measured through three signals —

- **set unionability** — value-overlap (Jaccard) of the two attributes;
- **semantic unionability** — cosine similarity of the attributes' value
  embeddings (natural-language domains that overlap conceptually);
- **name unionability** — token similarity of the attribute names;

combined per attribute pair by taking the strongest signal (an ensemble
over evidence types, as in [106]'s goodness functions).  *Table
unionability* is the average over the best 1:1 attribute alignment, and
``top_k`` returns the most unionable lake tables for a query table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound
from repro.core.registry import Function, Method, SystemInfo, register_system
from repro.ml.embeddings import HashedEmbedder
from repro.ml.text import tokenize


@dataclass
class _AttributeProfile:
    """One attribute's scoring constants, computed once when profiled."""

    name: str
    tokens: FrozenSet[str]
    values: FrozenSet[str]  # the column's shared ``distinct()`` set
    embedding: np.ndarray
    norm: float  # ``np.linalg.norm(embedding)``, as ``cosine`` takes it
    numeric: bool


def _jaccard(left: AbstractSet, right: AbstractSet) -> float:
    """:func:`repro.ml.text.jaccard` of two sets, from one intersection.

    The union's size is ``|A| + |B| - |A∩B|``, so neither set is copied
    and no union set is built.
    """
    shared = len(left & right)
    union = len(left) + len(right) - shared
    return shared / union if union else 0.0


@register_system(SystemInfo(
    name="Table union search (Nargesian et al.)",
    functions=(Function.RELATED_DATASET_DISCOVERY,),
    methods=(Method.SEMANTIC,),
    paper_refs=("[106]",),
    summary="Attribute unionability via set, semantic and name signals; table "
            "unionability over the best attribute alignment; top-k union search.",
    relatedness_criteria=("Instance value overlap", "Semantics", "Attribute name"),
    similarity_metrics=("Jaccard similarity", "Cosine similarity"),
    technique="Ensemble of unionability goodness signals",
))
class TableUnionSearch:
    """Top-k unionable-table search over a set of lake tables.

    :meth:`add_table` stores, for each attribute, everything a pair score
    reads that depends on one side only: the column's distinct-value set
    (the shared frozenset ``Column.distinct()`` returns), its name tokens
    as a frozenset, and the embedding of its name plus its first
    ``sample_values`` sorted values, with that embedding's norm.

    A query that is the very :class:`Table` object passed to
    :meth:`add_table` is scored from the stored profiles, so it is not
    profiled (its values embedded) again.  That is sound because a table
    is immutable once built, and a re-ingest yields a new object.  Any
    other query is profiled on each ``table_unionability`` or
    ``alignment`` call.
    """

    def __init__(self, embedder: Optional[HashedEmbedder] = None,
                 sample_values: int = 40):
        self.embedder = embedder or HashedEmbedder()
        self.sample_values = sample_values
        self._tables: Dict[str, List[_AttributeProfile]] = {}
        self._sources: Dict[str, Table] = {}  # the objects profiled

    # -- profiling ------------------------------------------------------------------

    def _profile(self, table: Table) -> List[_AttributeProfile]:
        profiles = []
        for column in table.columns:
            values = column.distinct()
            sample = sorted(values)[: self.sample_values]
            embedding = self.embedder.embed_set([column.name] + list(sample))
            profiles.append(_AttributeProfile(
                name=column.name,
                tokens=frozenset(tokenize(column.name)),
                values=values,
                embedding=embedding,
                norm=float(np.linalg.norm(embedding)),
                numeric=column.dtype.is_numeric,
            ))
        return profiles

    def add_table(self, table: Table) -> None:
        self._tables[table.name] = self._profile(table)
        self._sources[table.name] = table

    def remove_table(self, name: str) -> None:
        """Drop table *name*; a no-op for a name that is not indexed."""
        self._tables.pop(name, None)
        self._sources.pop(name, None)

    def _query_profiles(self, query: Table) -> List[_AttributeProfile]:
        """The stored profiles of an indexed query, else fresh ones."""
        if self._sources.get(query.name) is query:
            return self._tables[query.name]
        return self._profile(query)

    def tables(self) -> List[str]:
        return sorted(self._tables)

    # -- attribute unionability ---------------------------------------------------------

    def attribute_unionability(self, left: _AttributeProfile,
                               right: _AttributeProfile) -> float:
        """The strongest of the three unionability signals, in [0, 1].

        Scored from the two attributes' stored profiles: one intersection
        for each of the value and name-token sets, and one dot product of
        the embeddings divided by the product of their stored norms.  The
        result equals ``repro.ml.text.jaccard`` and
        ``repro.ml.embeddings.cosine`` over the same fields bit for bit:
        the float operations and their order are theirs, and
        ``ndarray.dot`` is the routine ``np.dot`` dispatches to.
        """
        if left.numeric != right.numeric:
            return 0.0
        set_signal = _jaccard(left.values, right.values)
        if left.norm == 0.0 or right.norm == 0.0:
            semantic_signal = 0.0
        else:
            semantic_signal = max(0.0, float(
                left.embedding.dot(right.embedding) / (left.norm * right.norm)))
        name_signal = _jaccard(left.tokens, right.tokens)
        return max(set_signal, 0.9 * semantic_signal, 0.8 * name_signal)

    # -- table unionability -----------------------------------------------------------------

    def _scored_pairs(self, query: Table,
                      candidate_name: str) -> List[Tuple[float, str, str]]:
        """``(score, query_column, candidate_column)`` for every attribute
        pair, query columns outermost."""
        candidate = self._tables.get(candidate_name)
        if candidate is None:
            raise DatasetNotFound(f"table {candidate_name!r} is not indexed")
        score = self.attribute_unionability
        return [(score(qp, cp), qp.name, cp.name)
                for qp in self._query_profiles(query) for cp in candidate]

    def table_unionability(self, query: Table, candidate_name: str) -> float:
        """Mean attribute unionability over the best greedy 1:1 alignment."""
        scored = self._scored_pairs(query, candidate_name)
        scored.sort(key=lambda item: -item[0])
        used_q: Set[str] = set()
        used_c: Set[str] = set()
        total = 0.0
        for score, q_name, c_name in scored:
            if q_name in used_q or c_name in used_c:
                continue
            used_q.add(q_name)
            used_c.add(c_name)
            total += score
        return total / max(len(query.columns), 1)

    def alignment(self, query: Table, candidate_name: str) -> List[Tuple[str, str, float]]:
        """The aligned (query_column, candidate_column, score) pairs."""
        scored = self._scored_pairs(query, candidate_name)
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        used_q: Set[str] = set()
        used_c: Set[str] = set()
        pairs = []
        for score, q_name, c_name in scored:
            if q_name in used_q or c_name in used_c or score <= 0.0:
                continue
            used_q.add(q_name)
            used_c.add(c_name)
            pairs.append((q_name, c_name, round(score, 4)))
        return pairs

    # -- search --------------------------------------------------------------------------------

    def top_k(self, query: Table, k: int = 5,
              min_score: float = 0.3) -> List[Tuple[str, float]]:
        """The k most unionable lake tables for *query*."""
        scored = []
        for name in self.tables():
            if name == query.name:
                continue
            score = self.table_unionability(query, name)
            if score >= min_score:
                scored.append((name, round(score, 4)))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]
