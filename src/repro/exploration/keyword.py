"""Keyword search over schemata and data (Sec. 7.2).

Constance users "can also make a keyword search over the schemata or the
data"; CoreDB "applies Elasticsearch for the underlying full-text search".
:class:`KeywordSearch` builds an inverted index over table names, column
names and cell values, ranks hits TF-IDF-ish (rarer terms weigh more,
schema hits weigh above value hits) and reports which element matched.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.dataset import Table
from repro.ml.text import tokenize


@dataclass(frozen=True)
class KeywordHit:
    """One search hit with its provenance inside the table."""

    table: str
    score: float
    matched_schema: Tuple[str, ...]  # column names (or table name) that matched
    matched_values: Tuple[str, ...]  # sample cell values that matched


class KeywordSearch:
    """Inverted-index keyword search over schema elements and values.

    Each term maps to one posting per table that holds it: a pair of
    sorted tuples, the schema elements (the table name, column names) and
    the distinct cell values whose tokens include the term.  A table's
    postings are built in one pass over its columns when it is added and
    never change after; a table → terms map lets :meth:`remove_table`
    touch only that table's own terms.  Adding a table under a name
    already indexed replaces the old version, so re-adding is idempotent.
    """

    SCHEMA_WEIGHT = 2.0
    VALUE_WEIGHT = 1.0

    def __init__(self) -> None:
        # term -> table -> (schema matches, value matches), each sorted
        self._index: Dict[str, Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]] = (
            defaultdict(dict))
        # table -> the terms it posts under
        self._terms: Dict[str, Tuple[str, ...]] = {}

    def add_table(self, table: Table) -> None:
        """Index *table*, replacing any table indexed under its name."""
        name = table.name
        if name in self._terms:
            self.remove_table(name)
        schema: Dict[str, Set[str]] = defaultdict(set)
        values: Dict[str, Set[str]] = defaultdict(set)
        for token in tokenize(name):
            schema[token].add(name)
        for column in table.columns:
            for token in tokenize(column.name):
                schema[token].add(column.name)
            for value in column.distinct():
                for token in tokenize(value):
                    values[token].add(value)
        terms = schema.keys() | values.keys()
        for term in terms:
            self._index[term][name] = (tuple(sorted(schema.get(term, ()))),
                                       tuple(sorted(values.get(term, ()))))
        self._terms[name] = tuple(terms)

    def remove_table(self, name: str) -> bool:
        """Drop every posting of table *name*; returns True when it was indexed.

        Makes the index *maintainable*: a re-ingested table is removed and
        re-added instead of forcing a rebuild of the whole inverted index.
        """
        terms = self._terms.pop(name, None)
        if terms is None:
            return False
        for term in terms:
            posting = self._index[term]
            del posting[name]
            if not posting:
                del self._index[term]
        return True

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._terms

    def search(self, keywords: str, k: int = 10) -> List[KeywordHit]:
        """Top-k tables for the query, schema matches boosted.

        IDF weights come from the global posting lists; scores are
        rounded only after ranking.  A hit reports every matched schema
        element and, per term, the first three matched values in sorted
        order.
        """
        terms = tokenize(keywords)
        if not terms:
            return []
        scores: Dict[str, float] = defaultdict(float)
        schema_matches: Dict[str, Set[str]] = defaultdict(set)
        value_matches: Dict[str, Set[str]] = defaultdict(set)
        total_tables = max(len(self._terms), 1)
        for term in terms:
            posting = self._index.get(term)
            if not posting:
                continue
            idf = math.log(1 + total_tables / len(posting))
            for table_name, (schema, values) in posting.items():
                if schema:
                    scores[table_name] += self.SCHEMA_WEIGHT * idf
                    schema_matches[table_name].update(schema)
                if values:
                    scores[table_name] += self.VALUE_WEIGHT * idf
                    value_matches[table_name].update(values[:3])
        ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        return [
            KeywordHit(
                table=name,
                score=round(score, 4),
                matched_schema=tuple(sorted(schema_matches.get(name, ()))),
                matched_values=tuple(sorted(value_matches.get(name, ()))),
            )
            for name, score in ranked[:k]
        ]
