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
    """Inverted-index keyword search over schema elements and values."""

    SCHEMA_WEIGHT = 2.0
    VALUE_WEIGHT = 1.0

    def __init__(self) -> None:
        # term -> table -> ("schema"|"value") -> matched elements
        self._index: Dict[str, Dict[str, Dict[str, Set[str]]]] = defaultdict(
            lambda: defaultdict(lambda: {"schema": set(), "value": set()})
        )
        self._tables: Set[str] = set()

    def add_table(self, table: Table) -> None:
        self._tables.add(table.name)
        for token in tokenize(table.name):
            self._index[token][table.name]["schema"].add(table.name)
        for column in table.columns:
            for token in tokenize(column.name):
                self._index[token][table.name]["schema"].add(column.name)
            for value in column.distinct():
                for token in tokenize(str(value)):
                    self._index[token][table.name]["value"].add(str(value))

    def remove_table(self, name: str) -> bool:
        """Drop every posting of table *name*; returns True when it was indexed.

        Makes the index *maintainable*: a re-ingested table is removed and
        re-added instead of forcing a rebuild of the whole inverted index.
        """
        if name not in self._tables:
            return False
        self._tables.discard(name)
        for term in list(self._index):
            posting = self._index[term]
            posting.pop(name, None)
            if not posting:
                del self._index[term]
        return True

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._tables

    def search(self, keywords: str, k: int = 10) -> List[KeywordHit]:
        """Top-k tables for the query, schema matches boosted.

        IDF weights come from the global posting lists; scores are
        rounded only after ranking.
        """
        terms = tokenize(keywords)
        if not terms:
            return []
        scores: Dict[str, float] = defaultdict(float)
        schema_matches: Dict[str, Set[str]] = defaultdict(set)
        value_matches: Dict[str, Set[str]] = defaultdict(set)
        total_tables = max(len(self._tables), 1)
        for term in terms:
            posting = self._index.get(term)
            if not posting:
                continue
            idf = math.log(1 + total_tables / len(posting))
            for table_name, hits in posting.items():
                if hits["schema"]:
                    scores[table_name] += self.SCHEMA_WEIGHT * idf
                    schema_matches[table_name] |= hits["schema"]
                if hits["value"]:
                    scores[table_name] += self.VALUE_WEIGHT * idf
                    value_matches[table_name] |= set(sorted(hits["value"])[:3])
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
