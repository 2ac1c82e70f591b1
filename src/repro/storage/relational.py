"""An in-memory relational store — the MySQL/PostgreSQL stand-in.

Polystore lakes such as Constance and CoreDB route relational raw data to a
relational backend (Sec. 4.3).  This store offers exactly the surface those
systems require: named tables, row insertion, predicate scans with pushdown
(the federation engine pushes selections here, Sec. 6.3/7.2), equi-joins,
and hash indexes on columns.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.dataset import Column, Table
from repro.core.errors import DatasetNotFound, SchemaError
from repro.core.types import as_float

#: ordering operators: cell and operand compare as floats
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: predicate operators supported in pushed-down scans
OPERATORS = ("=", "!=", "contains", *_ORDERINGS)


class Predicate:
    """A single column comparison, e.g. ``Predicate("amount", ">", 10)``.

    A cell matches when it is not ``None`` and:

    * ``=`` / ``!=``: its ``str()`` equals / differs from the value's;
    * ``contains``: the value's ``str()`` is a case-insensitive substring
      of the cell's;
    * ``< <= > >=``: both sides convert with ``float()`` and compare so.
      A side that ``float()`` rejects, or an integer too large for a
      float, is non-numeric and never matches.

    A predicate on a column the table lacks matches no row.
    """

    def __init__(self, column: str, op: str, value: Any):
        if op not in OPERATORS:
            raise SchemaError(f"unknown operator {op!r}; known: {sorted(OPERATORS)}")
        self.column = column
        self.op = op
        self.value = value

    def select(self, table: Table, rows: Iterable[int]) -> List[int]:
        """The positions among *rows* whose cell in *table* matches, in
        order; the value side is converted once, not per cell."""
        if self.column not in table:
            return []
        values = table[self.column].values
        if self.op in _ORDERINGS:
            bound = as_float(self.value)
            if bound is None:
                return []
            compare = _ORDERINGS[self.op]
            return [i for i in rows
                    if (number := as_float(values[i])) is not None and compare(number, bound)]
        cells = [(i, str(values[i])) for i in rows if values[i] is not None]
        if self.op == "contains":
            needle = str(self.value).lower()
            return [i for i, text in cells if needle in text.lower()]
        target = str(self.value)
        if self.op == "=":
            return [i for i, text in cells if text == target]
        return [i for i, text in cells if text != target]

    def __repr__(self) -> str:
        return f"Predicate({self.column!r} {self.op} {self.value!r})"


def _index_into(index: Dict[str, List[int]], values: Iterable[Any], start: int) -> None:
    """Add *values*, the rows from position *start* on, to a hash index."""
    for position, value in enumerate(values, start):
        if value is not None:
            index.setdefault(str(value), []).append(position)


class RelationalStore:
    """Named tables with scans, predicate pushdown, joins and hash indexes."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[Tuple[str, str], Dict[str, List[int]]] = {}
        self.rows_scanned = 0  # observability counter used by federation bench

    # -- DDL/DML -------------------------------------------------------------

    def create_table(self, table: Table) -> None:
        """Register *table* (replacing an existing table of the same name)."""
        self._tables[table.name] = table
        stale = [key for key in self._indexes if key[0] == table.name]
        for key in stale:
            del self._indexes[key]

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise DatasetNotFound(f"relational table {name!r} does not exist")
        del self._tables[name]
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def insert(self, name: str, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append dict-rows to an existing table and extend its indexes.

        Missing cells are ``None``.  A row naming an unknown column rejects
        the whole insert before anything changes.
        """
        table = self.table(name)
        rows = list(rows)
        known = set(table.column_names)
        for row in rows:
            unknown = set(row) - known
            if unknown:
                raise SchemaError(f"insert into {name!r}: unknown columns {sorted(unknown)}")
        # new value lists, never appended in place: a Table is immutable
        # once built, and a column caches its type on first read
        self._tables[name] = Table(name, [
            Column(c.name, c.values + [row.get(c.name) for row in rows])
            for c in table.columns
        ])
        for (table_name, column), index in self._indexes.items():
            if table_name == name:
                _index_into(index, (row.get(column) for row in rows), len(table))

    # -- access ---------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise DatasetNotFound(f"relational table {name!r} does not exist") from None

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # -- query ------------------------------------------------------------------

    def scan(
        self,
        name: str,
        predicates: Sequence[Predicate] = (),
        columns: Optional[Sequence[str]] = None,
    ) -> Table:
        """Select-project scan with predicate pushdown, a column at a time.

        The candidate rows are the bucket of a hash index when an equality
        predicate hits an indexed column, otherwise every row.  Each other
        predicate narrows those row positions over its column's values, and
        only the projected columns are then built, by position.  Result
        columns carry no dtype: they are typed from the selected values on
        first read.  ``rows_scanned`` grows by the number of candidate rows,
        which the federation benchmark uses to show pushdown "reduces the
        amount of data to be loaded".
        """
        table = self.table(name)
        indexed = next(
            (p for p in predicates if p.op == "=" and (name, p.column) in self._indexes), None
        )
        if indexed is not None:
            rows: Sequence[int] = self._indexes[(name, indexed.column)].get(str(indexed.value), [])
        else:
            rows = range(len(table))
        self.rows_scanned += len(rows)
        for predicate in predicates:
            if predicate is not indexed:
                rows = predicate.select(table, rows)
        picked = table.columns if columns is None else [table[c] for c in columns]
        return Table(name, [Column(c.name, [c.values[i] for i in rows]) for c in picked])

    def join(self, left: str, right: str, left_on: str, right_on: str) -> Table:
        """Hash equi-join of two stored tables."""
        return self.table(left).join(self.table(right), left_on, right_on)

    # -- indexing -----------------------------------------------------------------

    def create_index(self, table_name: str, column: str) -> None:
        """Build a hash index on (table, column)."""
        index: Dict[str, List[int]] = {}
        _index_into(index, self.table(table_name)[column].values, 0)
        self._indexes[(table_name, column)] = index

    def has_index(self, table_name: str, column: str) -> bool:
        return (table_name, column) in self._indexes
