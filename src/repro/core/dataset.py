"""The dataset model shared by every tier.

The survey's systems overwhelmingly operate on *tabular or tabularizable*
data (Sec. 6.2: "systems in this group mainly handle tabular data, or
hierarchical data that can be transformed into tabular data").  The central
abstraction is therefore :class:`Table`, a lightweight column-oriented
relation that tolerates ragged, untyped, raw data — it is *not* required to
be in first normal form, exactly as the survey notes.

:class:`Dataset` wraps a payload (table, document collection, raw text,
graph) together with descriptive metadata, so the same ingestion and
maintenance machinery can be applied uniformly to heterogeneous content.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import SchemaError
from repro.core.types import DataType, infer_column_type, is_null


class Column:
    """A named column of raw values, typed on first read of :attr:`dtype`.

    A ``dtype`` passed to the constructor is kept as given.  Otherwise the
    type is :func:`~repro.core.types.infer_column_type` of ``values``,
    computed the first time ``dtype`` is read and then cached, so a column
    whose type nobody reads is never typed.  The cache is sound because
    nothing mutates a column's value list after construction; two threads
    racing on the first read compute the same type.
    """

    __slots__ = ("name", "values", "_dtype")

    def __init__(self, name: str, values: List[Any], dtype: Optional[DataType] = None):
        self.name = name
        self.values = values
        self._dtype = dtype

    @property
    def dtype(self) -> DataType:
        if self._dtype is None:
            self._dtype = infer_column_type(self.values)
        return self._dtype

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.values, self.dtype) == (other.name, other.values, other.dtype)  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]  # mutable container semantics

    def __repr__(self) -> str:
        return f"Column(name={self.name!r}, values={self.values!r}, dtype={self.dtype!r})"

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def non_null(self) -> List[Any]:
        """Values with nulls removed."""
        return [v for v in self.values if not is_null(v)]

    def distinct(self) -> set:
        """Distinct non-null values, stringified for set semantics.

        Discovery systems (JOSIE, Aurum) treat columns as *sets of values*;
        stringification makes 1 and "1" compare equal, which matches how raw
        CSV data meets typed data in a lake.
        """
        return {str(v) for v in self.values if not is_null(v)}

    @property
    def null_count(self) -> int:
        return sum(1 for v in self.values if is_null(v))

    @property
    def null_fraction(self) -> float:
        return self.null_count / len(self.values) if self.values else 0.0


class Table:
    """A column-oriented relation with schema-on-read semantics.

    Construction never fails on messy data: ragged rows are padded with
    ``None``, and a column's type is inferred on the first read of its
    :attr:`Column.dtype`.  All transformation methods return new tables; a
    :class:`Table` is treated as immutable once built.
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        self.name = name
        seen = set()
        for column in columns:
            if column.name in seen:
                raise SchemaError(f"duplicate column {column.name!r} in table {name!r}")
            seen.add(column.name)
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns in table {name!r}: lengths {sorted(lengths)}")
        self.columns: List[Column] = list(columns)
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_columns(cls, name: str, data: Mapping[str, Sequence[Any]]) -> "Table":
        """Build a table from ``{column_name: values}``."""
        return cls(name, [Column(k, list(v)) for k, v in data.items()])

    @classmethod
    def from_rows(
        cls,
        name: str,
        header: Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> "Table":
        """Build a table from a header and row iterable, padding ragged rows."""
        columns: List[List[Any]] = [[] for _ in header]
        for row in rows:
            for index in range(len(header)):
                columns[index].append(row[index] if index < len(row) else None)
        return cls(name, [Column(h, col) for h, col in zip(header, columns)])

    @classmethod
    def from_records(cls, name: str, records: Sequence[Mapping[str, Any]]) -> "Table":
        """Build a table from dict-records, unioning all keys (raw JSON rows)."""
        header: List[str] = []
        seen = set()
        for record in records:
            for key in record:
                if key not in seen:
                    seen.add(key)
                    header.append(key)
        rows = [[record.get(key) for key in header] for record in records]
        return cls.from_rows(name, header, rows)

    @classmethod
    def from_csv(cls, name: str, text: str, delimiter: str = ",") -> "Table":
        """Parse CSV text (first line is the header)."""
        reader = csv.reader(io.StringIO(text), delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            return cls(name, [])
        return cls.from_rows(name, header, reader)

    # -- basic accessors ---------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @property
    def width(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._by_name

    def __getitem__(self, column_name: str) -> Column:
        try:
            return self._by_name[column_name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {column_name!r}; "
                f"available: {self.column_names}"
            ) from None

    def column(self, column_name: str) -> Column:
        """Alias of ``table[column_name]``."""
        return self[column_name]

    def row(self, index: int) -> Dict[str, Any]:
        """Row *index* as a dict."""
        return {c.name: c.values[index] for c in self.columns}

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Iterate rows as dicts."""
        for index in range(len(self)):
            yield self.row(index)

    def row_tuples(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate rows as tuples in column order."""
        for index in range(len(self)):
            yield tuple(c.values[index] for c in self.columns)

    def schema(self) -> Dict[str, DataType]:
        """Column name to inferred type."""
        return {c.name: c.dtype for c in self.columns}

    # -- relational operators ----------------------------------------------

    def project(self, column_names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Project onto *column_names* (order preserved)."""
        return Table(name or self.name, [self[c] for c in column_names])

    def rename(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Table":
        """Rename columns according to *mapping* (missing keys keep names)."""
        columns = [
            Column(mapping.get(c.name, c.name), list(c.values), c.dtype)
            for c in self.columns
        ]
        return Table(name or self.name, columns)

    def take(self, positions: Sequence[int], name: Optional[str] = None) -> "Table":
        """Rows at *positions*, in that order; columns keep their dtypes."""
        columns = [Column(c.name, [c.values[i] for i in positions], c.dtype) for c in self.columns]
        return Table(name or self.name, columns)

    def filter(self, predicate: Callable[[Dict[str, Any]], bool], name: Optional[str] = None) -> "Table":
        """Keep rows where *predicate(row_dict)* is true."""
        return self.take([i for i in range(len(self)) if predicate(self.row(i))], name)

    def head(self, n: int, name: Optional[str] = None) -> "Table":
        """First *n* rows."""
        columns = [Column(c.name, c.values[:n], c.dtype) for c in self.columns]
        return Table(name or self.name, columns)

    def join(
        self,
        other: "Table",
        left_on: str,
        right_on: str,
        name: Optional[str] = None,
    ) -> "Table":
        """Equi-join on stringified key values (hash join).

        Columns of *other* are prefixed with its table name on collision,
        mirroring how lake query engines disambiguate merged schemas.
        """
        build: Dict[str, List[int]] = {}
        for index, value in enumerate(other[right_on].values):
            if is_null(value):
                continue
            build.setdefault(str(value), []).append(index)
        out_names = list(self.column_names)
        other_names = []
        for column_name in other.column_names:
            out_name = column_name
            if out_name in self._by_name:
                out_name = f"{other.name}.{column_name}"
            other_names.append(out_name)
        rows = []
        for left_index, value in enumerate(self[left_on].values):
            if is_null(value):
                continue
            for right_index in build.get(str(value), ()):
                left_row = [c.values[left_index] for c in self.columns]
                right_row = [c.values[right_index] for c in other.columns]
                rows.append(left_row + right_row)
        return Table.from_rows(name or f"{self.name}_join_{other.name}", out_names + other_names, rows)

    def union_rows(self, other: "Table", name: Optional[str] = None) -> "Table":
        """Outer union: align columns by name, pad missing cells with None."""
        header: List[str] = list(self.column_names)
        for column_name in other.column_names:
            if column_name not in header:
                header.append(column_name)
        rows = []
        for source in (self, other):
            for row in source.rows():
                rows.append([row.get(column_name) for column_name in header])
        return Table.from_rows(name or f"{self.name}_union_{other.name}", header, rows)

    def distinct_rows(self, name: Optional[str] = None) -> "Table":
        """Remove duplicate rows, keeping first occurrence order."""
        seen = set()
        keep = []
        for index, row in enumerate(self.row_tuples()):
            key = tuple(str(v) for v in row)
            if key not in seen:
                seen.add(key)
                keep.append(index)
        return self.take(keep, name)

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        """Serialize to CSV text with header."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.column_names)
        for row in self.row_tuples():
            writer.writerow(["" if v is None else v for v in row])
        return buffer.getvalue()

    def to_records(self) -> List[Dict[str, Any]]:
        """Rows as a list of dicts (JSON-friendly)."""
        return list(self.rows())

    def to_json(self) -> str:
        return json.dumps(self.to_records(), default=str)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.width} cols x {len(self)} rows)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.column_names == other.column_names
            and [c.values for c in self.columns] == [c.values for c in other.columns]
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container semantics


@dataclass
class Dataset:
    """A raw ingested dataset plus descriptive metadata.

    ``payload`` holds the content in its original shape: a :class:`Table`,
    a list of JSON documents, raw text, or arbitrary bytes — a data lake
    "stores raw data in its original format" (Sec. 1).  ``properties`` is
    the extensible key-value descriptive metadata bag that the ingestion
    tier populates and the maintenance tier enriches.
    """

    name: str
    payload: Any
    format: str = "table"
    source: str = ""
    properties: Dict[str, Any] = field(default_factory=dict)
    tags: List[str] = field(default_factory=list)

    @property
    def is_tabular(self) -> bool:
        return isinstance(self.payload, Table)

    def as_table(self) -> Table:
        """Return the payload as a table, tabularizing document lists.

        Raises :class:`SchemaError` when the payload has no tabular
        interpretation (e.g. free text), mirroring the survey's scoping of
        discovery systems to "tabular data, or hierarchical data that can be
        transformed into tabular data".
        """
        if isinstance(self.payload, Table):
            return self.payload
        if isinstance(self.payload, list) and all(isinstance(r, dict) for r in self.payload):
            return Table.from_records(self.name, self.payload)
        raise SchemaError(f"dataset {self.name!r} ({self.format}) is not tabularizable")
