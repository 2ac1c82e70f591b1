"""A SQL-subset engine over the relational backend (Sec. 7.2).

Constance lets users "write a query (SQL or JSONiq) for a single dataset";
CoreDB issues "SQL queries for relational database systems".  This engine
supports the slice those systems exercise::

    SELECT col1, col2 | * | COUNT(*)
    FROM table
    [JOIN other ON table.a = other.b]...
    [WHERE col OP value [AND ...]]
    [ORDER BY col [DESC]]
    [LIMIT n]

with operators ``= != < <= > >= CONTAINS``, matched as
:class:`~repro.storage.relational.Predicate` describes.  ORDER BY may name
any column of the joined, filtered rows, since rows are ordered before the
select list is projected; with DISTINCT it must name a selected column, as
in SQL.  The parser is a small hand-rolled tokenizer; execution delegates
scans (with predicate pushdown) and hash joins to
:class:`~repro.storage.relational.RelationalStore`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.dataset import Table
from repro.core.errors import QueryError
from repro.core.types import as_float
from repro.storage.relational import OPERATORS, Predicate, RelationalStore

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<string>'(?:[^']|'')*')|(?P<op><=|>=|!=|=|<|>)|"
    r"(?P<punct>[(),*])|(?P<word>[A-Za-z_][\w.]*|\d+\.\d+|\d+))"
)

_KEYWORDS = {"select", "from", "where", "and", "order", "by", "limit", "desc",
             "asc", "join", "on", "count", "contains", "distinct"}


def _tokenize(sql: str) -> List[str]:
    tokens = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            if sql[position:].strip():
                raise QueryError(f"cannot tokenize SQL near {sql[position:position+20]!r}")
            break
        position = match.end()
        if match.group("string") is not None:
            tokens.append(match.group("string"))
        else:
            tokens.append(match.group(0).strip())
    return [t for t in tokens if t]


def tokenize_sql(sql: str) -> List[str]:
    """The exact lexer :class:`SqlEngine` parses with, for callers that
    need to inspect or rewrite a query at the token level (the serving
    tier qualifies table references with it)."""
    return _tokenize(sql)


@dataclass
class _Query:
    columns: List[str]
    table: str
    joins: List[Tuple[str, str, str]] = field(default_factory=list)  # (table, left, right)
    predicates: List[Tuple[str, str, Any]] = field(default_factory=list)
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None
    count: bool = False
    distinct: bool = False


class _Parser:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.position = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self.position += 1
        return token

    def expect(self, keyword: str) -> None:
        token = self.next()
        if token.lower() != keyword.lower():
            raise QueryError(f"expected {keyword!r}, found {token!r}")

    def parse(self) -> _Query:
        self.expect("select")
        distinct = False
        if (self.peek() or "").lower() == "distinct":
            self.next()
            distinct = True
        columns: List[str] = []
        count = False
        if (self.peek() or "").lower() == "count":
            self.next()
            self.expect("(")
            self.expect("*")
            self.expect(")")
            count = True
        else:
            while True:
                columns.append(self.next())
                if self.peek() == ",":
                    self.next()
                    continue
                break
        self.expect("from")
        table = self.next()
        query = _Query(columns=columns, table=table, count=count, distinct=distinct)
        while (self.peek() or "").lower() == "join":
            self.next()
            join_table = self.next()
            self.expect("on")
            left = self.next()
            self.expect("=")
            right = self.next()
            query.joins.append((join_table, left, right))
        if (self.peek() or "").lower() == "where":
            self.next()
            while True:
                column = self.next()
                op = self.next().lower()
                if op not in OPERATORS:
                    raise QueryError(f"unsupported operator {op!r}")
                value = self._literal(self.next())
                query.predicates.append((column, op, value))
                if (self.peek() or "").lower() == "and":
                    self.next()
                    continue
                break
        if (self.peek() or "").lower() == "order":
            self.next()
            self.expect("by")
            query.order_by = self.next()
            if (self.peek() or "").lower() in ("desc", "asc"):
                query.descending = self.next().lower() == "desc"
        if (self.peek() or "").lower() == "limit":
            self.next()
            token = self.next()
            try:
                query.limit = int(token)
            except ValueError:
                raise QueryError(f"LIMIT expects an integer, found {token!r}") from None
        if self.peek() is not None:
            raise QueryError(f"unexpected trailing token {self.peek()!r}")
        return query

    @staticmethod
    def _literal(token: str) -> Any:
        if token.startswith("'") and token.endswith("'"):
            return token[1:-1].replace("''", "'")
        try:
            return int(token)
        except ValueError:
            pass
        try:
            return float(token)
        except ValueError:
            return token


class SqlEngine:
    """Parse and execute the SQL subset against a relational store."""

    def __init__(self, store: RelationalStore):
        self.store = store

    def execute(self, sql: str) -> Table:
        query = _Parser(_tokenize(sql)).parse()
        # base scan: push down predicates naming unqualified/base columns
        base_table = self.store.table(query.table)
        pushable, residual = [], []
        for column, op, value in query.predicates:
            bare = column.split(".")[-1]
            if (not query.joins) and (bare in base_table or column in base_table):
                pushable.append(Predicate(bare if bare in base_table else column, op, value))
            else:
                residual.append((column, op, value))
        result = self.store.scan(query.table, predicates=pushable)
        for join_table, left, right in query.joins:
            left_column = left.split(".")[-1]
            right_column = right.split(".")[-1]
            other = self.store.table(join_table)
            if left_column in result and right_column in other:
                result = result.join(other, left_column, right_column)
            elif right_column in result and left_column in other:
                result = result.join(other, right_column, left_column)
            else:
                raise QueryError(f"cannot resolve join condition {left} = {right}")
        if residual:
            rows: Sequence[int] = range(len(result))
            for column, op, value in residual:
                rows = Predicate(self._resolve(result, column), op, value).select(result, rows)
            result = result.take(rows)
        if query.count:
            return Table.from_columns("count", {"count": [len(result)]})
        if query.order_by is not None and not query.distinct:
            result = self._order(result, query.order_by, query.descending)
        if query.columns != ["*"]:
            resolved = [self._resolve(result, c) for c in query.columns]
            result = result.project(resolved)
        if query.distinct:
            result = result.distinct_rows()
            if query.order_by is not None:
                result = self._order(result, query.order_by, query.descending)
        if query.limit is not None:
            result = result.head(query.limit)
        return result

    @staticmethod
    def _resolve(table: Table, column: str) -> str:
        if column in table:
            return column
        bare = column.split(".")[-1]
        if bare in table:
            return bare
        raise QueryError(f"unknown column {column!r}; available: {table.column_names}")

    @classmethod
    def _order(cls, table: Table, column: str, descending: bool) -> Table:
        """Ascending puts numbers first, by value, then other cells by their
        text, then None; an integer too large for a float sorts as text."""
        values = table[cls._resolve(table, column)].values

        def sort_key(index: int):
            value = values[index]
            if value is None:
                return (2, "")
            number = as_float(value)
            return (1, str(value)) if number is None else (0, number)

        return table.take(sorted(range(len(table)), key=sort_key, reverse=descending))
