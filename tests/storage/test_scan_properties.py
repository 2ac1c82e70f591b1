"""The column-at-a-time scan equals a row-at-a-time reference scan.

``RelationalStore.scan`` narrows row positions over column values and
builds each result column by index.  The reference below does what the
row-at-a-time scan did: it turns every candidate row into a dict, tests
each predicate on the dict, and rebuilds the result with
``Table.from_records``.  Its one difference from that scan is the fix it
encodes: an integer too large for a float is non-numeric, like a value
``float()`` rejects, instead of raising ``OverflowError``.

Both must agree on column names, values (compared by ``repr``, so NaN
equals NaN and ``1`` differs from ``1.0`` and ``True``), dtypes and
``rows_scanned``, or raise the same exception type.  A second property
checks a join with a residual predicate through ``SqlEngine.execute``.
"""

from typing import Any, List, Mapping, Optional, Sequence, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.core.dataset import Column, Table
from repro.core.errors import QueryError
from repro.exploration.sql import SqlEngine
from repro.storage.relational import OPERATORS, Predicate, RelationalStore

# -- the row-at-a-time reference ------------------------------------------------


class _NotNumeric(Exception):
    pass


def _num(value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise _NotNumeric from None


_REFERENCE_OPERATORS = {
    "=": lambda a, b: str(a) == str(b),
    "!=": lambda a, b: str(a) != str(b),
    "<": lambda a, b: _num(a) < _num(b),
    "<=": lambda a, b: _num(a) <= _num(b),
    ">": lambda a, b: _num(a) > _num(b),
    ">=": lambda a, b: _num(a) >= _num(b),
    "contains": lambda a, b: str(b).lower() in str(a).lower(),
}


def reference_matches(column: str, op: str, value: Any, row: Mapping[str, Any]) -> bool:
    cell = row.get(column)
    if cell is None:
        return False
    try:
        return _REFERENCE_OPERATORS[op](cell, value)
    except _NotNumeric:
        return False


def reference_scan(
    table: Table,
    predicates: Sequence[Tuple[str, str, Any]],
    indexed_column: Optional[str],
    columns: Optional[Sequence[str]],
) -> Tuple[Table, int]:
    """The scan's answer and its ``rows_scanned`` growth, row by row."""
    indexed = next((p for p in predicates
                    if p[1] == "=" and p[0] == indexed_column), None)
    if indexed is not None:
        # the hash bucket: non-None cells whose str() is the value's
        rows = [table.row(i) for i, cell in enumerate(table[indexed[0]].values)
                if cell is not None and str(cell) == str(indexed[2])]
    else:
        rows = list(table.rows())
    scanned = len(rows)
    for predicate in predicates:
        if predicate is not indexed:
            rows = [r for r in rows if reference_matches(*predicate, r)]
    result = Table.from_records(table.name, rows) if rows else Table(
        table.name, [Column(c, []) for c in table.column_names])
    if columns is not None:
        result = result.project(list(columns))
    return result, scanned


def _outcome(run) -> Tuple[str, Any]:
    try:
        return "ok", run()
    except Exception as error:  # compared by type below
        return "raised", type(error)


def assert_same_table(actual: Table, expected: Table) -> None:
    assert actual.column_names == expected.column_names
    assert [repr(c.values) for c in actual.columns] == \
        [repr(c.values) for c in expected.columns]
    assert [c.dtype for c in actual.columns] == [c.dtype for c in expected.columns]


# -- strategies -------------------------------------------------------------------

HUGE = 10**400  # float() raises OverflowError on it

cells = st.one_of(
    st.none(),
    st.integers(-20, 20),
    st.sampled_from([HUGE, -HUGE]),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.booleans(),
    st.sampled_from([" 12 ", "3.5", " -7", "1e3", "abc", "Ab c", "", " NA ", "null",
                     "nan", "N/A", "-", "?", "true", "no", "2024-01-02"]),
    st.text(alphabet="abAB 019.-", max_size=4),
)
operands = st.one_of(
    st.integers(-20, 20),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from([HUGE, "abc", "12", " 3 ", "a", "", None, True, "NA"]),
    st.text(alphabet="abAB 019.-", max_size=3),
)
NAMES = ["c0", "c1", "c2"]


@st.composite
def scan_cases(draw):
    width = draw(st.integers(1, 3))
    height = draw(st.integers(0, 12))
    data = {name: draw(st.lists(cells, min_size=height, max_size=height))
            for name in NAMES[:width]}
    table = Table.from_columns("t", data)

    def operand(column):
        return draw(st.one_of(operands, st.sampled_from(data.get(column) or [None])))

    predicates = []
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from(NAMES[:width] + ["missing"]))
        predicates.append((column, draw(st.sampled_from(OPERATORS)), operand(column)))
    indexed_column = draw(st.sampled_from([None, "c0"]))
    if indexed_column is not None and draw(st.booleans()):
        predicates.insert(draw(st.integers(0, len(predicates))), ("c0", "=", operand("c0")))
    columns = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(NAMES[:width]), min_size=1, max_size=width, unique=True),
        st.lists(st.sampled_from(NAMES[:width] + ["missing"]), min_size=1, max_size=3),
    ))
    return table, predicates, indexed_column, columns


def _store(table: Table, indexed_column: Optional[str]) -> RelationalStore:
    store = RelationalStore()
    store.create_table(table)
    if indexed_column is not None:
        store.create_index(table.name, indexed_column)
    return store


# -- properties -------------------------------------------------------------------


class TestScanEqualsRowAtATime:
    @given(scan_cases())
    @settings(max_examples=300, deadline=None)
    @example((Table.from_columns("t", {"c0": ["a", 5, None, HUGE, "7"]}),
              [("missing", "=", "a"), ("c0", "<", "abc")], None, None))
    @example((Table.from_columns("t", {"c0": ["x", "y", "x"], "c1": [1, "q", 3.5]}),
              [("c0", "=", "x"), ("c1", ">", 0)], "c0", ["c1"]))
    @example((Table.from_columns("t", {"c0": ["xaby", "AB", None, 7]}),
              [("c0", "contains", "Ab")], None, None))
    def test_scan(self, case):
        table, predicates, indexed_column, columns = case
        store = _store(table, indexed_column)
        expected = _outcome(lambda: reference_scan(table, predicates, indexed_column, columns))
        actual = _outcome(lambda: store.scan(
            "t", [Predicate(*p) for p in predicates], columns=columns))
        assert actual[0] == expected[0]
        if actual[0] == "raised":
            assert actual[1] is expected[1]
            return
        result, scanned = expected[1]
        assert_same_table(actual[1], result)
        assert store.rows_scanned == scanned


# SQL literals the parser reads back as the same value
sql_literals = st.one_of(
    st.integers(0, 3).map(lambda n: (str(n), n)),
    st.sampled_from([("2.5", 2.5), ("0.0", 0.0), ("1" + "0" * 400, HUGE)]),
    st.sampled_from(["a", "x", "X", "1", "", "it's"]).map(
        lambda s: ("'" + s.replace("'", "''") + "'", s)),
)
join_keys = st.sampled_from([None, 0, 1, 1.0, "1", "x"])
join_cells = st.one_of(st.none(), st.integers(0, 3),
                       st.sampled_from(["1", "x", " 2", "NA", HUGE, 2.5, float("nan")]))


def _resolve(table: Table, column: str) -> str:
    if column in table:
        return column
    if column.split(".")[-1] in table:
        return column.split(".")[-1]
    raise QueryError(column)


def reference_join_query(left: Table, right: Table, residual: Sequence[Tuple[str, str, Any]],
                         select: Optional[List[str]]) -> Table:
    """``SELECT ... FROM l JOIN r ON l.k = r.k WHERE ...`` row by row."""
    # the base scan rebuilt every row of l through from_records
    result = Table.from_records("l", list(left.rows())) if len(left) else left
    result = result.join(right, "k", "k")
    for column, op, value in residual:
        resolved = _resolve(result, column)
        keep = [i for i, row in enumerate(result.rows())
                if reference_matches(resolved, op, value, row)]
        # a filtered column keeps the type of the column it was cut from
        result = Table(result.name, [Column(c.name, [c.values[i] for i in keep], c.dtype)
                                     for c in result.columns])
    if select is not None:
        result = result.project([_resolve(result, c) for c in select])
    return result


@st.composite
def join_cases(draw):
    def rows(n, strategy=join_cells):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    n_left, n_right = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    left = Table.from_columns("l", {"k": rows(n_left, join_keys), "a": rows(n_left),
                                    "b": rows(n_left)})
    right = Table.from_columns("r", {"k": rows(n_right, join_keys), "a": rows(n_right)})
    joined = ["k", "r.k", "a", "r.a", "b", "l.b"]
    residual, clauses = [], []
    for _ in range(draw(st.integers(1, 2))):
        column = draw(st.sampled_from(joined * 3 + ["missing"]))
        op = draw(st.sampled_from(OPERATORS))
        text, value = draw(sql_literals)
        residual.append((column, op, value))
        clauses.append(f"{column} {op} {text}")
    select = draw(st.one_of(st.none(), st.lists(st.sampled_from(joined), min_size=1,
                                                max_size=3, unique=True)))
    sql = (f"SELECT {'*' if select is None else ', '.join(select)} FROM l "
           f"JOIN r ON l.k = r.k WHERE {' AND '.join(clauses)}")
    return left, right, residual, select, sql


class TestJoinResidualEqualsRowAtATime:
    @given(join_cases())
    @settings(max_examples=200, deadline=None)
    @example((Table.from_columns("l", {"k": [1, 1], "a": [0, "x"], "b": [2.5, None]}),
              Table.from_columns("r", {"k": ["1"], "a": [None]}),
              [("a", "<=", 0)], ["a", "b"],
              "SELECT a, b FROM l JOIN r ON l.k = r.k WHERE a <= 0"))
    def test_join_with_residual_predicate(self, case):
        left, right, residual, select, sql = case
        store = RelationalStore()
        store.create_table(left)
        store.create_table(right)
        expected = _outcome(lambda: reference_join_query(left, right, residual, select))
        actual = _outcome(lambda: SqlEngine(store).execute(sql))
        assert actual[0] == expected[0], sql
        if actual[0] == "raised":
            assert actual[1] is expected[1], sql
            return
        assert_same_table(actual[1], expected[1])
