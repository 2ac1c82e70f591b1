"""Schema-on-read type system.

Data lakes ingest raw data without a declared schema, so every structural
insight must be *inferred*.  This module provides the value- and column-level
type inference primitives shared by the ingestion-tier extractors (GEMMS,
Skluma), the discovery systems (D3L, DLN) and the query engine.

Types form a small lattice::

    NULL < BOOLEAN < INTEGER < FLOAT < DATE < STRING

``unify`` walks up the lattice: a column holding integers and floats unifies
to FLOAT; anything mixed with free text decays to STRING, matching the
schema-on-read behaviour described in Sec. 1 of the survey.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Any, Iterable, Optional, Sequence


class DataType(Enum):
    """Inferred primitive type of a value or column."""

    NULL = "null"
    BOOLEAN = "boolean"
    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)

    def __lt__(self, other: "DataType") -> bool:
        return _ORDER[self] < _ORDER[other]


_ORDER = {
    DataType.NULL: 0,
    DataType.BOOLEAN: 1,
    DataType.INTEGER: 2,
    DataType.FLOAT: 3,
    DataType.DATE: 4,
    DataType.STRING: 5,
}

_NULL_TOKENS = frozenset({"", "null", "none", "na", "n/a", "nan", "-", "?"})
_TRUE_TOKENS = frozenset({"true", "t", "yes", "y"})
_FALSE_TOKENS = frozenset({"false", "f", "no", "n"})

_INT_RE = re.compile(r"[+-]?\d+")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_DATE_RES = (
    re.compile(r"\d{4}-\d{2}-\d{2}([ T]\d{2}:\d{2}(:\d{2})?)?"),
    re.compile(r"\d{2}/\d{2}/\d{4}"),
    re.compile(r"\d{4}/\d{2}/\d{2}"),
)


def is_null(value: Any) -> bool:
    """Return True when *value* denotes a missing datum.

    Strings are matched case-insensitively against common null spellings
    (``""``, ``"NA"``, ``"null"``...); floats match NaN.
    """
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str) and value.strip().lower() in _NULL_TOKENS:
        return True
    return False


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a single raw value.

    Native Python types are trusted; strings are sniffed against boolean,
    integer, float and date lexical patterns before falling back to STRING.
    """
    if is_null(value):
        return DataType.NULL
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if not isinstance(value, str):
        return DataType.STRING
    token = value.strip()
    lowered = token.lower()
    if lowered in _TRUE_TOKENS or lowered in _FALSE_TOKENS:
        return DataType.BOOLEAN
    if _INT_RE.fullmatch(token):
        return DataType.INTEGER
    if _FLOAT_RE.fullmatch(token):
        return DataType.FLOAT
    for pattern in _DATE_RES:
        if pattern.fullmatch(token):
            return DataType.DATE
    return DataType.STRING


def unify(left: DataType, right: DataType) -> DataType:
    """Least upper bound of two types in the inference lattice.

    INTEGER and FLOAT unify to FLOAT; NULL is the identity; any other
    disagreement decays to STRING.
    """
    if left is right:
        return left
    if left is DataType.NULL:
        return right
    if right is DataType.NULL:
        return left
    pair = {left, right}
    if pair == {DataType.INTEGER, DataType.FLOAT}:
        return DataType.FLOAT
    return DataType.STRING


def infer_column_type(values: Iterable[Any]) -> DataType:
    """Infer the unified type of a column of raw values."""
    result = DataType.NULL
    for value in values:
        result = unify(result, infer_type(value))
        if result is DataType.STRING:
            break
    return result


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce a raw value to the Python representation of *dtype*.

    Nulls become ``None``.  Values that cannot be coerced are returned
    unchanged (schema-on-read never destroys raw data).
    """
    if is_null(value):
        return None
    try:
        if dtype is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            return str(value).strip().lower() in _TRUE_TOKENS
        if dtype is DataType.INTEGER:
            return int(str(value).strip())
        if dtype is DataType.FLOAT:
            return float(str(value).strip())
        if dtype in (DataType.STRING, DataType.DATE):
            return value if isinstance(value, str) else str(value)
    except (TypeError, ValueError):
        return value
    return value


def as_float(value: Any) -> Optional[float]:
    """``float(value)``, or None when ``float()`` rejects *value* or it
    overflows a float (an integer beyond about 1.8e308)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def numeric_values(values: Sequence[Any]) -> list:
    """Extract the float projection of a column, dropping non-numeric cells."""
    result = []
    for value in values:
        if is_null(value):
            continue
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            result.append(float(value))
            continue
        if isinstance(value, str):
            token = value.strip()
            if _FLOAT_RE.fullmatch(token):
                result.append(float(token))
    return result


def value_pattern(value: Any) -> str:
    """Abstract a value into a character-class pattern string.

    Used by D3L's "data value representation pattern" feature and by
    Auto-Validate's pattern language: letters map to ``A``, digits to ``9``,
    everything else passes through.  Runs are collapsed, so ``"AB-1234"``
    becomes ``"A-9"``.
    """
    if is_null(value):
        return ""
    out = []
    last: Optional[str] = None
    for char in str(value):
        if char.isalpha():
            symbol = "A"
        elif char.isdigit():
            symbol = "9"
        elif char.isspace():
            symbol = " "
        else:
            symbol = char
        if symbol != last:
            out.append(symbol)
        last = symbol
    return "".join(out)
