"""The lake-wide discovery query cache and its epoch clock.

The survey's exploration tier is judged on discovery latency — Aurum's
LSH replacing O(n²) all-pairs with linear probing, JOSIE's top-k
performance, D³L's multi-similarity accuracy are all claims about making
related-dataset discovery fast at lake scale — and the same related,
joinable and keyword questions recur while the lake keeps ingesting.
Discovery runs on the caller's thread; this module supplies what makes
repeated questions cheap without ever serving a stale answer:

- :class:`QueryCache` — a lake-wide LRU memo of discovery and keyword
  results keyed by ``(engine, normalized query, index epoch)``;
- :class:`EpochClock` — one index epoch bumped by the maintenance tier
  on every table ingest/removal, so a cached answer can never survive an
  index change: the epoch moves on and the stale entry simply stops
  matching (and ages out of the LRU);
- :class:`DiscoveryQuery` and :func:`as_query` — the normalized request
  that is the unit of caching and of ``DataLake.discover_batch``.

Hits, misses and evictions are counted once, as exact per-instance
integers in :meth:`QueryCache.stats`, which the coherence tests assert
against and ``DataLake.architecture_report()`` exports; a lookup adds
no metric and no event.  The entry count is the
``exploration.cache.entries`` gauge, the epoch the
``exploration.epoch`` gauge, and each bump emits one
``index.epoch_bump``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, NamedTuple, Sequence, Tuple

from repro.ml.text import tokenize
from repro.obs import emit, get_registry

#: marks a cache miss (a cached answer may itself be None)
_MISSING = object()

#: query kind -> the engine whose index epoch guards its cached results
ENGINE_OF_KIND: Dict[str, str] = {
    "joinable": "aurum",
    "related": "aurum",
    "union": "union",
    "keyword": "keyword",
}


class EpochClock:
    """The monotonic index epoch; the cache's invalidation authority.

    Every tabular ingest or removal moves it on once (a non-tabular
    dataset does not), and every discovery engine reads it, since each
    such change affects all of them.  The epoch only grows, so a cache
    key minted at epoch *n* can never be served once the lake is at
    *n+1* — coherence by construction, no scanning.
    """

    def __init__(self):
        self._epoch = 0
        self._lock = threading.Lock()
        self._gauge = get_registry().gauge("exploration.epoch")

    def bump(self) -> None:
        """Advance the epoch by one."""
        with self._lock:
            self._epoch = epoch = self._epoch + 1
            self._gauge.set(epoch)
        # outside the lock: emit takes its own
        emit("index.epoch_bump", epoch=epoch)

    def epoch(self) -> int:
        return self._epoch


class QueryCache:
    """LRU memo of discovery results keyed by (engine, query, epoch).

    Values are stored by reference but returned as shallow copies, so a
    caller mutating the list it got back cannot corrupt later answers.
    ``max_entries`` bounds memory; the oldest entry (stale epochs first,
    in practice, since they stop being touched) is evicted beyond it.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[Hashable, ...], Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._g_entries = get_registry().gauge("exploration.cache.entries")

    @staticmethod
    def _copy(value: Any) -> Any:
        return list(value) if isinstance(value, list) else value

    def lookup(self, engine: str, query_key: Hashable, epoch: int) -> Tuple[bool, Any]:
        """``(hit, value)`` for the exact (engine, query, epoch) coordinate."""
        key = (engine, query_key, epoch)
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return False, None
            self._entries.move_to_end(key)
            self._hits += 1
            return True, self._copy(value)

    def store(self, engine: str, query_key: Hashable, epoch: int, value: Any) -> None:
        key = (engine, query_key, epoch)
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._g_entries.set(len(self._entries))

    def fetch(self, engine: str, query_key: Hashable, epoch: int,
              compute: Callable[[], Any]) -> Any:
        """Memoized ``compute()``: serve the cached value or compute + store."""
        hit, value = self.lookup(engine, query_key, epoch)
        if hit:
            return value
        value = compute()
        self.store(engine, query_key, epoch, value)
        return self._copy(value)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._g_entries.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Exact per-instance counters: the cache's only record of its traffic."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }


_record = tuple.__new__


class _QueryFields(NamedTuple):
    kind: str
    table: str = ""
    column: str = ""
    keywords: str = ""
    k: int = 5
    min_score: float = 0.3  # union only


class DiscoveryQuery(_QueryFields):
    """One normalized discovery request, the unit of caching and batching.

    ``kind`` is one of ``joinable`` / ``related`` / ``union`` /
    ``keyword``; the other fields are kind-specific (``table``+``column``
    for joinable, ``table`` for related/union, ``keywords`` for keyword).
    ``k`` is a plain ``int`` (not a ``bool``) of at least 1, and
    ``min_score`` an ``int`` or ``float`` (not a ``bool``) other than
    NaN.  An immutable tuple, validated whenever one is built, by
    ``_replace`` too; a bad field raises :class:`ValueError`.
    """

    __slots__ = ()

    def __new__(cls, kind: str, table: str = "", column: str = "",
                keywords: str = "", k: int = 5,
                min_score: float = 0.3) -> "DiscoveryQuery":
        if kind not in ENGINE_OF_KIND:
            raise ValueError(
                f"unknown discovery kind {kind!r}; "
                f"expected one of {sorted(ENGINE_OF_KIND)}")
        if kind == "keyword":
            if not keywords:
                raise ValueError("keyword queries need keywords=")
        elif not table:
            raise ValueError(f"{kind} queries need table=")
        elif kind == "joinable" and not column:
            raise ValueError("joinable queries need column=")
        if type(k) is not int:  # a bool is not a k
            raise ValueError(f"k must be an int, not {type(k).__name__}")
        if k < 1:
            raise ValueError("k must be >= 1")
        if type(min_score) not in (int, float) or min_score != min_score:
            # a bool is no score, and NaN (unequal to itself) admits none
            raise ValueError(f"min_score must be an int or float other "
                             f"than NaN, not {min_score!r}")
        return _record(cls, (kind, table, column, keywords, k, min_score))

    def _replace(self, **changes: Any) -> "DiscoveryQuery":
        """A copy with *changes*, validated like a new query."""
        return DiscoveryQuery(**{**self._asdict(), **changes})

    @property
    def engine(self) -> str:
        """The engine whose index epoch guards this query's cached answer."""
        return ENGINE_OF_KIND[self.kind]

    def key(self) -> Tuple[Hashable, ...]:
        """The normalized cache key (keyword text canonicalized by token)."""
        if self.kind == "keyword":
            return keyword_key(tokenize(self.keywords), self.k)
        if self.kind == "joinable":
            return ("joinable", self.table, self.column, self.k)
        if self.kind == "union":
            return ("union", self.table, self.k, self.min_score)
        return ("related", self.table, self.k)


def keyword_key(terms: Sequence[str], k: int) -> Tuple[Hashable, ...]:
    """The cache key of a keyword query whose text tokenizes to *terms*."""
    return ("keyword", tuple(terms), k)


def as_query(spec: Any) -> DiscoveryQuery:
    """Coerce a user-facing spec (query, mapping, or tuple) to a query."""
    if isinstance(spec, DiscoveryQuery):
        return spec
    if isinstance(spec, dict):
        return DiscoveryQuery(**spec)
    if isinstance(spec, (tuple, list)) and spec:
        kind = spec[0]
        if kind == "joinable" and len(spec) >= 3:
            return DiscoveryQuery(kind="joinable", table=spec[1], column=spec[2],
                                  **({"k": spec[3]} if len(spec) > 3 else {}))
        if kind in ("related", "union") and len(spec) >= 2:
            return DiscoveryQuery(kind=kind, table=spec[1],
                                  **({"k": spec[2]} if len(spec) > 2 else {}))
        if kind == "keyword" and len(spec) >= 2:
            return DiscoveryQuery(kind="keyword", keywords=spec[1],
                                  **({"k": spec[2]} if len(spec) > 2 else {}))
    raise ValueError(f"cannot interpret {spec!r} as a discovery query")
