"""Incremental index upkeep: dirty-set tracking and delta application.

The lake keeps its discovery indexes current with *deltas*, never by
rebuilding them from all tables:

- :class:`DirtySet` — a thread-safe set of changed tables awaiting index
  application (the latest change wins when a table is marked twice);
- :class:`IncrementalIndexMaintainer` — owns one persistent
  :class:`~repro.discovery.aurum.Aurum` engine, one
  :class:`~repro.exploration.keyword.KeywordSearch` index and one
  :class:`~repro.discovery.table_union.TableUnionSearch` index, keeps
  one dirty set per index, and applies each as deltas: new tables are
  staged with ``add_table`` and edged with ``build_delta``, which probes
  only the fresh columns' LSH bucket mates and the columns sharing a
  name token or a value with them, never every indexed column; changed
  tables go through Aurum's change-threshold ``update_table`` (itself a
  ``build_delta``) and a keyword or union re-add; removed tables leave
  each index through its ``remove_table``.

A query applies only what the index it reads needs: ``engine()`` applies
Aurum's dirty set, ``searcher()`` the keyword index's and Aurum's,
``union_index()`` the union index's.  Once Aurum has been built, a
writer applies Aurum's set itself (``after_write()``: a sync write
before it returns, an async one in its job), so a discovery query after
a write finds Aurum current; the keyword and union sets wait for their
own queries.  ``refresh()`` applies all three; it is idempotent and
cheap when clean, so any caller can invoke it at any time.  A refresh
that raises puts the changes it had not applied back in their dirty
sets, so the next refresh (a query's, a write's, or a job's retry)
applies them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.dataset import Table
from repro.obs import (annotate, check_deadline, current_context, get_registry,
                       traced)


class ReadWriteLock:
    """Writer-preferring readers-writer lock guarding index reads vs deltas.

    Discovery queries only *read* the maintained engines, so any number
    may proceed concurrently; a delta refresh mutates postings and EKG
    edges in place and must exclude them.  Writer preference (new readers
    wait while a writer is queued) keeps a steady query stream from
    starving maintenance, which would otherwise stall ``drain()``.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True

    def release_write(self) -> None:
        with self._cond:
            self._writing = False
            self._cond.notify_all()

    @contextmanager
    def reading(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def writing(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class DirtySet:
    """Thread-safe pending-changes set; the latest change per table wins.

    A change is the table's new payload, or ``None`` when the table was
    removed.
    """

    def __init__(self) -> None:
        self._pending: Dict[str, Optional[Table]] = {}
        self._lock = threading.Lock()

    def mark(self, table: Table) -> bool:
        """Record *table* as changed; returns True when it was newly dirty."""
        return self._put(table.name, table)

    def mark_removed(self, name: str) -> bool:
        """Record table *name* as removed; returns True when it was newly dirty."""
        return self._put(name, None)

    def _put(self, name: str, table: Optional[Table]) -> bool:
        with self._lock:
            fresh = name not in self._pending
            self._pending[name] = table
            return fresh

    def take(self) -> List[Tuple[str, Optional[Table]]]:
        """Remove and return all pending ``(name, table)`` changes in mark order."""
        with self._lock:
            pending = list(self._pending.items())
            self._pending.clear()
            return pending

    def restore(self, changes: List[Tuple[str, Optional[Table]]]) -> None:
        """Put back *changes* that :meth:`take` returned, in their mark
        order; a table marked again since keeps its newer change."""
        with self._lock:
            pending = dict(changes)
            pending.update(self._pending)
            self._pending = pending

    def peek(self) -> List[str]:
        """Names of the currently dirty tables (no mutation)."""
        with self._lock:
            return list(self._pending)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._pending


class IncrementalIndexMaintainer:
    """Keeps an Aurum engine, a keyword index and a union-search index
    current via deltas.

    Each index has its own dirty set.  :meth:`note` and
    :meth:`note_removed` mark a change in all three, and each set is
    applied when something reads its index: :meth:`engine` applies
    Aurum's, :meth:`searcher` the keyword index's and Aurum's,
    :meth:`union_index` the union index's alone, :meth:`refresh` all
    three.  A keyword or union index equals one built from the surviving
    tables, so deferring their changes changes no answer; Aurum keeps a
    table's old profiles under its change threshold, so its answers
    depend on when a change is applied.  Once Aurum has been built, a
    writer applies its own change to Aurum with :meth:`after_write`, so
    Aurum's answers then depend on the sequence of writes alone, not on
    when queries ran; every Aurum or keyword query still applies Aurum's
    set, for a change a write left pending.

    All mutation happens under one re-entrant lock, so scheduler workers
    and the facade thread can mark and refresh concurrently; queries
    should go through :meth:`engine` / :meth:`searcher` /
    :meth:`union_index` and read under :meth:`reading`.
    """

    def __init__(self, on_change: Optional[Callable[[str], None]] = None):
        from repro.discovery.aurum import Aurum
        from repro.discovery.table_union import TableUnionSearch
        from repro.exploration.keyword import KeywordSearch

        self._aurum = Aurum()
        self._keyword = KeywordSearch()
        self._union = TableUnionSearch()
        #: each index's pending changes, keyed by the index
        self._dirty = {index: DirtySet()
                       for index in (self._aurum, self._keyword, self._union)}
        self._indexed: set = set()  # the tables Aurum holds
        self._aurum_built = False  # Aurum's set has been applied once
        self._lock = threading.RLock()
        self._rw = ReadWriteLock()
        self._on_change = on_change
        registry = get_registry()
        self._m_delta = registry.counter("runtime.index.delta_tables")
        self._m_updates = registry.counter("runtime.index.table_updates")
        self._m_clean = registry.counter("runtime.index.clean_accesses")
        self._g_tables = registry.gauge("runtime.index.tables")
        self._g_dirty = registry.gauge("runtime.index.dirty")

    # -- change tracking ---------------------------------------------------------

    def note(self, table: Table) -> bool:
        """Mark *table* dirty (new or changed) in every index; cheap, safe
        from any thread.  Returns True when no index had it pending."""
        fresh = all([dirty.mark(table) for dirty in self._dirty.values()])
        return self._noted(table.name, fresh)

    def note_removed(self, name: str) -> bool:
        """Mark table *name* for removal from every index (a no-op for a
        name that is not indexed); cheap, safe from any thread."""
        fresh = all([dirty.mark_removed(name) for dirty in self._dirty.values()])
        return self._noted(name, fresh)

    def _noted(self, name: str, fresh: bool) -> bool:
        self._set_dirty_gauge()
        if self._on_change is not None:
            # fires *after* the dirty marks: an observer (the lake's epoch
            # clock) that publishes the new epoch is guaranteed that any
            # query reading it will see this change applied on refresh
            self._on_change(name)
        return fresh

    def dirty(self) -> List[str]:
        """Tables that some index still has pending, in mark order."""
        sets = sorted(self._dirty.values(), key=len, reverse=True)
        return list(dict.fromkeys(name for dirty in sets for name in dirty.peek()))

    def _set_dirty_gauge(self) -> None:
        """Set ``runtime.index.dirty`` to the largest set's length, which
        holds every pending table (a note marks every set, an apply takes
        a whole set) but for a note racing a take."""
        self._g_dirty.set(max(len(dirty) for dirty in self._dirty.values()))

    # -- delta application -------------------------------------------------------

    @traced("maintenance.runtime.refresh", tier="maintenance", system="runtime",
            function="index_upkeep")
    def refresh(self) -> int:
        """Apply every index's pending changes; returns the number of
        tables applied (explicit calls)."""
        with self._lock:
            return self._apply_pending_locked(tuple(self._dirty))

    @traced("maintenance.runtime.refresh", tier="maintenance", system="runtime",
            function="index_upkeep")
    def _apply(self, *indexes) -> int:
        """:meth:`refresh` for the pending changes of *indexes* alone."""
        with self._lock:
            return self._apply_pending_locked(indexes)

    def _apply_pending_locked(self, indexes) -> int:
        """Apply the pending changes of *indexes*, in the order given
        (Aurum's first); the caller holds ``_lock``.

        When an apply raises, the changes it had not finished applying
        (those of the index whose apply raised, and of the indexes after
        it) go back to their sets, unless the table was marked again
        meanwhile; re-applying is idempotent, and the next
        ``build_delta`` links whatever is still staged.
        """
        taken = [(index, self._dirty[index].take()) for index in indexes]
        applied = len({name for _, changes in taken for name, _ in changes})
        if not applied:
            return 0
        annotate(delta_tables=applied)
        try:
            # the indexes mutate in place: exclude in-flight index readers
            # (queries on other threads) for the delta's duration
            with self._rw.writing():
                while taken:
                    index, changes = taken[0]
                    if index is self._aurum:
                        self._apply_aurum_locked(changes)
                    else:
                        self._replace_locked(index, changes)
                    del taken[0]  # applied: nothing of this index's to put back
        except BaseException:
            for index, changes in taken:
                self._dirty[index].restore(changes)
            raise
        finally:
            self._set_dirty_gauge()
        self._m_delta.inc(applied)
        self._g_tables.set(len(self._indexed))
        return applied

    def _apply_aurum_locked(self, pending: List[Tuple[str, Optional[Table]]]) -> None:
        if not pending:
            return  # an empty delta must not count as Aurum's first build
        for name, table in pending:
            if table is None:
                if name in self._indexed:
                    self._aurum.remove_table(name)
                    self._indexed.discard(name)
            elif name in self._indexed:
                self._aurum.update_table(table)  # change-threshold aware
                self._m_updates.inc()
            else:
                self._aurum.add_table(table)
                self._indexed.add(name)
        self._aurum.build_delta()
        self._aurum_built = True

    @staticmethod
    def _replace_locked(index, pending: List[Tuple[str, Optional[Table]]]) -> None:
        """Apply *pending* to the keyword or union *index* by name."""
        for name, table in pending:
            if table is None:
                index.remove_table(name)
            else:
                index.add_table(table)  # replaces an indexed version

    # -- query access (deltas applied first) --------------------------------------

    def reading(self):
        """Context manager for index readers; excludes in-place deltas.

        Queries hold this (shared) side while traversing the returned
        indexes so a concurrent apply cannot mutate postings, profiles
        or EKG edges mid-iteration; writer preference keeps a steady
        query stream from starving maintenance.
        """
        return self._rw.reading()

    def _refresh_for_query(self, *indexes) -> None:
        """Apply the pending changes of *indexes* for a query about to
        read them.

        Clean accesses skip the (traced) apply entirely, so repeated
        queries on an unchanged lake do no maintenance work.  A request
        that expired while it waited for the lock fails with
        ``DeadlineExceeded`` and leaves the dirty sets to the next caller.
        """
        with self._lock:
            if any(len(self._dirty[index]) for index in indexes):
                check_deadline("maintenance.refresh")
                self._apply(*indexes)
            else:
                self._m_clean.inc()

    def after_write(self) -> int:
        """Apply Aurum's pending changes for a writer that has noted its
        change (a sync write, or an async write's job); returns the
        number of tables applied.

        Before Aurum's first build this applies nothing: a bulk load
        waits for Aurum's first reader, which builds it in one pass, and
        a lake that no query reads Aurum in never indexes into it.  A
        write whose request deadline has passed leaves its changes to
        the next reader instead of failing.  The keyword and union
        indexes' changes always wait for a query of their own.  An apply
        that raises keeps the change in Aurum's dirty set, as any
        refresh does.
        """
        with self._lock:
            if not self._aurum_built or not len(self._dirty[self._aurum]):
                return 0
            ctx = current_context()
            if ctx is not None and ctx.expired():
                return 0
            return self._apply(self._aurum)

    def engine(self):
        """The maintained Aurum engine, with Aurum's pending changes
        applied; the other indexes' stay pending."""
        self._refresh_for_query(self._aurum)
        return self._aurum

    def searcher(self):
        """The maintained keyword index, with its pending changes applied,
        and Aurum's too, so that Aurum applies a change at the same point
        whether the next query reads Aurum or the keyword index."""
        self._refresh_for_query(self._aurum, self._keyword)
        return self._keyword

    def union_index(self):
        """The maintained union-search index, with its pending changes
        applied; Aurum's and the keyword index's stay pending."""
        self._refresh_for_query(self._union)
        return self._union

    def __len__(self) -> int:
        with self._lock:
            return len(self._indexed)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._indexed
