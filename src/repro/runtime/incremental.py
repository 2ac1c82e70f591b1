"""Incremental index upkeep: dirty-set tracking and delta application.

The lake keeps its discovery indexes current with *deltas*, never by
rebuilding them from all tables:

- :class:`DirtySet` — a thread-safe set of changed tables awaiting index
  application (the latest change wins when a table is marked twice);
- :class:`IncrementalIndexMaintainer` — owns one persistent
  :class:`~repro.discovery.aurum.Aurum` engine and one persistent
  :class:`~repro.exploration.keyword.KeywordSearch` index, keeps one
  dirty set per index, and applies each as deltas: new tables are
  staged with ``add_table`` and edged with ``build_delta``, which probes
  only the fresh columns' LSH bucket mates and the columns sharing a
  name token or a value with them, never every indexed column; changed
  tables go through Aurum's change-threshold ``update_table`` (itself a
  ``build_delta``) and a keyword re-add; removed tables leave each index
  through its ``remove_table``.

A query applies only what the index it reads needs: ``engine()`` applies
Aurum's dirty set, ``searcher()`` the keyword index's and Aurum's.
Once Aurum has been built, a writer applies Aurum's set itself
(``after_write()``: a sync write before it returns, an async one in its
job), so a discovery query after a write finds Aurum current; the
keyword index's set still waits for a keyword query.  ``refresh()``
applies both; it is idempotent and cheap when clean, so any caller can
invoke it at any time.  A refresh that raises puts the changes it had
not applied back in their dirty sets, so the next refresh (a query's, a
write's, or a job's retry) applies them.
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

    def union_size(self, names: List[str]) -> int:
        """How many tables are dirty here or named in *names* (no repeats)."""
        with self._lock:
            return len(self._pending) + sum(name not in self._pending for name in names)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._pending


class IncrementalIndexMaintainer:
    """Keeps one Aurum engine and one keyword index current via deltas.

    Each index has its own dirty set.  :meth:`note` and
    :meth:`note_removed` mark a change in both, and each set is applied
    when something reads its index: :meth:`engine` applies Aurum's,
    :meth:`searcher` the keyword index's and Aurum's, :meth:`refresh`
    both.  A keyword index equals one built from the surviving tables,
    so deferring its changes changes no answer; Aurum keeps a table's
    old profiles under its change threshold, so its answers depend on
    when a change is applied.  Once Aurum has been built, a writer
    applies its own change to Aurum with :meth:`after_write`, so Aurum's
    answers then depend on the sequence of writes alone, not on when
    queries ran; every query still applies Aurum's set, for a change a
    write left pending.

    All mutation happens under one re-entrant lock, so scheduler workers
    and the facade thread can mark and refresh concurrently; queries
    should go through :meth:`engine` / :meth:`searcher`.
    """

    def __init__(self, aurum=None, keyword=None,
                 on_change: Optional[Callable[[str], None]] = None):
        from repro.discovery.aurum import Aurum
        from repro.exploration.keyword import KeywordSearch

        self._aurum = aurum if aurum is not None else Aurum()
        self._keyword = keyword if keyword is not None else KeywordSearch()
        self._aurum_dirty = DirtySet()
        self._keyword_dirty = DirtySet()
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
        """Mark *table* dirty (new or changed) in both indexes; cheap, safe
        from any thread.  Returns True when no index had it pending."""
        fresh = self._aurum_dirty.mark(table)
        fresh = self._keyword_dirty.mark(table) and fresh
        return self._noted(table.name, fresh)

    def note_removed(self, name: str) -> bool:
        """Mark table *name* for removal from both indexes (a no-op for a
        name that is not indexed); cheap, safe from any thread."""
        fresh = self._aurum_dirty.mark_removed(name)
        fresh = self._keyword_dirty.mark_removed(name) and fresh
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
        return list(dict.fromkeys(self._keyword_dirty.peek()
                                  + self._aurum_dirty.peek()))

    def _set_dirty_gauge(self) -> None:
        """Set ``runtime.index.dirty`` to ``len(dirty())`` without listing
        the keyword backlog, which holds every table written since the
        last keyword query."""
        self._g_dirty.set(self._keyword_dirty.union_size(self._aurum_dirty.peek()))

    # -- delta application -------------------------------------------------------

    @traced("maintenance.runtime.refresh", tier="maintenance", system="runtime",
            function="index_upkeep")
    def refresh(self) -> int:
        """Apply both indexes' pending changes; returns the number of
        tables applied (explicit calls)."""
        with self._lock:
            return self._apply_pending_locked(keyword=True)

    @traced("maintenance.runtime.refresh", tier="maintenance", system="runtime",
            function="index_upkeep")
    def _refresh_aurum(self) -> int:
        """:meth:`refresh` for Aurum's pending changes alone."""
        with self._lock:
            return self._apply_pending_locked(keyword=False)

    def _apply_pending_locked(self, keyword: bool) -> int:
        """Apply Aurum's pending changes, then the keyword index's when
        *keyword*; the caller holds ``_lock``.

        When an apply raises, the changes it had not finished applying
        (Aurum's if its apply raised, and the keyword index's) go back to
        their sets, unless the table was marked again meanwhile;
        re-applying is idempotent, and the next ``build_delta`` links
        whatever is still staged.
        """
        aurum = self._aurum_dirty.take()
        words = self._keyword_dirty.take() if keyword else []
        if not aurum and not words:
            return 0
        applied = len(dict.fromkeys(name for name, _ in aurum + words))
        annotate(delta_tables=applied)
        try:
            # the engines mutate in place: exclude in-flight index readers
            # (discovery queries on other threads) for the delta's duration
            with self._rw.writing():
                if aurum:
                    self._apply_aurum_locked(aurum)
                    aurum = []  # applied: nothing of Aurum's to put back
                self._apply_keyword_locked(words)
        except BaseException:
            self._aurum_dirty.restore(aurum)
            self._keyword_dirty.restore(words)
            raise
        finally:
            self._set_dirty_gauge()
        self._m_delta.inc(applied)
        self._g_tables.set(len(self._indexed))
        return applied

    def _apply_aurum_locked(self, pending: List[Tuple[str, Optional[Table]]]) -> None:
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

    def _apply_keyword_locked(self, pending: List[Tuple[str, Optional[Table]]]) -> None:
        for name, table in pending:
            if table is None:
                self._keyword.remove_table(name)
            else:
                self._keyword.add_table(table)  # replaces an indexed version

    # -- query access (deltas applied first) --------------------------------------

    def reading(self):
        """Context manager for engine readers; excludes in-place deltas.

        Queries hold this (shared) side while traversing the returned
        engines so a concurrent :meth:`refresh` cannot mutate postings or
        EKG edges mid-iteration; writer preference keeps a steady query
        stream from starving maintenance.
        """
        return self._rw.reading()

    def _refresh_for_query(self, pending: int, refresh: Callable[[], int]) -> None:
        """Run *refresh* before a query reads when *pending* changes wait;
        the caller holds the lock.

        Clean accesses skip the (traced) refresh machinery entirely, so
        repeated queries on an unchanged lake do no maintenance work.  A
        request that expired while it waited for the lock fails with
        ``DeadlineExceeded`` and leaves the dirty sets to the next caller.
        """
        if pending:
            check_deadline("maintenance.refresh")
            refresh()
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
        the next reader instead of failing.  The keyword index's changes
        always wait for a keyword query.  An apply that raises keeps the
        change in Aurum's dirty set, as any refresh does.
        """
        with self._lock:
            if not self._aurum_built or not len(self._aurum_dirty):
                return 0
            ctx = current_context()
            if ctx is not None and ctx.expired():
                return 0
            return self._refresh_aurum()

    def engine(self):
        """The maintained Aurum engine, with Aurum's pending changes
        applied; the keyword index's stay pending."""
        with self._lock:
            self._refresh_for_query(len(self._aurum_dirty), self._refresh_aurum)
            return self._aurum

    def searcher(self):
        """The maintained keyword index, with its pending changes applied,
        and Aurum's too, so that Aurum applies a change at the same point
        whichever index the next query reads."""
        with self._lock:
            self._refresh_for_query(
                len(self._keyword_dirty) + len(self._aurum_dirty), self.refresh)
            return self._keyword

    def __len__(self) -> int:
        with self._lock:
            return len(self._indexed)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._indexed
