"""A lakehouse table format with ACID transactions and time travel.

Sec. 8.3 of the survey identifies the *Lakehouse* (Delta Lake, Hudi,
Iceberg) as the emerging paradigm that adds "transaction management,
indexing, caching, and metadata management" on top of raw lake storage.
:class:`LakehouseTable` implements the Delta-Lake design at laptop scale:

- the table is a set of immutable data files in the object store;
- a **transaction log** of numbered commits records ``add``/``remove`` file
  actions plus commit metadata;
- readers reconstruct a **snapshot** at any version by replaying the log
  (time travel);
- writers use **optimistic concurrency control**: a commit expecting log
  version ``v`` fails with :class:`TransactionConflict` if another writer
  committed ``v`` first (the Delta Lake mutual-exclusion-on-log-entry
  protocol).

When the backing :class:`~repro.storage.object_store.ObjectStore` is
persistent, the transaction log is **durable** (see
``docs/DURABILITY.md``): every commit is journaled to
``<root>/_txlog/<bucket>/<version>.json`` — through the atomic-write
protocol, checksummed, *before* the commit is acknowledged — and a table
constructed over an existing root **recovers** by replaying the longest
valid journal prefix, validating each data file's content hash, dropping
any torn tail entries and garbage-collecting data files no surviving
commit references.  A crash mid-commit therefore rolls back to the last
acknowledged version; an acknowledged commit is never lost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.dataset import Table
from repro.core.errors import DatasetNotFound, StorageError, TransactionConflict
from repro.core.registry import Function, Method, SystemInfo, register_system
from repro.core.types import as_float
from repro.durability import txlog
from repro.durability.atomic import durable_unlink
from repro.faults.crash import maybe_crash, register_crash_point
from repro.obs import emit, get_registry
from repro.storage.object_store import ObjectStore

#: the journal write (commit point) and the post-journal ack window
register_crash_point("lakehouse.commit.journal")
register_crash_point("lakehouse.commit.ack")


@dataclass(frozen=True)
class LogAction:
    """One action inside a commit: add or remove a data file."""

    action: str  # "add" | "remove"
    file_key: str
    num_rows: int = 0
    content_hash: str = ""  # sha256 of the data file ("add" only)


@dataclass(frozen=True)
class Commit:
    """A numbered transaction-log entry."""

    version: int
    actions: Tuple[LogAction, ...]
    operation: str
    metadata: Mapping[str, Any] = field(default_factory=dict)


@register_system(SystemInfo(
    name="Lakehouse table format",
    functions=(Function.STORAGE_BACKEND,),
    methods=(Method.LAKEHOUSE,),
    paper_refs=("[6]", "[7]", "Sec. 8.3"),
    summary="Delta-Lake-style transaction log over the object store: ACID appends, "
            "overwrites, optimistic concurrency, snapshot reads and time travel.",
))
class LakehouseTable:
    """An ACID table backed by immutable files plus a transaction log."""

    def __init__(self, name: str, store: Optional[ObjectStore] = None):
        self.name = name
        self.store = store or ObjectStore()
        self.bucket = f"lakehouse-{name}"
        self.store.create_bucket(self.bucket)
        self._log: List[Commit] = []
        self._lock = threading.Lock()
        self._file_counter = 0
        # Hyperspace-style file statistics for data skipping (Sec. 4.1 [1]):
        # file key -> column -> (min, max) over the file's numeric values
        self._file_stats: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self.files_skipped = 0
        self.files_read = 0
        self._fsync = bool(getattr(self.store, "fsync", True))
        self._recovery: Dict[str, Any] = {}
        root = getattr(self.store, "root", None)
        self._log_dir: Optional[Path] = None
        if root is not None:
            self._log_dir = Path(root) / txlog.TXLOG_DIR / self.bucket
            self._recover()

    @property
    def log_dir(self) -> Optional[Path]:
        """The on-disk journal directory, or ``None`` for in-memory tables."""
        return self._log_dir

    @property
    def recovery_report(self) -> Dict[str, Any]:
        """What startup recovery did: replayed / dropped / orphans removed."""
        return dict(self._recovery)

    # -- log ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Current log version (0 = empty table, no commits)."""
        return len(self._log)

    def log(self) -> List[Commit]:
        return list(self._log)

    def _next_file_key(self) -> str:
        with self._lock:
            self._file_counter += 1
            return f"part-{self._file_counter:05d}"

    def _commit(
        self,
        actions: Sequence[LogAction],
        operation: str,
        expected_version: Optional[int],
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> Commit:
        with self._lock:
            if expected_version is not None and expected_version != self.version:
                raise TransactionConflict(
                    f"commit expected log version {expected_version} "
                    f"but table {self.name!r} is at {self.version}"
                )
            commit = Commit(
                version=self.version + 1,
                actions=tuple(actions),
                operation=operation,
                metadata=dict(metadata or {}),
            )
            self._journal(commit)
            self._log.append(commit)
            return commit

    def _journal(self, commit: Commit) -> None:
        """Durably journal *commit* before it is acknowledged.

        The atomic publish of the journal entry is the commit point: a
        crash before it rolls the transaction back on recovery (the data
        file becomes a GC'd orphan); a crash after it — even before the
        caller sees the ack — preserves the commit, because the entry
        checksums clean and its data files are already on disk.
        """
        if self._log_dir is None:
            return
        maybe_crash("lakehouse.commit.journal")
        entry = txlog.encode_entry(
            commit.version,
            commit.operation,
            [
                {
                    "action": action.action,
                    "file_key": action.file_key,
                    "num_rows": action.num_rows,
                    "content_hash": action.content_hash,
                }
                for action in commit.actions
            ],
            commit.metadata,
        )
        txlog.write_entry(self._log_dir, entry, fsync=self._fsync)
        get_registry().counter("durability.commits_journaled").inc()
        maybe_crash("lakehouse.commit.ack")

    # -- recovery ---------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild in-memory state from the on-disk journal after a restart.

        Replays the longest valid journal prefix (parsed, checksummed,
        contiguously numbered), validating every ``add`` action's content
        hash against the object store; the first entry that fails —
        a torn tail from a crash mid-journal, or an entry whose data file
        never made it to disk — is dropped along with everything after
        it, and the dropped journal files are unlinked.  Data files no
        surviving commit references (orphans from crashes between the
        data write and the journal write, or from conflict-aborted
        transactions) are garbage-collected from the store.
        """
        assert self._log_dir is not None
        entries, dropped = txlog.read_log(self._log_dir)
        replayed: List[Commit] = []
        for index, entry in enumerate(entries):
            actions = tuple(
                LogAction(
                    action["action"],
                    action["file_key"],
                    num_rows=action.get("num_rows", 0),
                    content_hash=action.get("content_hash", ""),
                )
                for action in entry["actions"]
            )
            problem = self._validate_actions(actions)
            if problem is not None:
                path = str(txlog.entry_path(self._log_dir, int(entry["version"])))
                dropped.insert(0, (path, problem))
                for later in entries[index + 1:]:
                    later_path = txlog.entry_path(self._log_dir,
                                                  int(later["version"]))
                    dropped.append((str(later_path),
                                    "follows a dropped journal entry"))
                break
            replayed.append(Commit(
                version=int(entry["version"]),
                actions=actions,
                operation=entry["operation"],
                metadata=dict(entry.get("metadata", {})),
            ))
        self._log = replayed

        for path, _reason in dropped:
            durable_unlink(Path(path), fsync=self._fsync)

        # GC data files no surviving commit references, rebuild counters/stats
        referenced = {a.file_key for c in replayed for a in c.actions
                      if a.action == "add"}
        orphans: List[str] = []
        for key in self.store.keys(self.bucket, prefix="part-"):
            if key not in referenced:
                self.store.delete(self.bucket, key)
                orphans.append(key)
        self._file_counter = max(
            (self._part_number(key) for key in referenced), default=0)
        for key in self._live_files(self.version):
            self._collect_stats(key, self.store.get(self.bucket, key).payload())

        self._recovery = {
            "replayed": len(replayed),
            "dropped_entries": [{"path": p, "reason": r} for p, r in dropped],
            "orphans_removed": orphans,
        }
        if replayed or dropped or orphans:
            registry = get_registry()
            registry.counter("durability.recovery.replayed").inc(len(replayed))
            registry.counter("durability.recovery.dropped_entries").inc(len(dropped))
            registry.counter("durability.recovery.orphans_removed").inc(len(orphans))
            emit("lakehouse.recovered", table=self.name,
                 version=self.version, replayed=len(replayed),
                 dropped=len(dropped), orphans=len(orphans))

    def _validate_actions(self, actions: Sequence[LogAction]) -> Optional[str]:
        """Why a journaled commit cannot be replayed, or ``None`` if it can."""
        for action in actions:
            if action.action != "add":
                continue
            try:
                obj = self.store.get(self.bucket, action.file_key)
            except DatasetNotFound:
                return f"data file {action.file_key} is missing or unreadable"
            if action.content_hash and obj.content_hash != action.content_hash:
                return (f"data file {action.file_key} content hash does not "
                        f"match the journaled commit")
        return None

    @staticmethod
    def _part_number(file_key: str) -> int:
        try:
            return int(file_key.rsplit("-", 1)[-1])
        except ValueError:
            return 0

    # -- writes ------------------------------------------------------------------

    def _collect_stats(self, file_key: str, table: Table) -> None:
        """Record per-file numeric min/max for data skipping."""
        from repro.core.types import numeric_values

        stats: Dict[str, Tuple[float, float]] = {}
        for column in table.columns:
            numbers = numeric_values(column.values)
            if numbers:
                stats[column.name] = (min(numbers), max(numbers))
        self._file_stats[file_key] = stats

    def append(
        self,
        rows: Iterable[Mapping[str, Any]],
        expected_version: Optional[int] = None,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> Commit:
        """Atomically append rows as one new immutable data file."""
        records = list(rows)
        file_key = self._next_file_key()
        table = Table.from_records(file_key, records)
        obj = self.store.put(self.bucket, file_key, table, format="columnar")
        self._collect_stats(file_key, table)
        action = LogAction("add", file_key, num_rows=len(records),
                           content_hash=obj.content_hash)
        try:
            return self._commit([action], "append", expected_version, metadata)
        except TransactionConflict:
            self._discard_file(file_key)
            raise

    def overwrite(
        self,
        rows: Iterable[Mapping[str, Any]],
        expected_version: Optional[int] = None,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> Commit:
        """Atomically replace the table contents (remove all + add one)."""
        records = list(rows)
        live = self._live_files(self.version)
        actions = [LogAction("remove", key) for key in live]
        file_key = self._next_file_key()
        table = Table.from_records(file_key, records)
        obj = self.store.put(self.bucket, file_key, table, format="columnar")
        self._collect_stats(file_key, table)
        actions.append(LogAction("add", file_key, num_rows=len(records),
                                 content_hash=obj.content_hash))
        try:
            return self._commit(actions, "overwrite", expected_version, metadata)
        except TransactionConflict:
            self._discard_file(file_key)
            raise

    def _discard_file(self, file_key: str) -> None:
        """Remove an orphaned data file left by a failed (unjournaled) commit."""
        self._file_stats.pop(file_key, None)
        try:
            self.store.delete(self.bucket, file_key)
        except DatasetNotFound:
            pass  # never persisted (or already cleaned) — nothing to discard
        get_registry().counter("durability.conflict_orphans_cleaned").inc()

    def delete_where(
        self,
        predicate,
        expected_version: Optional[int] = None,
    ) -> Commit:
        """Transactionally delete rows matching *predicate(row_dict)*.

        Implemented, as in Delta Lake, by rewriting affected files.
        """
        version = self.version
        survivors = [row for row in self.snapshot(version).rows() if not predicate(row)]
        return self.overwrite(survivors, expected_version=expected_version,
                              metadata={"rewritten_from": version})

    # -- reads ------------------------------------------------------------------------

    def _live_files(self, version: int) -> List[str]:
        if not 0 <= version <= len(self._log):
            raise StorageError(f"table {self.name!r} has no version {version}")
        live: List[str] = []
        for commit in self._log[:version]:
            for action in commit.actions:
                if action.action == "add":
                    live.append(action.file_key)
                elif action.action == "remove":
                    live = [k for k in live if k != action.file_key]
        return live

    def snapshot(self, version: Optional[int] = None) -> Table:
        """Reconstruct the table at *version* (time travel); latest default."""
        version = self.version if version is None else version
        tables = [
            self.store.get(self.bucket, key).payload()
            for key in self._live_files(version)
        ]
        if not tables:
            return Table(self.name, [])
        merged = tables[0]
        for extra in tables[1:]:
            merged = merged.union_rows(extra)
        return Table(self.name, merged.columns)

    def history(self) -> List[Dict[str, Any]]:
        """Commit history, newest first (the Delta ``DESCRIBE HISTORY``)."""
        out = []
        for commit in reversed(self._log):
            out.append({
                "version": commit.version,
                "operation": commit.operation,
                "num_actions": len(commit.actions),
                "rows_added": sum(a.num_rows for a in commit.actions if a.action == "add"),
                "metadata": dict(commit.metadata),
            })
        return out

    def row_count(self, version: Optional[int] = None) -> int:
        return len(self.snapshot(version))

    # -- indexed scans (Hyperspace-style data skipping) -------------------------

    def scan(
        self,
        column: str,
        op: str,
        value: float,
        version: Optional[int] = None,
    ) -> Table:
        """Predicate scan that skips files via per-file min/max statistics.

        Supports numeric comparisons (``= != < <= > >=``).  A file whose
        recorded [min, max] range for *column* cannot contain a matching
        row is never read — the indexing subsystem idea of Hyperspace
        (Sec. 4.1 [1]) applied to the lakehouse layout.  ``files_skipped``
        and ``files_read`` expose the saving.
        """
        from repro.storage.relational import Predicate

        predicate = Predicate(column, op, value)
        target = as_float(value)  # None for a non-numeric predicate: no skipping
        version = self.version if version is None else version
        survivors: List[Table] = []
        for key in self._live_files(version):
            stats = self._file_stats.get(key, {})
            bounds = stats.get(column)
            if bounds is not None and target is not None \
                    and self._excludes(bounds, op, target):
                self.files_skipped += 1
                continue
            self.files_read += 1
            table = self.store.get(self.bucket, key).payload()
            survivors.append(table.take(predicate.select(table, range(len(table)))))
        if not survivors:
            return Table(self.name, [])
        merged = survivors[0]
        for extra in survivors[1:]:
            merged = merged.union_rows(extra)
        return Table(self.name, merged.columns)

    @staticmethod
    def _excludes(bounds: Tuple[float, float], op: str, value: float) -> bool:
        low, high = bounds
        if op == "=":
            return value < low or value > high
        if op == "<":
            return low >= value
        if op == "<=":
            return low > value
        if op == ">":
            return high <= value
        if op == ">=":
            return high < value
        return False  # != and unknown ops never allow skipping
