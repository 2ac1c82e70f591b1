"""The atomic durable-write protocol every storage-tier disk write uses.

A bare ``path.write_bytes(data)`` has two torn-write windows: the file
may be half-written when the process dies, and even a fully written file
may lose data blocks if the machine dies before the page cache flushes.
The classic cure (what SQLite, Delta Lake commit files, and every
journaled system do) is implemented here as :func:`atomic_write_bytes`:

1. write the payload to a ``*.tmp`` sibling;
2. ``fsync`` the tmp file (data blocks durable before publish);
3. ``os.replace`` onto the final name (atomic on POSIX — readers see
   the old file or the new file, never a mixture);
4. ``fsync`` the parent directory (the rename itself durable).

Deletes go through :func:`durable_unlink` (unlink + directory fsync) so
a "deleted" object cannot resurrect after a crash.

Every step visits a named :mod:`repro.faults.crash` crash point, which
is what lets the crash-matrix harness kill the process at each step and
assert the recovery invariants.  ``tests/storage/test_crash_matrix.py``
keeps the storage tier honest: every file its workload leaves behind
(object data, object meta, journal entries) must have been published by
this module's rename.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union

from repro.faults.crash import (
    KILL,
    LOST_RENAME,
    MISSED_FSYNC,
    TORN_WRITE,
    ProcessCrash,
    crash_step,
    maybe_crash,
    register_crash_point,
)
from repro.obs import get_registry

#: suffix of in-flight (unpublished) files; recovery and fsck ignore/GC them
TMP_SUFFIX = ".tmp"

register_crash_point("durability.write.tmp", kinds=(KILL, TORN_WRITE))
register_crash_point("durability.write.fsync", kinds=(KILL, MISSED_FSYNC))
register_crash_point("durability.write.rename", kinds=(KILL, LOST_RENAME))
register_crash_point("durability.write.dirsync", kinds=(KILL,))
register_crash_point("durability.delete.unlink", kinds=(KILL,))
register_crash_point("durability.delete.dirsync", kinds=(KILL,))


def fsync_dir(path: Union[str, Path]) -> None:
    """fsync a directory so renames/unlinks inside it are durable.

    Best-effort on platforms whose directories cannot be opened
    (Windows); every POSIX target supports it.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _torn_prefix(data: bytes) -> bytes:
    """The prefix a torn write leaves behind (at least one byte missing)."""
    return data[: max(0, len(data) // 2)]


def atomic_write_bytes(path: Union[str, Path], data: bytes, *,
                       fsync: bool = True) -> Path:
    """Atomically publish *data* at *path* (tmp → fsync → rename → dirsync).

    With ``fsync=False`` the two fsync calls are skipped (tests and
    benchmarks on throwaway roots); the tmp-then-rename publish step is
    never skipped, so a concurrent crash can only ever leave a stale
    ``*.tmp`` sibling, never a torn file at the final name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + TMP_SUFFIX)

    mode = crash_step("durability.write.tmp")
    if mode == TORN_WRITE:
        with open(tmp, "wb") as handle:
            handle.write(_torn_prefix(data))
        raise ProcessCrash(f"torn write of {tmp}")
    if mode == KILL:
        raise ProcessCrash(f"killed before writing {tmp}")
    with open(tmp, "wb") as handle:
        handle.write(data)

    mode = crash_step("durability.write.fsync")
    if mode == MISSED_FSYNC:
        # fsync skipped and the machine dies after the rename: the rename
        # is durable, the data blocks are not — a torn file sits at the
        # final name, which recovery must detect by content hash/checksum
        with open(tmp, "wb") as handle:
            handle.write(_torn_prefix(data))
        os.replace(tmp, path)
        raise ProcessCrash(f"missed fsync publishing {path}")
    if mode == KILL:
        raise ProcessCrash(f"killed before fsync of {tmp}")
    if fsync:
        with open(tmp, "rb+") as handle:
            os.fsync(handle.fileno())

    mode = crash_step("durability.write.rename")
    if mode in (KILL, LOST_RENAME):
        raise ProcessCrash(f"lost rename of {tmp} -> {path}")
    os.replace(tmp, path)

    mode = crash_step("durability.write.dirsync")
    if mode == KILL:
        raise ProcessCrash(f"killed before directory fsync of {path.parent}")
    if fsync:
        fsync_dir(path.parent)
    get_registry().counter("durability.atomic_writes").inc()
    return path


def atomic_write_text(path: Union[str, Path], text: str, *,
                      fsync: bool = True) -> Path:
    """Atomically publish *text* (UTF-8) at *path*."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(path: Union[str, Path], payload: Any, *,
                      fsync: bool = True) -> Path:
    """Atomically publish *payload* as canonical (sorted-key) JSON."""
    return atomic_write_bytes(
        path, json.dumps(payload, sort_keys=True).encode("utf-8"), fsync=fsync)


def durable_unlink(path: Union[str, Path], *, fsync: bool = True) -> bool:
    """Remove *path* durably (unlink + directory fsync); True if it existed."""
    path = Path(path)
    maybe_crash("durability.delete.unlink")
    try:
        path.unlink()
        existed = True
    except FileNotFoundError:
        existed = False
    maybe_crash("durability.delete.dirsync")
    if fsync and existed:
        fsync_dir(path.parent)
    if existed:
        get_registry().counter("durability.durable_unlinks").inc()
    return existed


def is_tmp(path: Union[str, Path]) -> bool:
    """Whether *path* is an in-flight tmp artifact of this protocol."""
    return str(path).endswith(TMP_SUFFIX)
