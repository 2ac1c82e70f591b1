"""Lockset witness: an Eraser-style runtime lock-order check for tests.

While installed, the ``threading.Lock`` / ``threading.RLock`` factories
return delegating wrappers that record, per thread, which witnessed
locks are held whenever another is acquired.  Every (held -> acquired)
pair becomes an edge in the observed lock-order graph; a cycle in that
graph is an **order inversion** — two code paths that take the same
locks in opposite orders, i.e. a deadlock waiting for the right
interleaving.  ``tests/conftest.py`` arms one witness for every test
session and fails the session on an inversion that involves a lock
created under ``src/``.

Design points:

- **identity is the creation site** (``path:line`` of the factory
  call, relative to the witness root), keeping the graph small even
  when tests construct thousands of short-lived instances; each edge
  also keeps the first ``path:line`` that acquired it;
- **re-entrant acquisitions are invisible**: only the 0 -> 1 ownership
  transition of an ``RLock`` records an acquisition, so recursive
  helpers produce no self-edges;
- **a plain ``Lock`` re-acquired by its holding thread** raises
  :class:`SelfDeadlock`, naming the lock's creation site, instead of
  hanging; the attempt is kept, so :meth:`LockSanitizer.assert_clean`
  reports it even if the exception is swallowed;
- ``threading.Condition`` needs no wrapper of its own — its default
  lock comes from the patched ``RLock`` factory, and the wrapper
  implements the private ``_release_save`` / ``_acquire_restore`` /
  ``_is_owned`` protocol, so ``Condition.wait`` correctly shows the
  lock released while waiting (and ``threading.Event``, built on
  ``Condition``, keeps working untouched);
- the collector serializes its bookkeeping with a raw
  ``_thread.allocate_lock()``, so the witness never traces itself;
- per-lock **max-hold-time** is recorded too.

The module needs only the standard library, so ``tests/conftest.py``
can load it by path and arm it before anything imports ``repro``
(whose import creates the process-wide recorder, registry and event
log locks).

Usage::

    witness = LockSanitizer(root=repo_root).install()
    try:
        ...  # run the workload
    finally:
        witness.uninstall()
    witness.assert_clean(under="src/")
"""

from __future__ import annotations

import _thread
import os
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

_THIS_FILE = os.path.abspath(__file__)
_THREADING_FILE = os.path.abspath(threading.__file__)


class SelfDeadlock(RuntimeError):
    """A thread re-acquired a non-reentrant ``Lock`` it already holds."""


def find_cycles(edges: Iterable[Tuple[str, str]]) -> List[List[str]]:
    """One shortest cycle per strongly connected component of the graph
    of directed *edges*.

    Each cycle is an ordered node list ``[a, b, ...]`` (the edge back to
    ``a`` implied) that starts at its component's smallest node, so the
    output is deterministic; a self-loop is a one-node cycle.
    """
    adjacency: Dict[str, List[str]] = {}
    for source, target in edges:
        adjacency.setdefault(source, []).append(target)
        adjacency.setdefault(target, [])
    reach: Dict[str, Set[str]] = {}
    for start in adjacency:
        seen, stack = set(), [start]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[start] = seen
    cycles: List[List[str]] = []
    covered: Set[str] = set()
    for start in sorted(adjacency):
        if start in covered or start not in reach[start]:
            continue
        component = {node for node in reach[start] if start in reach[node]}
        covered |= component
        # breadth-first from start until some node has an edge back to it
        parent: Dict[str, Optional[str]] = {start: None}
        queue = [start]
        for current in queue:
            if start in adjacency[current]:
                break
            for nxt in sorted(adjacency[current]):
                if nxt in component and nxt not in parent:
                    parent[nxt] = current
                    queue.append(nxt)
        cycle = []
        while current is not None:
            cycle.append(current)
            current = parent[current]
        cycles.append(cycle[::-1])
    return cycles


def _caller_site(root: str) -> str:
    """``path:line`` of the nearest frame outside this module and threading.

    Skipping :mod:`threading` attributes a ``Condition()`` (which builds
    its ``RLock`` inside threading.py) to the user code that created it.
    """
    frame = sys._getframe(1)
    while frame is not None:
        filename = os.path.abspath(frame.f_code.co_filename)
        if filename not in (_THIS_FILE, _THREADING_FILE):
            rel = filename
            if rel.startswith(root + os.sep):
                rel = rel[len(root) + 1:]
            return f"{rel.replace(os.sep, '/')}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>:0"


class _Collector:
    """Thread-safe event sink: held stacks, site stats, order edges."""

    def __init__(self, root: str):
        self._root = root
        self._guard = _thread.allocate_lock()  # never a witnessed lock
        self._held: Dict[int, List[Tuple[str, float]]] = {}
        self.sites: Dict[str, Dict[str, Any]] = {}
        #: (held, acquired) -> [count, first acquiring call site]
        self.edges: Dict[Tuple[str, str], List[Any]] = {}
        #: (lock creation site, re-acquiring call site)
        self.self_deadlocks: List[Tuple[str, str]] = []

    def register(self, kind: str) -> str:
        site = _caller_site(self._root)
        with self._guard:
            record = self.sites.setdefault(site, {
                "site": site, "kind": kind, "instances": 0,
                "acquisitions": 0, "max_hold_ms": 0.0})
            record["instances"] += 1
        return site

    def _add_edges_locked(self, stack: List[Tuple[str, float]],
                          site: str) -> None:
        for held_site, _since in stack:
            if held_site != site:
                edge = self.edges.get((held_site, site))
                if edge is None:
                    self.edges[(held_site, site)] = [
                        1, _caller_site(self._root)]
                else:
                    edge[0] += 1

    def on_acquire(self, site: str) -> None:
        now = time.monotonic()
        with self._guard:
            stack = self._held.setdefault(threading.get_ident(), [])
            self.sites[site]["acquisitions"] += 1
            self._add_edges_locked(stack, site)
            stack.append((site, now))

    def on_self_deadlock(self, site: str) -> None:
        with self._guard:
            # the waits this attempt would add are edges too: a callback
            # that re-takes its caller's lock closes a cycle through them
            self._add_edges_locked(
                self._held.get(threading.get_ident(), []), site)
            self.self_deadlocks.append((site, _caller_site(self._root)))

    def on_release(self, site: str, holder: Optional[int]) -> None:
        now = time.monotonic()
        with self._guard:
            stack = self._held.get(holder, ())
            for index in range(len(stack) - 1, -1, -1):
                if stack[index][0] == site:
                    _site, since = stack.pop(index)
                    record = self.sites[site]
                    record["max_hold_ms"] = max(
                        record["max_hold_ms"],
                        round((now - since) * 1000.0, 3))
                    return


class _Traced:
    """Delegation shared by both wrappers."""

    def __init__(self, inner, site: str, collector: _Collector):
        self._inner = inner
        self._site = site
        self._collector = collector

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"<witnessed {self._inner!r} from {self._site}>"


class _TracedLock(_Traced):
    """Plain ``Lock`` wrapper: tracks its holder to catch self-deadlock."""

    def __init__(self, inner, site: str, collector: _Collector):
        super().__init__(inner, site, collector)
        self._owner: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if blocking and timeout < 0 and self._owner == me:
            self._collector.on_self_deadlock(self._site)
            raise SelfDeadlock(
                f"thread re-acquired the non-reentrant Lock created at "
                f"{self._site} while holding it")
        if not self._inner.acquire(blocking, timeout):
            return False
        self._owner = me
        self._collector.on_acquire(self._site)
        return True

    def release(self) -> None:
        # a plain Lock may be released by another thread (handoff): the
        # hold ends on the holder's stack, not the releaser's
        holder, self._owner = self._owner, None
        self._inner.release()
        self._collector.on_release(self._site, holder)

    def _at_fork_reinit(self) -> None:
        self._inner._at_fork_reinit()
        self._owner = None


class _TracedRLock(_Traced):
    """RLock wrapper speaking ``Condition``'s private lock protocol."""

    def __init__(self, inner, site: str, collector: _Collector):
        super().__init__(inner, site, collector)
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            # only the owner gets here while depth > 0
            self._depth += 1
            if self._depth == 1:
                self._collector.on_acquire(self._site)
        return acquired

    def release(self) -> None:
        depth = self._depth
        self._inner.release()  # raises if not owned — before our bookkeeping
        self._depth = depth - 1
        if depth == 1:
            self._collector.on_release(self._site, threading.get_ident())

    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self):
        state = self._inner._release_save()  # drops all recursion levels
        depth, self._depth = self._depth, 0
        self._collector.on_release(self._site, threading.get_ident())
        return (state, depth)

    def _acquire_restore(self, saved) -> None:
        state, depth = saved
        self._inner._acquire_restore(state)
        self._depth = depth
        self._collector.on_acquire(self._site)

    def _at_fork_reinit(self) -> None:
        self._inner._at_fork_reinit()
        self._depth = 0


class LockSanitizer:
    """Patches the ``threading`` lock factories and collects the report."""

    def __init__(self, root: Optional[str] = None):
        self.root = os.path.abspath(root or os.getcwd())
        self._original_lock = None
        self._original_rlock = None
        self.collector = _Collector(self.root)

    # -- install / uninstall -----------------------------------------------------

    @property
    def installed(self) -> bool:
        return self._original_lock is not None

    def install(self) -> "LockSanitizer":
        if self.installed:
            return self
        self._original_lock = original_lock = threading.Lock
        self._original_rlock = original_rlock = threading.RLock
        collector = self.collector

        def make_lock():
            return _TracedLock(original_lock(), collector.register("Lock"),
                               collector)

        def make_rlock():
            return _TracedRLock(original_rlock(), collector.register("RLock"),
                                collector)

        threading.Lock = make_lock
        threading.RLock = make_rlock
        return self

    def uninstall(self) -> None:
        if not self.installed:
            return
        threading.Lock = self._original_lock
        threading.RLock = self._original_rlock
        self._original_lock = None
        self._original_rlock = None

    def __enter__(self) -> "LockSanitizer":
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------------

    def inversions(self, under: str = "") -> List[List[str]]:
        """Cycles in the observed lock-order graph (deadlock candidates)
        that involve a lock whose creation site starts with *under*."""
        return [cycle for cycle in find_cycles(list(self.collector.edges))
                if any(node.startswith(under) for node in cycle)]

    def self_deadlocks(self, under: str = "") -> List[Tuple[str, str]]:
        """(lock site, call site) per re-acquisition of a held plain Lock."""
        return [entry for entry in self.collector.self_deadlocks
                if entry[0].startswith(under)]

    def report(self) -> Dict[str, Any]:
        collector = self.collector
        inversions = self.inversions()
        self_deadlocks = self.self_deadlocks()
        return {
            "locks": sorted(collector.sites.values(),
                            key=lambda rec: rec["site"]),
            "edges": [{"held": held, "acquired": acquired, "count": count,
                       "site": site}
                      for (held, acquired), (count, site)
                      in sorted(collector.edges.items())],
            "inversions": inversions,
            "self_deadlocks": [list(entry) for entry in self_deadlocks],
            "clean": not inversions and not self_deadlocks,
        }

    def summary(self, under: str = "") -> str:
        """One line: lock sites, order edges and findings, with the
        share under *under*."""
        sites, edges = list(self.collector.sites), list(self.collector.edges)
        inside = sum(a.startswith(under) and b.startswith(under)
                     for a, b in edges)
        return (f"lockset witness: {len(sites)} lock sites "
                f"({sum(site.startswith(under) for site in sites)} under "
                f"{under or '.'}), {len(edges)} order edges ({inside} within), "
                f"{len(self.inversions(under))} inversion(s), "
                f"{len(self.self_deadlocks(under))} self-deadlock(s)")

    def assert_clean(self, under: str = "") -> None:
        """Raise on any inversion or self-deadlock involving *under*."""
        problems = []
        edges = self.collector.edges
        for cycle in self.inversions(under):
            steps = [f"{held} -> {acquired} (at {edges[(held, acquired)][1]})"
                     for held, acquired in zip(cycle, cycle[1:] + cycle[:1])
                     if (held, acquired) in edges]
            problems.append("inversion " + "; ".join(steps))
        for site, call in self.self_deadlocks(under):
            problems.append(f"self-deadlock: Lock created at {site} "
                            f"re-acquired by its holder at {call}")
        if problems:
            raise AssertionError(
                f"lockset witness observed {len(problems)} lock-order "
                f"problem(s): " + " | ".join(problems))
