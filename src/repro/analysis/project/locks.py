"""Static lock-order and lock-across-blocking analysis over the call graph.

Built on :class:`~repro.analysis.project.model.ProjectModel`, this module
answers two questions the per-file rules cannot:

1. **Can the repo deadlock?**  Every lexical ``with``-acquisition of a
   tracked lock (``threading.Lock``/``RLock``/``Condition`` attributes,
   module-level locks, the runtime :class:`ReadWriteLock` via
   ``.reading()``/``.writing()``, and guard-returning helpers like
   ``maintainer.reading()``) is collected with the set of locks already
   held at that point.  Acquisition effects propagate transitively along
   the call graph, producing a directed *lock-order graph*: an edge
   ``A → B`` means B is (possibly transitively) acquired while A is
   held.  A cycle in that graph is a potential deadlock; each edge
   carries a ``file:line`` witness so the report is actionable.

2. **Is a lock ever held across a blocking call?**  Blocking is a
   by-name primitive set (``submit``/``result``/``join``/``wait``/
   ``drain``/``sleep``), backend I/O (calls resolving into the
   polystore / backend engines / the ``DataLake`` facade, or raw
   ``self.lake.…`` / ``….relational.…``-style receivers), propagated
   transitively (``may_block``).  Holding a tracked lock at such a call
   starves every thread contending for that lock on one slow I/O.

Deliberate non-findings, matching how the repo's concurrency is designed:

- ``Semaphore``/``BoundedSemaphore`` are **not** tracked locks: a
  slot semaphore is a concurrency budget, *meant* to be held across
  ``pool.submit``/``future.result``.
- Re-entrant kinds (``RLock``, default ``Condition``) do not self-edge:
  ``engine() → refresh()`` re-entering ``self._lock`` is the design.
  A plain ``Lock`` or ReadWriteLock self-edge *is* reported
  (self-deadlock / writer-preference read-under-read).
- ``cv.wait()`` while holding exactly that condition is the condition
  idiom, not a finding — but the function still counts as blocking for
  its callers.
- Lock-class internals (the Condition inside ``ReadWriteLock``) are
  opaque: the RW lock is modeled as one lock, not as its machinery.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.project.model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)
from repro.analysis.walker import dotted_name

#: threading factories that create a tracked lock, by resulting kind
LOCK_FACTORY_KINDS = {"Lock": "Lock", "RLock": "RLock", "Condition": "Condition"}

#: factories excluded by design (slot accounting is held across blocking calls)
EXCLUDED_FACTORIES = frozenset({"Semaphore", "BoundedSemaphore"})

#: kinds a thread may re-acquire without deadlocking against itself
REENTRANT_KINDS = frozenset({"RLock", "Condition"})

#: method names that block the calling thread by contract
BLOCKING_METHODS = frozenset({"submit", "result", "join", "wait", "drain",
                              "sleep"})

#: ``.join`` only blocks on thread-like receivers (``",".join`` does not)
JOIN_RECEIVER_HINTS = ("thread", "worker", "pool", "proc")

#: receiver tail attrs that denote backend/lake I/O when resolution fails
IO_RECEIVERS = frozenset({"relational", "document", "objects", "lake"})

#: modules whose functions are backend/lake I/O by construction
IO_MODULE_SUFFIXES = (
    "/repro/storage/polystore.py", "/repro/storage/relational.py",
    "/repro/storage/document.py", "/repro/storage/graph.py",
    "/repro/storage/object_store.py", "/repro/core/lake.py",
    "/repro/exploration/federation.py",
)

#: ReadWriteLock-style acquisition methods, by mode
RW_READ_METHODS = frozenset({"reading", "acquire_read"})
RW_WRITE_METHODS = frozenset({"writing", "acquire_write"})


@dataclass(frozen=True)
class LockId:
    """One static lock: the (class or module) that declares it, and where."""

    owner: str  # declaring class qualname, or module name for globals
    attr: str
    kind: str   # Lock | RLock | Condition | ReadWriteLock
    path: str
    line: int

    @property
    def label(self) -> str:
        return f"{self.owner.rsplit('.', 1)[-1]}.{self.attr}"

    @property
    def reentrant(self) -> bool:
        return self.kind in REENTRANT_KINDS

    def to_dict(self) -> Dict[str, object]:
        return {"owner": self.owner, "attr": self.attr, "kind": self.kind,
                "declared_at": f"{self.path}:{self.line}"}


@dataclass(frozen=True)
class Acquisition:
    """One lock acquired at a site, with what was already held there."""

    lock: LockId
    mode: str   # exclusive | read | write
    path: str
    line: int


@dataclass(frozen=True)
class LockEdge:
    """``held → acquired`` with a human-readable ``file:line`` witness."""

    held: LockId
    acquired: LockId
    witness: str

    def describe(self) -> str:
        return (f"{self.held.label} -> {self.acquired.label} ({self.witness})")


def find_cycles(graph: Dict[object, Iterable[object]]) -> List[List[object]]:
    """Simple cycles covering every strongly connected component of *graph*.

    Returns one representative cycle per non-trivial SCC plus every
    self-loop, each as an ordered node list ``[a, b, ..., a-implied]``.
    Shared by the static analysis and the dynamic sanitizer so both
    report deadlock candidates identically.
    """
    order: Dict[object, int] = {}
    low: Dict[object, int] = {}
    on_stack: Set[object] = set()
    stack: List[object] = []
    sccs: List[List[object]] = []
    counter = [0]
    adjacency = {node: sorted(set(graph.get(node, ())), key=str)
                 for node in graph}

    def strongconnect(root: object) -> None:
        work = [(root, iter(adjacency.get(root, ())))]
        order[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbours = work[-1]
            advanced = False
            for nxt in neighbours:
                if nxt not in order:
                    order[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], order[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)

    for node in sorted(adjacency, key=str):
        if node not in order:
            strongconnect(node)

    cycles: List[List[object]] = []
    for component in sccs:
        members = sorted(set(component), key=str)
        if len(members) == 1:
            node = members[0]
            if node in adjacency.get(node, ()):
                cycles.append([node])
            continue
        # walk one simple cycle inside the SCC, smallest node first
        start = members[0]
        member_set = set(members)
        path = [start]
        seen = {start}
        node = start
        while True:
            nxt = next((n for n in adjacency.get(node, ())
                        if n in member_set and (n == start or n not in seen)),
                       None)
            if nxt is None or nxt == start:
                break
            path.append(nxt)
            seen.add(nxt)
            node = nxt
        cycles.append(path)
    return cycles


def _thread_like(receiver: Optional[str]) -> bool:
    if receiver is None:
        return False
    tail = receiver.split(".")[-1].lower()
    return any(hint in tail for hint in JOIN_RECEIVER_HINTS)


# -- per-function lexical summaries -------------------------------------------------


class _Held:
    __slots__ = ("lock", "expr", "line")

    def __init__(self, lock: LockId, expr: str, line: int):
        self.lock = lock
        self.expr = expr
        self.line = line


class _Event:
    """One lexical event: an acquisition, a blocking site, or a call."""

    __slots__ = ("kind", "line", "held", "lock", "mode", "target", "detail")

    def __init__(self, kind: str, line: int, held: Tuple[LockId, ...],
                 lock: Optional[LockId] = None, mode: str = "exclusive",
                 target: Optional[FunctionInfo] = None, detail: str = ""):
        self.kind = kind      # "acquire" | "block" | "call"
        self.line = line
        self.held = held
        self.lock = lock
        self.mode = mode
        self.target = target
        self.detail = detail


class LockAnalysis:
    """Runs the whole-program lock analysis; query the result fields."""

    def __init__(self, model: ProjectModel):
        self.model = model
        self.locks: Dict[Tuple[str, str], LockId] = {}
        self.lock_classes: Set[str] = set()
        #: directed lock-order graph with one witness per edge
        self.edges: Dict[Tuple[LockId, LockId], LockEdge] = {}
        #: self-acquisition findings: (lock, path, line, message)
        self.self_deadlocks: List[Tuple[LockId, str, int, str]] = []
        #: blocking-while-holding findings: (lock, path, line, description)
        self.blocking: List[Tuple[LockId, str, int, str]] = []
        self.cycles: List[List[LockId]] = []
        self._events: Dict[FunctionInfo, List[_Event]] = {}
        self._effects: Dict[FunctionInfo, Set[Acquisition]] = {}
        self._may_block: Dict[FunctionInfo, str] = {}
        self._guards_memo: Dict[FunctionInfo, Tuple[Tuple[LockId, str], ...]] = {}

    # -- entry point -------------------------------------------------------------

    def run(self) -> "LockAnalysis":
        self._collect_lock_classes()
        self._collect_locks()
        for fn in self.model.functions.values():
            if not self._opaque(fn):
                self._events[fn] = self._summarize(fn)
        self._fix_effects()
        self._fix_may_block()
        self._emit()
        graph = {lock: set() for lock in self.locks.values()}
        for (held, acquired), _edge in self.edges.items():
            graph.setdefault(held, set()).add(acquired)
        self.cycles = [list(c) for c in find_cycles(graph)]
        return self

    def graph_dict(self) -> Dict[str, List[str]]:
        """The lock-order graph keyed by lock labels (stable, JSON-ready)."""
        out: Dict[str, List[str]] = {}
        for (held, acquired) in self.edges:
            out.setdefault(held.label, []).append(acquired.label)
        return {k: sorted(v) for k, v in sorted(out.items())}

    # -- lock discovery ----------------------------------------------------------

    def _collect_lock_classes(self) -> None:
        for ci in self.model.classes.values():
            names = set(ci.methods)
            if ({"acquire_read", "acquire_write"} <= names
                    or {"reading", "writing"} <= names):
                self.lock_classes.add(ci.qualname)

    def _collect_locks(self) -> None:
        for ci in self.model.classes.values():
            if ci.qualname in self.lock_classes:
                continue  # lock-class internals are opaque machinery
            for attr, value, line, _method in ci.attr_assigns:
                kind = self._lock_kind(value, ci.module)
                if kind is not None:
                    self.locks.setdefault(
                        (ci.qualname, attr),
                        LockId(ci.qualname, attr, kind, ci.module.rel, line))
        for mod in self.model.modules:
            for node in mod.module.tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                kind = self._lock_kind(node.value, mod)
                if kind is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.locks.setdefault(
                            (mod.modname, target.id),
                            LockId(mod.modname, target.id, kind, mod.rel,
                                   node.lineno))

    def _lock_kind(self, value: ast.expr, mod: ModuleInfo) -> Optional[str]:
        if isinstance(value, ast.IfExp):
            return (self._lock_kind(value.body, mod)
                    or self._lock_kind(value.orelse, mod))
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        if name is None:
            return None
        base = name.rsplit(".", 1)[-1]
        if base in EXCLUDED_FACTORIES:
            return None
        if base in LOCK_FACTORY_KINDS:
            return LOCK_FACTORY_KINDS[base]
        ci = self.model._resolve_class_by_name(name, mod)
        if ci is not None and ci.qualname in self.lock_classes:
            return "ReadWriteLock"
        return None

    # -- lexical summaries -------------------------------------------------------

    def _opaque(self, fn: FunctionInfo) -> bool:
        return fn.cls is not None and fn.cls.qualname in self.lock_classes

    def _summarize(self, fn: FunctionInfo) -> List[_Event]:
        events: List[_Event] = []
        held: List[_Held] = []
        nested_by_node = {child.node: (child, deferred)
                          for child, deferred in fn.nested}

        def held_ids() -> Tuple[LockId, ...]:
            return tuple(h.lock for h in held)

        def visit(node: ast.AST) -> None:
            if node in nested_by_node or (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)) and node is not fn.node):
                entry = nested_by_node.get(node)
                if entry is not None:
                    child, deferred = entry
                    if not deferred:
                        events.append(_Event("call", node.lineno, held_ids(),
                                             target=child,
                                             detail=f"nested `{child.name}`"))
                return  # nested bodies are their own functions
            if isinstance(node, (ast.With, ast.AsyncWith)):
                pushed = 0
                for item in node.items:
                    # evaluate the item's expression under what is held so
                    # far (`with a, b:` acquires b with a already held)
                    visit(item.context_expr)
                    for lock, mode, expr in self._classify_withitem(
                            fn, item.context_expr):
                        events.append(_Event("acquire", item.context_expr.lineno,
                                             held_ids(), lock=lock, mode=mode))
                        held.append(_Held(lock, expr, item.context_expr.lineno))
                        pushed += 1
                for stmt in node.body:
                    visit(stmt)
                del held[len(held) - pushed:]
                return
            if isinstance(node, ast.Call):
                self._summarize_call(fn, node, held, held_ids(), events)
            for child in ast.iter_child_nodes(node):
                visit(child)

        for child in ast.iter_child_nodes(fn.node):
            visit(child)
        return events

    def _summarize_call(self, fn: FunctionInfo, node: ast.Call,
                        held: List[_Held], held_now: Tuple[LockId, ...],
                        events: List[_Event]) -> None:
        func = node.func
        callee_name = (func.attr if isinstance(func, ast.Attribute)
                       else func.id if isinstance(func, ast.Name) else "")
        receiver = (dotted_name(func.value)
                    if isinstance(func, ast.Attribute) else None)
        target = fn.targets.get(id(node))

        blocked = ""
        if callee_name == "join" and not _thread_like(receiver):
            pass  # str.join / path join — not a thread join
        elif callee_name in BLOCKING_METHODS:
            if callee_name == "wait" and receiver is not None and any(
                    h.expr == receiver for h in held):
                # cv.wait() under `with cv:` releases the condition — the
                # idiom, not a hazard; still blocking for callers
                events.append(_Event("block", node.lineno, (),
                                     detail=f"`{receiver}.wait()` (condition idiom)"))
            else:
                blocked = (f"blocking call `{receiver}.{callee_name}(...)`"
                           if receiver else f"blocking call `{callee_name}(...)`")
        elif receiver is not None and receiver.split(".")[-1] in IO_RECEIVERS:
            blocked = f"backend I/O `{receiver}.{callee_name}(...)`"
        elif target is not None and self._is_io_function(target):
            blocked = (f"backend/lake I/O via "
                       f"`{target.qualname.rsplit('.', 2)[-1]}` "
                       f"({target.module.rel}:{target.lineno})")
        if blocked:
            events.append(_Event("block", node.lineno, held_now,
                                 detail=blocked))
        if target is not None and not self._opaque(target):
            events.append(_Event("call", node.lineno, held_now, target=target,
                                 detail=f"call to `{target.qualname}`"))
        elif isinstance(func, ast.Name) and func.id in fn.param_targets:
            # calling a callback parameter: every function bound to it at
            # a known call site may run right here, under what we hold
            for bound in fn.param_targets[func.id]:
                if not self._opaque(bound):
                    events.append(_Event("call", node.lineno, held_now,
                                         target=bound,
                                         detail=f"callback `{func.id}`"))

    def _is_io_function(self, fn: FunctionInfo) -> bool:
        probe = "/" + fn.module.rel
        return any(probe.endswith(suffix) for suffix in IO_MODULE_SUFFIXES)

    # -- with-item / guard classification ----------------------------------------

    def _classify_withitem(self, fn: FunctionInfo, expr: ast.expr,
                           ) -> List[Tuple[LockId, str, str]]:
        """(lock, mode, receiver-expr-string) acquisitions for one item."""
        dotted = dotted_name(expr)
        if dotted is not None:
            lock = self._lock_for_chain(fn, expr)
            return [(lock, "exclusive", dotted)] if lock is not None else []
        if not isinstance(expr, ast.Call):
            return []
        func = expr.func
        if isinstance(func, ast.Attribute):
            base = dotted_name(func.value)
            if base is not None:
                lock = self._lock_for_chain(fn, func.value)
                if lock is not None and lock.kind == "ReadWriteLock":
                    if func.attr in RW_READ_METHODS:
                        return [(lock, "read", base)]
                    if func.attr in RW_WRITE_METHODS:
                        return [(lock, "write", base)]
        target = fn.targets.get(id(expr))
        if target is not None:
            return [(lock, mode, dotted_name(func) or "<guard>")
                    for lock, mode in self._returned_guards(target)]
        return []

    def _lock_for_chain(self, fn: FunctionInfo,
                        expr: ast.expr) -> Optional[LockId]:
        """LockId for ``self._lock`` / ``self.a._lock`` / module ``_LOCK``."""
        if isinstance(expr, ast.Name):
            return self.locks.get((fn.module.modname, expr.id))
        if not isinstance(expr, ast.Attribute):
            return None
        owner = self.model._owner_class(fn, expr.value)
        if owner is None:
            return None
        for ci in self._mro(owner):
            lock = self.locks.get((ci.qualname, expr.attr))
            if lock is not None:
                return lock
        return None

    def _mro(self, ci: ClassInfo) -> List[ClassInfo]:
        out, queue, seen = [], [ci], set()
        while queue:
            cur = queue.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            out.append(cur)
            queue.extend(cur.bases)
        return out

    def _returned_guards(self, fn: FunctionInfo,
                         _depth: int = 0) -> Tuple[Tuple[LockId, str], ...]:
        """Locks a call to *fn* hands back as a context manager."""
        if fn in self._guards_memo:
            return self._guards_memo[fn]
        if _depth > 6:
            return ()
        self._guards_memo[fn] = ()  # recursion guard
        found: List[Tuple[LockId, str]] = []
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not fn.node:
                continue
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            for expr in ([node.value.body, node.value.orelse]
                         if isinstance(node.value, ast.IfExp)
                         else [node.value]):
                found.extend(self._guard_expr(fn, expr, _depth))
        self._guards_memo[fn] = tuple(dict.fromkeys(found))
        return self._guards_memo[fn]

    def _guard_expr(self, fn: FunctionInfo, expr: ast.expr,
                    depth: int) -> List[Tuple[LockId, str]]:
        if isinstance(expr, ast.Attribute):
            lock = self._lock_for_chain(fn, expr)
            return [(lock, "exclusive")] if lock is not None else []
        if not isinstance(expr, ast.Call):
            return []
        name = dotted_name(expr.func) or ""
        if name.rsplit(".", 1)[-1] == "nullcontext":
            return []
        func = expr.func
        if isinstance(func, ast.Attribute):
            lock = self._lock_for_chain(fn, func.value)
            if lock is not None and lock.kind == "ReadWriteLock":
                if func.attr in RW_READ_METHODS:
                    return [(lock, "read")]
                if func.attr in RW_WRITE_METHODS:
                    return [(lock, "write")]
        target = fn.targets.get(id(expr))
        if target is not None:
            return list(self._returned_guards(target, depth + 1))
        return []

    # -- fixpoints ---------------------------------------------------------------

    def _fix_effects(self) -> None:
        for fn, events in self._events.items():
            self._effects[fn] = {
                Acquisition(e.lock, e.mode, fn.module.rel, e.line)
                for e in events if e.kind == "acquire" and e.lock is not None}
        changed = True
        while changed:
            changed = False
            for fn, events in self._events.items():
                mine = self._effects[fn]
                before = len(mine)
                for event in events:
                    if event.kind == "call" and event.target in self._effects:
                        mine |= self._effects[event.target]
                if len(mine) != before:
                    changed = True

    def _fix_may_block(self) -> None:
        for fn, events in self._events.items():
            local = next((e.detail for e in events if e.kind == "block"), "")
            if local:
                self._may_block[fn] = local
        changed = True
        while changed:
            changed = False
            for fn, events in self._events.items():
                if fn in self._may_block:
                    continue
                for event in events:
                    if event.kind == "call" and event.target in self._may_block:
                        reason = (f"calls `{event.target.qualname}` "
                                  f"({event.target.module.rel}:"
                                  f"{event.target.lineno}) which may block: "
                                  f"{self._may_block[event.target]}")
                        self._may_block[fn] = reason
                        changed = True
                        break

    # -- edge and finding emission -------------------------------------------------

    def _emit(self) -> None:
        for fn, events in self._events.items():
            rel = fn.module.rel
            for event in events:
                if event.kind == "acquire" and event.lock is not None:
                    self._emit_acquire(rel, event)
                elif event.kind == "call" and event.held and event.target:
                    self._emit_call(fn, rel, event)
                    reason = self._may_block.get(event.target)
                    if reason is not None:
                        for holder in dict.fromkeys(event.held):
                            self.blocking.append((
                                holder, rel, event.line,
                                f"holding {holder.label}: {reason}"))
                elif event.kind == "block" and event.held:
                    for holder in dict.fromkeys(event.held):
                        self.blocking.append((
                            holder, rel, event.line,
                            f"holding {holder.label}: {event.detail}"))

    def _emit_acquire(self, rel: str, event: _Event) -> None:
        acquired = event.lock
        for holder in dict.fromkeys(event.held):
            if holder == acquired:
                if not acquired.reentrant:
                    why = ("re-acquiring non-reentrant "
                           if acquired.kind == "Lock"
                           else "nested acquisition of writer-preferring ")
                    self.self_deadlocks.append((
                        acquired, rel, event.line,
                        f"{why}{acquired.kind} {acquired.label} while "
                        f"already held"))
                continue
            self._add_edge(holder, acquired, f"{rel}:{event.line}")

    def _emit_call(self, fn: FunctionInfo, rel: str, event: _Event) -> None:
        target_effects = self._effects.get(event.target, ())
        for acq in target_effects:
            for holder in dict.fromkeys(event.held):
                if holder == acq.lock:
                    if not holder.reentrant:
                        self.self_deadlocks.append((
                            holder, rel, event.line,
                            f"call to `{event.target.qualname}` re-acquires "
                            f"non-reentrant {holder.kind} {holder.label} "
                            f"(acquired at {acq.path}:{acq.line}) while held"))
                    continue
                self._add_edge(
                    holder, acq.lock,
                    f"{rel}:{event.line} via `{event.target.qualname}` "
                    f"acquiring at {acq.path}:{acq.line}")

    def _add_edge(self, held: LockId, acquired: LockId, witness: str) -> None:
        key = (held, acquired)
        if key not in self.edges:
            self.edges[key] = LockEdge(held, acquired, witness)

    # -- reporting ---------------------------------------------------------------

    def cycle_reports(self) -> List[Tuple[str, int, str]]:
        """(path, line, message) per deadlock candidate, deterministic order."""
        reports: List[Tuple[str, int, str]] = []
        for cycle in self.cycles:
            steps = []
            anchor: Optional[Tuple[str, int]] = None
            for i, lock in enumerate(cycle):
                succ = cycle[(i + 1) % len(cycle)]
                edge = self.edges.get((lock, succ))
                if edge is None:
                    continue
                steps.append(edge.describe())
                if anchor is None:
                    site = edge.witness.split(" ", 1)[0]
                    path, _, line = site.partition(":")
                    anchor = (path, int(line) if line.isdigit() else 0)
            path, line = anchor if anchor else (cycle[0].path, cycle[0].line)
            labels = " -> ".join(lock.label for lock in cycle)
            reports.append((path, line,
                            f"lock-order cycle (potential deadlock): "
                            f"{labels} -> {cycle[0].label}; "
                            f"{'; '.join(steps)}"))
        for lock, path, line, message in self.self_deadlocks:
            reports.append((path, line, message))
        return sorted(set(reports))

    def blocking_reports(self) -> List[Tuple[str, int, str]]:
        return sorted({(path, line, message)
                       for _lock, path, line, message in self.blocking})
