"""Lock-across-blocking rule: no lock is held across a blocking call.

One slow backend call, ``future.result()`` or ``sleep`` under a hot
lock stalls every thread contending for that lock.  The check is
lexical and sees one file at a time:

- an *acquisition* is a ``with`` item naming a lock this file creates —
  a class attribute (``self._lock = threading.Lock()``, an ``RLock`` or
  a ``Condition``) or a module global — or a ``.reading()`` /
  ``.writing()`` call, the runtime's ``ReadWriteLock`` guards.
  ``Semaphore``s are slot budgets, meant to be held across ``submit``,
  and are not locks here;
- a *blocking call* anywhere in the ``with`` body — lambdas included,
  since a thunk handed to a guard runs right there, nested ``def``
  bodies excluded — is ``submit``/``result``/``join``/``wait``/
  ``drain``/``sleep`` (``join`` only on thread-like receivers:
  ``",".join`` is not a synchronization point) or backend/lake I/O, a
  method call on a receiver ending in ``relational``/``document``/
  ``objects``/``lake``;
- ``cv.wait()`` under ``with cv:`` is the condition idiom, not a
  finding.

Lock *order* is not checked statically: the lockset witness
(:mod:`repro.analysis.sanitizer`) observes it on every tier-1 run.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.walker import Module, dotted_name, self_attribute

#: threading factories that create a lock this rule tracks
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: method names that block the calling thread by contract
BLOCKING_METHODS = frozenset({"submit", "result", "join", "wait", "drain",
                              "sleep"})

#: ``.join`` only blocks on thread-like receivers (``",".join`` does not)
JOIN_RECEIVER_HINTS = ("thread", "worker", "pool", "proc")

#: receiver tail attrs that denote backend/lake I/O
IO_RECEIVERS = frozenset({"relational", "document", "objects", "lake"})

#: ReadWriteLock guard methods
RW_METHODS = frozenset({"reading", "writing"})


def _is_lock_factory(value: Optional[ast.expr]) -> bool:
    if isinstance(value, ast.IfExp):
        return _is_lock_factory(value.body) or _is_lock_factory(value.orelse)
    if not isinstance(value, ast.Call):
        return False
    name = dotted_name(value.func) or ""
    return name.rsplit(".", 1)[-1] in LOCK_FACTORIES


def _assignments(root: ast.AST):
    for node in ast.walk(root):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield target, node.value
        elif isinstance(node, ast.AnnAssign):
            yield node.target, node.value


class _Scanner(ast.NodeVisitor):
    """Collects (line, lock label, what blocks) under held locks."""

    def __init__(self, module: Module):
        stem = module.rel.rsplit("/", 1)[-1][:-3]
        #: module-global lock name -> label
        self.globals: Dict[str, str] = {}
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.globals[target.id] = f"{stem}.{target.id}"
        #: lock attribute name -> classes that assign it
        self.attrs: Dict[str, List[str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for target, value in _assignments(node):
                    attr = self_attribute(target)
                    if attr is not None and _is_lock_factory(value):
                        owners = self.attrs.setdefault(attr, [])
                        if node.name not in owners:
                            owners.append(node.name)
        self.cls: Optional[str] = None
        self.held: List[Tuple[str, str]] = []  # (label, with-expression)
        self.hits: List[Tuple[int, str, str]] = []

    # -- scopes ----------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self.cls, self.held
        self.cls, self.held = node.name, []
        self.generic_visit(node)
        self.cls, self.held = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # a nested def runs when called, not under the locks held here
        outer, self.held = self.held, []
        self.generic_visit(node)
        self.held = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            # `with a, b:` acquires b with a already held
            self.visit(item.context_expr)
            acquired = self._acquisition(item.context_expr)
            if acquired is not None:
                self.held.append(acquired)
                pushed += 1
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - pushed:]

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            detail = self._blocking(node)
            if detail:
                for label in dict.fromkeys(label for label, _ in self.held):
                    self.hits.append((node.lineno, label, detail))
        self.generic_visit(node)

    # -- classification --------------------------------------------------------

    def _acquisition(self, expr: ast.expr) -> Optional[Tuple[str, str]]:
        text = dotted_name(expr)
        if isinstance(expr, ast.Name) and expr.id in self.globals:
            return self.globals[expr.id], text
        if isinstance(expr, ast.Attribute) and expr.attr in self.attrs:
            owners = self.attrs[expr.attr]
            owner = self.cls if self.cls in owners else owners[0]
            return f"{owner}.{expr.attr}", text
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in RW_METHODS):
            receiver = dotted_name(expr.func.value) or "<lock>"
            attr = self_attribute(expr.func.value)
            if attr is not None and self.cls is not None:
                return f"{self.cls}.{attr}", receiver
            return receiver, receiver
        return None

    def _blocking(self, node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Attribute):
            callee, receiver = func.attr, dotted_name(func.value)
        elif isinstance(func, ast.Name):
            callee, receiver = func.id, None
        else:
            return ""
        if callee == "join":
            tail = (receiver or "").split(".")[-1].lower()
            if not any(hint in tail for hint in JOIN_RECEIVER_HINTS):
                return ""  # str.join / path join — not a thread join
        if callee in BLOCKING_METHODS:
            if callee == "wait" and receiver is not None and any(
                    text == receiver for _, text in self.held):
                return ""  # cv.wait() releases the condition it waits on
            return (f"blocking call `{receiver}.{callee}(...)`" if receiver
                    else f"blocking call `{callee}(...)`")
        if receiver is not None and receiver.split(".")[-1] in IO_RECEIVERS:
            return f"backend I/O `{receiver}.{callee}(...)`"
        return ""


class LockAcrossBlockingRule(Rule):
    """No tracked lock is held across a blocking call or backend I/O."""

    name = "lock-across-blocking"
    description = ("no threading lock may be held across submit/result/"
                   "join/wait/drain/sleep or backend/lake I/O inside its "
                   "`with` body (lambdas included) — one slow call under a "
                   "hot lock stalls every contending thread")

    def check_module(self, module: Module) -> List[Finding]:
        if not any(word in module.source for word in ("Lock(", "Condition(",
                                                       ".reading(", ".writing(")):
            return []  # nothing in this file can be acquired
        scanner = _Scanner(module)
        scanner.visit(module.tree)
        return [self.finding(module.rel, line, f"holding {label}: {detail}")
                for line, label, detail in dict.fromkeys(scanner.hits)]
