"""Context-propagation rule: no thread hop may drop the RequestContext.

:mod:`contextvars` follows the logical call flow on one thread but does
**not** cross into pool workers or scheduler threads by itself — a
``pool.submit(fn)`` or ``threading.Thread(target=fn)`` silently severs
the request identity, and every span/metric/event recorded on the far
side becomes unattributable.  The repo's convention (docs/OBSERVABILITY.md)
is an explicit hand-off at every spawn site:

- capture on the submitting thread (:func:`~repro.obs.context.capture_context`,
  or the :func:`~repro.obs.context.with_context` wrapper which captures
  internally);
- re-bind on the receiving thread (:func:`~repro.obs.context.bind_context`).

This rule makes the convention checkable: inside ``repro/runtime/``,
any ``.submit(...)`` call (except ``self.submit`` delegation, which
bottoms out in a capturing leaf) and any ``Thread(...)`` construction
must sit in a function that references one of the hand-off helpers.
Deliberately context-neutral spawns — the scheduler's worker loop,
which re-binds per *job* instead of per thread — carry an inline
``# lakelint: disable=context-propagation`` pragma with a rationale.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.walker import Module, dotted_name

#: referencing any of these inside the spawning function satisfies the rule
PROPAGATION_HELPERS = frozenset({"with_context", "bind_context",
                                 "capture_context"})


def _is_thread_spawn(call: ast.Call) -> bool:
    name = dotted_name(call.func) or ""
    return name == "Thread" or name.endswith(".Thread")


def _is_pool_submit(call: ast.Call) -> Optional[str]:
    """The receiver's dotted name for a non-``self.submit`` call, else None."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
        return None
    receiver = dotted_name(func.value) or "<expr>"
    if receiver == "self":
        return None  # in-class delegation: the leaf submit captures
    return receiver


class _SpawnScanner(ast.NodeVisitor):
    """Collects spawn sites per enclosing function, plus helper references."""

    def __init__(self) -> None:
        # each frame: [spawn list, helper-referenced flag]
        self._frames: List[List] = [[[], False]]
        self.violations: List[Tuple[int, str]] = []

    def _enter(self) -> None:
        self._frames.append([[], False])

    def _leave(self) -> None:
        spawns, satisfied = self._frames.pop()
        if satisfied:
            # a helper referenced in a nested scope (a lambda built right
            # at the submit site) counts for the enclosing function too
            self._frames[-1][1] = True
        if not satisfied:
            self.violations.extend(spawns)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter()
        self.generic_visit(node)
        self._leave()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in PROPAGATION_HELPERS:
            self._frames[-1][1] = True
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in PROPAGATION_HELPERS:
            self._frames[-1][1] = True
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_thread_spawn(node):
            self._frames[-1][0].append(
                (node.lineno, "threading.Thread(...) spawn"))
        else:
            receiver = _is_pool_submit(node)
            if receiver is not None:
                self._frames[-1][0].append(
                    (node.lineno, f"{receiver}.submit(...)"))
        self.generic_visit(node)

    def finish(self) -> List[Tuple[int, str]]:
        spawns, satisfied = self._frames[0]
        if not satisfied:
            self.violations.extend(spawns)
        return sorted(self.violations)


class ContextPropagationRule(Rule):
    """Thread-spawn sites must hand the active RequestContext across."""

    name = "context-propagation"
    description = ("submit/thread-spawn call sites in runtime/ must "
                   "capture-and-restore the active RequestContext "
                   "(with_context / bind_context / capture_context)")
    scope = ("/repro/runtime/",)

    def check_module(self, module: Module) -> List[Finding]:
        scanner = _SpawnScanner()
        scanner.visit(module.tree)
        return [
            self.finding(
                module.rel, lineno,
                f"{what} crosses a thread boundary without propagating the "
                f"RequestContext — capture with with_context/capture_context "
                f"and re-bind with bind_context on the worker")
            for lineno, what in scanner.finish()
        ]
