"""Breaker-guarded rule: cross-backend calls go through the circuit guard.

The degraded-mode story of ``docs/FAULTS.md`` only holds if every
cross-backend call inside the polystore and the federation engine funnels
through the breaker guard — one raw ``self.relational.scan(...)`` is a
query path that bypasses failover and keeps hammering a dead backend.
This rule makes the funnel checkable:

- a *cross-backend call* is any method call whose receiver chain ends in
  a backend attribute (``self.relational.…``, ``self.polystore.document.…``,
  for the backends ``relational`` / ``document`` / ``graph`` / ``objects``);
- the call is compliant when it happens lexically inside an argument to a
  guard call (``self._guarded(...)`` / ``polystore.guarded(...)`` — the
  idiom is a lambda thunk), or inside one of the sanctioned raw-access
  contexts: ``__init__`` (constructor wiring, no traffic yet), the guard
  implementation itself, or a helper named ``*_unguarded`` (the explicit
  allowlist convention for intentional raw access, e.g. the fallback tier
  that must be reachable even while breakers reject traffic).

The check is lexical.  That every public storage entry point —
``core/lake.py`` included, outside this rule's scope — really stops at
an open breaker is checked by running it:
``tests/storage/test_breaker_funnels.py`` opens the relational breaker
and counts backend calls.

Per-file budgets via the engine allowlist and inline
``# lakelint: disable=breaker-guard`` pragmas remain available for
one-off exceptions.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.walker import Module, dotted_name

#: backend attributes whose method calls must be guarded
BACKEND_ATTRS = frozenset({"relational", "document", "graph", "objects"})

#: callables that implement the breaker guard (receiver-agnostic)
GUARD_NAMES = frozenset({"_guarded", "guarded"})

#: function-name suffix marking sanctioned raw access
EXEMPT_SUFFIX = "_unguarded"


class _Scanner(ast.NodeVisitor):
    """Collects unguarded cross-backend calls with their receiver chains."""

    def __init__(self) -> None:
        self.guard_depth = 0   # inside the arguments of a guard call
        self.exempt_depth = 0  # inside __init__ / *_unguarded / the guard itself
        self.hits: List[Tuple[int, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        exempt = (node.name == "__init__"
                  or node.name.endswith(EXEMPT_SUFFIX)
                  or node.name in GUARD_NAMES)
        self.exempt_depth += exempt
        self.generic_visit(node)
        self.exempt_depth -= exempt

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value)
            if (receiver is not None
                    and receiver.split(".")[-1] in BACKEND_ATTRS
                    and self.guard_depth == 0 and self.exempt_depth == 0):
                self.hits.append((node.lineno, f"{receiver}.{func.attr}"))
            is_guard = func.attr in GUARD_NAMES
        else:
            is_guard = isinstance(func, ast.Name) and func.id in GUARD_NAMES
        if is_guard:
            self.guard_depth += 1
            self.generic_visit(node)
            self.guard_depth -= 1
        else:
            self.generic_visit(node)


class BreakerGuardRule(Rule):
    """Cross-backend calls in polystore/federation use the breaker guard."""

    name = "breaker-guard"
    description = ("backend method calls (self.relational/.document/.graph/"
                   ".objects) in the polystore and federation engine must run "
                   "inside the _guarded/guarded breaker funnel; intentional "
                   "raw access lives in *_unguarded helpers or __init__")
    scope = ("/repro/storage/polystore.py", "/repro/exploration/federation.py")

    def check_module(self, module: Module) -> List[Finding]:
        scanner = _Scanner()
        scanner.visit(module.tree)
        return [
            self.finding(
                module.rel, lineno,
                f"cross-backend call `{chain}(...)` bypasses the circuit "
                f"breaker — route it through _guarded()/guarded(), or move "
                f"it into a *_unguarded helper if raw access is intentional")
            for lineno, chain in scanner.hits
        ]
