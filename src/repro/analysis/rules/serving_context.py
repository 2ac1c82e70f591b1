"""Serving-context rule: the serving tier's two funnels stay closed.

``docs/SERVING.md`` promises that every request a :class:`LakeServer`
executes (a) runs inside a :func:`~repro.obs.context.request_context`
carrying the tenant — so spans, profiler buckets, events and labeled
metrics attribute the work — and (b) reaches the shared lake only
through the per-tenant ``_guarded`` breaker funnel, so one tenant's
backend-shredding workload gets failed fast instead of burning workers.
Both promises are one refactor away from silently breaking: a handler
that calls ``self.lake.sql(...)`` directly bypasses the breaker, and a
dispatcher that stops opening the context orphans every span recorded
below it.  This rule makes the funnels checkable inside
``repro/serving/``:

- any method call whose receiver chain ends in ``lake`` (``self.lake.…``,
  ``server.lake.…``) must happen lexically inside an argument to a
  ``_guarded(...)`` call; sanctioned raw access lives in ``__init__``,
  the guard implementation itself, or a ``*_unguarded`` helper (the same
  conventions as the ``breaker-guard`` rule);
- any function that dispatches to handlers (references a ``_handle_*``
  attribute or name) must also reference ``request_context`` — the
  dispatcher is the one place the request identity can be opened before
  work fans out;
- every ``request_context(...)`` call in the package must pass a
  ``tenant=`` keyword: an anonymous serving context defeats per-tenant
  attribution, which the fairness benchmark and the quota accounting
  both read.

The lake-funnel half is lexical; ``tests/serving/test_breaker_funnels.py``
checks it by running every op with a tenant's breaker open and
recording which lake methods get called.

Inline ``# lakelint: disable=serving-context`` pragmas and per-file
allowlist budgets remain available for one-off exceptions.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.walker import Module, dotted_name

#: the attribute naming the shared backend a serving handler must guard
LAKE_ATTR = "lake"

#: callables that implement the breaker guard (receiver-agnostic)
GUARD_NAMES = frozenset({"_guarded", "guarded"})

#: function-name suffix marking sanctioned raw lake access
EXEMPT_SUFFIX = "_unguarded"

#: prefix of handler attributes whose dispatcher must open the context
HANDLER_PREFIX = "_handle_"

CONTEXT_OPENER = "request_context"


class _ServingScanner(ast.NodeVisitor):
    """Collects unguarded lake calls and context-less dispatchers."""

    def __init__(self) -> None:
        self.guard_depth = 0   # inside the arguments of a guard call
        self.exempt_depth = 0  # inside __init__ / *_unguarded / the guard
        self.unguarded: List[Tuple[int, str]] = []
        self.bad_context_calls: List[int] = []
        # each frame: [dispatches-to-handlers, references request_context]
        self._frames: List[List] = [[False, False]]
        self.bare_dispatchers: List[Tuple[int, str]] = []

    # -- function frames -------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        exempt = (node.name == "__init__"
                  or node.name.endswith(EXEMPT_SUFFIX)
                  or node.name in GUARD_NAMES)
        self.exempt_depth += exempt
        self._frames.append([False, False])
        self.generic_visit(node)
        dispatches, has_context = self._frames.pop()
        if has_context:
            # an opener referenced in a nested scope counts for the
            # enclosing function too (a `with request_context(...)` body
            # building lambdas is the common shape)
            self._frames[-1][1] = True
        if dispatches and not has_context:
            self.bare_dispatchers.append((node.lineno, node.name))
        self.exempt_depth -= exempt

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- reference tracking ----------------------------------------------------

    def _saw_name(self, name: str) -> None:
        if name.startswith(HANDLER_PREFIX):
            self._frames[-1][0] = True
        if name == CONTEXT_OPENER:
            self._frames[-1][1] = True

    def visit_Name(self, node: ast.Name) -> None:
        self._saw_name(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._saw_name(node.attr)
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value)
            if (receiver is not None
                    and receiver.split(".")[-1] == LAKE_ATTR
                    and self.guard_depth == 0 and self.exempt_depth == 0):
                self.unguarded.append((node.lineno, f"{receiver}.{func.attr}"))
            is_guard = func.attr in GUARD_NAMES
            opener = func.attr == CONTEXT_OPENER
        else:
            is_guard = isinstance(func, ast.Name) and func.id in GUARD_NAMES
            opener = isinstance(func, ast.Name) and func.id == CONTEXT_OPENER
        if opener and not any(kw.arg == "tenant" for kw in node.keywords):
            self.bad_context_calls.append(node.lineno)
        if is_guard:
            self.guard_depth += 1
            self.generic_visit(node)
            self.guard_depth -= 1
        else:
            self.generic_visit(node)


class ServingContextRule(Rule):
    """Serving handlers run in a tenant context and guard all lake calls."""

    name = "serving-context"
    description = ("in repro/serving/, lake method calls (self.lake.…) must "
                   "run inside the _guarded breaker funnel, handler "
                   "dispatchers must open request_context, and every "
                   "request_context(...) call must carry tenant=")
    scope = ("/repro/serving/",)

    def check_module(self, module: Module) -> List[Finding]:
        scanner = _ServingScanner()
        scanner.visit(module.tree)
        findings = [
            self.finding(
                module.rel, lineno,
                f"lake call `{chain}(...)` bypasses the per-tenant circuit "
                f"breaker — route it through _guarded(tenant, ...), or move "
                f"it into a *_unguarded helper if raw access is intentional")
            for lineno, chain in scanner.unguarded
        ]
        findings.extend(
            self.finding(
                module.rel, lineno,
                f"`{name}` dispatches to _handle_* handlers without opening "
                f"a request_context — the request identity (tenant, "
                f"deadline, request id) must be active before handler work "
                f"starts")
            for lineno, name in scanner.bare_dispatchers
        )
        findings.extend(
            self.finding(
                module.rel, lineno,
                "request_context(...) in the serving tier must pass "
                "tenant= — an anonymous context defeats per-tenant "
                "attribution and quota accounting")
            for lineno in scanner.bad_context_calls
        )
        findings.sort(key=lambda f: f.line)
        return findings
