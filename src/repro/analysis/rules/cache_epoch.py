"""Cache-epoch rule: lake discovery answers go through the epoch check.

The query-cache coherence story of ``docs/EXPLORATION.md`` only holds if
every discovery-engine query issued by the :class:`~repro.core.lake.DataLake`
facade flows through its ``_cached()`` funnel — one raw
``self.discovery.related_tables(...)`` in a public method returns an
answer that neither consults the cache nor records the index epoch it was
computed at, silently forking the lake into cached and uncached views of
the same query.  This rule makes the funnel checkable:

- an *engine query call* is any method call whose name is one of the
  discovery/search entry points (``joinable`` / ``related_tables`` /
  ``search`` / ``top_k``) — the receiver does not matter, because the
  engines are routinely re-bound to locals (``engine = self.discovery``);
- the call is compliant when it happens lexically inside an argument to
  ``self._cached(...)`` (the idiom is a lambda thunk) or inside a helper
  named ``*_uncached`` — the explicit convention marking the compute
  side of the funnel, which ``_cached()`` invokes under the epoch it
  just read.

Scoped to the lake facade only: engine modules themselves, tests, and
benchmarks call engines directly by design.  Per-file budgets via the
engine allowlist and inline ``# lakelint: disable=cache-epoch`` pragmas
remain available for one-off exceptions.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.walker import Module

#: discovery/search entry points whose answers must be epoch-keyed
QUERY_METHODS = frozenset({
    "joinable",
    "related_tables",
    "search",
    "top_k",
})

#: the cache funnel callable (receiver-agnostic, idiom is a lambda thunk)
FUNNEL_NAME = "_cached"

#: function-name suffix marking the sanctioned compute side of the funnel
EXEMPT_SUFFIX = "_uncached"


class _Scanner(ast.NodeVisitor):
    """Collects engine query calls made outside the cache funnel."""

    def __init__(self) -> None:
        self.funnel_depth = 0  # inside the arguments of a _cached(...) call
        self.exempt_depth = 0  # inside a *_uncached helper or the funnel itself
        self.hits: List[Tuple[int, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        exempt = (node.name.endswith(EXEMPT_SUFFIX)
                  or node.name == FUNNEL_NAME)
        self.exempt_depth += exempt
        self.generic_visit(node)
        self.exempt_depth -= exempt

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (func.attr in QUERY_METHODS
                    and self.funnel_depth == 0 and self.exempt_depth == 0):
                self.hits.append((node.lineno, func.attr))
            is_funnel = func.attr == FUNNEL_NAME
        else:
            is_funnel = isinstance(func, ast.Name) and func.id == FUNNEL_NAME
        if is_funnel:
            self.funnel_depth += 1
            self.generic_visit(node)
            self.funnel_depth -= 1
        else:
            self.generic_visit(node)


class CacheEpochRule(Rule):
    """Lake engine queries flow through the _cached() epoch funnel."""

    name = "cache-epoch"
    description = ("discovery-engine query calls (joinable/related_tables/"
                   "search/score_*/top_k) in the DataLake facade must run "
                   "inside the _cached() epoch funnel; the compute side "
                   "lives in *_uncached helpers")
    scope = ("/repro/core/lake.py",)

    def check_module(self, module: Module) -> List[Finding]:
        scanner = _Scanner()
        scanner.visit(module.tree)
        return [
            self.finding(
                module.rel, lineno,
                f"engine query `{method}(...)` bypasses the query-cache "
                f"epoch check — route it through self._cached(), or move "
                f"it into a *_uncached compute helper")
            for lineno, method in scanner.hits
        ]
