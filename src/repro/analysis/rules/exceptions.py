"""Exception-handling hygiene rules.

- :class:`BareExceptRule` — the strict src-tree rule: a handler that
  catches everything and does not re-raise swallows real bugs, full
  stop.  Sanctioned broad catches are budgeted per file via the
  allowlist.
- :class:`ExceptionHygieneRule` — the v2 rule for the whole scanned tree
  (benchmarks and tools included): a broad handler is tolerable only when
  the failure stays *observable* — the body re-raises, logs, or counts
  the error in a metric.  Genuinely intentional silent containment gets
  an inline ``# lakelint: disable=exception-hygiene`` pragma.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.walker import (
    Module,
    broad_exception_names,
    dotted_name,
    handler_reraises,
)

#: call names whose presence in a handler body counts as "the error is logged"
LOG_NAMES = frozenset({
    "log", "debug", "info", "warning", "warn", "error", "exception",
    "critical", "fail", "print",
})

#: method names whose presence counts as "the error is counted in a metric"
METRIC_NAMES = frozenset({"inc", "incr", "dec", "observe"})


def _broad_handlers(module: Module):
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and broad_exception_names(node):
            yield node


def _handler_observes_failure(handler: ast.ExceptHandler) -> bool:
    """Re-raises, logs, or increments a metric somewhere in the body?"""
    if handler_reraises(handler):
        return True
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            base = name.rsplit(".", 1)[-1] if name else ""
            if base in LOG_NAMES or base in METRIC_NAMES:
                return True
    return False


class BareExceptRule(Rule):
    """No swallow-everything ``except`` handlers under ``src/repro``."""

    name = "bare-except"
    description = ("handlers catching Exception/BaseException (or nothing) "
                   "under src/ must re-raise; sanctioned catches are "
                   "allowlisted per file")
    scope = ("/repro/",)

    #: path suffix -> number of sanctioned broad handlers in that file.
    #: Add an entry only with a comment saying why the broad catch is correct.
    DEFAULT_ALLOWLIST = {
        # the scheduler's worker loop routes *any* job failure into the
        # retry/dead-letter machinery; letting exceptions escape would kill
        # the worker thread and wedge drain()
        "repro/runtime/scheduler.py": 1,
        # the serving dispatcher is the typed-response boundary: every
        # failure (counted in serving.errors and emitted to the flight
        # recorder) must become a ServingResponse, never a raw exception
        # surfacing through future.result()
        "repro/serving/server.py": 1,
    }
    allowlist = DEFAULT_ALLOWLIST

    def check_module(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        for handler in _broad_handlers(module):
            if handler_reraises(handler):
                continue  # containment that re-raises is not swallowing
            caught = "Exception" if handler.type is not None else ""
            findings.append(self.finding(
                module.rel, handler.lineno,
                f"broad `except {caught}` swallows errors — catch the "
                f"specific exception or re-raise"))
        return findings


class ExceptionHygieneRule(Rule):
    """Broad handlers must keep the failure observable (log/raise/count)."""

    name = "exception-hygiene"
    description = ("`except Exception` bodies must re-raise, log, or count "
                   "the failure in a metric — silent containment needs an "
                   "inline disable pragma")

    def check_module(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        for handler in _broad_handlers(module):
            if _handler_observes_failure(handler):
                continue
            findings.append(self.finding(
                module.rel, handler.lineno,
                "broad `except Exception` handler neither logs, re-raises, "
                "nor increments a metric — the failure vanishes silently"))
        return findings
