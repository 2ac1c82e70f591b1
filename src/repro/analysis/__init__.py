"""lakelint: the unified AST static-analysis framework for this lake.

Some invariants of the lake are properties of its source text that no
test run exercises: traced entry points, lock discipline, exception
hygiene, atomic storage writes, benchmark determinism.  This package
checks them with one pluggable lint engine that tier-1 tests run over
``src/``, ``benchmarks/`` and ``tools/`` on every test run.  Invariants
a test can check by running the code (the breaker, cache and serving
funnels, the registry's Table 1) are left to those tests; see
``docs/LINT.md``.  The modules:

- :mod:`repro.analysis.walker` — files parsed once, shared AST helpers,
  ``# lakelint: disable=<rule>`` pragma collection;
- :mod:`repro.analysis.findings` — the :class:`Finding` / severity model;
- :mod:`repro.analysis.rules` — the rule set (``Rule`` base class plus
  the 7 rules of :func:`default_rules`; see ``docs/LINT.md``), each
  judging one file at a time, with a cross-file ``finalize`` pass for
  the manifest rule;
- :mod:`repro.analysis.engine` — :class:`LintEngine` with scoping,
  pragma and allowlist suppression, and stale-allowlist detection;
- :mod:`repro.analysis.reporters` — text and JSON output;
- :mod:`repro.analysis.sanitizer` — the runtime lockset witness that
  every tier-1 session arms (``tests/conftest.py``): lock order is
  observed while the tests run, not modeled statically.

Typical use::

    from repro.analysis import LintEngine

    result = LintEngine().run(["src", "benchmarks", "tools"], root=repo_root)
    assert result.clean, "\\n".join(f.format() for f in result.findings)

or from the command line::

    python tools/lakelint.py src benchmarks tools
"""

from repro.analysis.engine import SCHEMA, LintEngine, LintPathError, LintResult
from repro.analysis.findings import SEVERITIES, Finding
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import (
    BareExceptRule,
    BenchDeterminismRule,
    Context,
    ExceptionHygieneRule,
    LockAcrossBlockingRule,
    LockDisciplineRule,
    Rule,
    RuntimeTracedRule,
    TracedManifestRule,
    default_rules,
)
from repro.analysis.walker import Module, collect_pragmas, parse_module

__all__ = [
    "BareExceptRule",
    "BenchDeterminismRule",
    "Context",
    "ExceptionHygieneRule",
    "Finding",
    "LintEngine",
    "LintPathError",
    "LintResult",
    "LockAcrossBlockingRule",
    "LockDisciplineRule",
    "Module",
    "Rule",
    "RuntimeTracedRule",
    "SCHEMA",
    "SEVERITIES",
    "TracedManifestRule",
    "collect_pragmas",
    "default_rules",
    "parse_module",
    "render_json",
    "render_text",
]
