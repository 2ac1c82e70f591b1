"""lakelint: the unified AST static-analysis framework for this lake.

The survey's core contribution is a *classification* — every implemented
system must sit at correct tier/function/method coordinates — and PRs
1–2 grew a concurrency-heavy runtime whose invariants (traced entry
points, lock discipline, exception hygiene) used to live in two ad-hoc
scripts.  This package turns both into one pluggable lint engine that
tier-1 tests run over ``src/``, ``benchmarks/`` and ``tools/`` on every
test run:

- :mod:`repro.analysis.walker` — files parsed once, shared AST helpers,
  ``# lakelint: disable=<rule>`` pragma collection;
- :mod:`repro.analysis.findings` — the :class:`Finding` / severity model;
- :mod:`repro.analysis.rules` — the rule set (``Rule`` base class plus
  the 13 rules of :func:`default_rules`; see ``docs/LINT.md``), each
  judging one file at a time, with a cross-file ``finalize`` pass for
  the manifest and registry rules;
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
    RegistryCoordsRule,
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
    "RegistryCoordsRule",
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
