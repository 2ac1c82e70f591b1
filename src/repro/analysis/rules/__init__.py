"""The lakelint rule set.

:func:`default_rules` returns a fresh instance of every active rule —
fresh because rules may accumulate cross-file state between
``check_module`` and ``finalize``.  Adding a rule = subclass
:class:`~repro.analysis.rules.base.Rule`, give it a kebab-case ``name``,
and list it here (see ``docs/LINT.md``).
"""

from repro.analysis.rules.base import Context, Rule
from repro.analysis.rules.determinism import BenchDeterminismRule
from repro.analysis.rules.exceptions import BareExceptRule, ExceptionHygieneRule
from repro.analysis.rules.instrumentation import RuntimeTracedRule, TracedManifestRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.lock_blocking import LockAcrossBlockingRule

__all__ = [
    "BareExceptRule",
    "BenchDeterminismRule",
    "Context",
    "ExceptionHygieneRule",
    "LockAcrossBlockingRule",
    "LockDisciplineRule",
    "Rule",
    "RuntimeTracedRule",
    "TracedManifestRule",
    "default_rules",
]


def default_rules():
    """Fresh instances of every active rule, migration order first."""
    return [
        TracedManifestRule(),
        RuntimeTracedRule(),
        BareExceptRule(),
        ExceptionHygieneRule(),
        LockDisciplineRule(),
        LockAcrossBlockingRule(),
        BenchDeterminismRule(),
    ]
