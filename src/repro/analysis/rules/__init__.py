"""The lakelint rule set.

:func:`default_rules` returns a fresh instance of every active rule —
fresh because rules may accumulate cross-file state between
``check_module`` and ``finalize``.  Adding a rule = subclass
:class:`~repro.analysis.rules.base.Rule`, give it a kebab-case ``name``,
and list it here (see ``docs/LINT.md``).
"""

from repro.analysis.rules.base import Context, Rule
from repro.analysis.rules.breaker_guard import BreakerGuardRule
from repro.analysis.rules.cache_epoch import CacheEpochRule
from repro.analysis.rules.context_propagation import ContextPropagationRule
from repro.analysis.rules.determinism import BenchDeterminismRule
from repro.analysis.rules.durable_write import DurableWriteRule
from repro.analysis.rules.exceptions import BareExceptRule, ExceptionHygieneRule
from repro.analysis.rules.instrumentation import RuntimeTracedRule, TracedManifestRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.lock_blocking import LockAcrossBlockingRule
from repro.analysis.rules.registry_coords import RegistryCoordsRule
from repro.analysis.rules.serving_context import ServingContextRule

__all__ = [
    "BareExceptRule",
    "BenchDeterminismRule",
    "BreakerGuardRule",
    "CacheEpochRule",
    "Context",
    "ContextPropagationRule",
    "DurableWriteRule",
    "ExceptionHygieneRule",
    "LockAcrossBlockingRule",
    "LockDisciplineRule",
    "RegistryCoordsRule",
    "Rule",
    "RuntimeTracedRule",
    "ServingContextRule",
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
        RegistryCoordsRule(),
        BenchDeterminismRule(),
        BreakerGuardRule(),
        DurableWriteRule(),
        CacheEpochRule(),
        ContextPropagationRule(),
        ServingContextRule(),
    ]
