"""The :class:`Rule` contract every lakelint rule implements.

A rule sees each parsed :class:`~repro.analysis.walker.Module` once
(``check_module``) and gets one cross-file pass at the end
(``finalize``) for whole-tree invariants such as manifest completeness.
Scoping, pragma suppression and allowlists are engine concerns — a rule
just reports everything it sees and lets the engine filter.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.walker import Module


class Context:
    """What ``finalize`` gets to see: every scanned module plus the root.

    ``partial`` marks a run over a file *subset* (``lakelint --changed``):
    whole-tree rules, such as manifest completeness, must skip their
    finalize pass then, because absence of a file is not evidence of
    anything.
    """

    def __init__(self, modules: Sequence[Module], root: pathlib.Path,
                 partial: bool = False):
        self.modules = list(modules)
        self.root = root
        self.partial = partial

    def find(self, suffix: str) -> Optional[Module]:
        """The scanned module whose path ends with *suffix* (slash-aware)."""
        probe = suffix.replace("\\", "/")
        for module in self.modules:
            if module.rel == probe or module.rel.endswith("/" + probe):
                return module
        return None


class Rule:
    """Base class: subclass, set ``name``/``description``, implement checks.

    ``scope`` is a tuple of path fragments (e.g. ``"/repro/runtime/"``)
    matched as substrings against ``"/" + rel`` — empty means every
    scanned file.  ``allowlist`` maps a path suffix to the number of
    sanctioned findings in that file; the engine drops the first N and
    reports stale entries whose file was never scanned.
    """

    name: str = ""
    description: str = ""
    severity: str = "error"
    scope: Tuple[str, ...] = ()
    allowlist: Dict[str, int] = {}

    def __init__(
        self,
        scope: Optional[Tuple[str, ...]] = None,
        allowlist: Optional[Dict[str, int]] = None,
    ):
        if scope is not None:
            self.scope = tuple(scope)
        if allowlist is not None:
            self.allowlist = dict(allowlist)

    def in_scope(self, rel: str) -> bool:
        if not self.scope:
            return True
        probe = "/" + rel
        return any(fragment in probe for fragment in self.scope)

    def begin(self, root: pathlib.Path) -> None:
        """Reset any cross-file state; called once per engine run."""

    def check_module(self, module: Module) -> List[Finding]:
        return []

    def finalize(self, ctx: Context) -> List[Finding]:
        return []

    def finding(self, path: str, line: int, message: str,
                severity: Optional[str] = None) -> Finding:
        return Finding(rule=self.name, path=path, line=line, message=message,
                       severity=severity or self.severity)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
