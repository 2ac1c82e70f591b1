"""Tracing-coverage rules.

Two rules keep the observability contract enforceable:

- :class:`TracedManifestRule` — every ``(file, class, method)`` triple in
  ``repro.obs.instrument.INSTRUMENTATION_MANIFEST`` must exist and carry
  a ``@traced`` decorator; a stale manifest entry is also a violation so
  renames cannot silently drop instrumentation.
- :class:`RuntimeTracedRule` — every public job entry point under
  ``repro/runtime`` (``submit*``, ``drain*``, ``flush*``, ``refresh*``,
  ``rebuild*``, ``execute*``, ``apply*`` on public classes) must be
  ``@traced`` without needing a manifest entry per method.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Context, Rule
from repro.analysis.walker import (
    Module,
    find_class,
    find_method,
    has_decorator,
    iter_classes,
    iter_methods,
)

DECORATOR_NAMES = ("traced",)

#: public method names that constitute a runtime job entry point
RUNTIME_ENTRY_POINT = re.compile(
    r"^(submit|drain|flush|refresh|rebuild|execute|apply)(_|$)"
)


class TracedManifestRule(Rule):
    """Manifest-listed hot-path entry points must exist and be ``@traced``."""

    name = "traced-manifest"
    description = ("every INSTRUMENTATION_MANIFEST (file, class, method) entry "
                   "exists and carries @traced; stale entries are violations")

    def __init__(self, manifest: Optional[Sequence[Tuple[str, str, str]]] = None,
                 scope=None):
        super().__init__(scope=scope)
        self._manifest = manifest

    @property
    def manifest(self) -> Sequence[Tuple[str, str, str]]:
        if self._manifest is None:
            from repro.obs.instrument import INSTRUMENTATION_MANIFEST
            self._manifest = INSTRUMENTATION_MANIFEST
        return self._manifest

    def finalize(self, ctx: Context) -> List[Finding]:
        if ctx.partial:
            return []  # file-subset run: absent files are not stale entries
        findings: List[Finding] = []
        for rel_path, class_name, method_name in self.manifest:
            module = ctx.find(rel_path)
            if module is None:
                findings.append(self.finding(
                    rel_path, 0, "file not found (stale manifest entry?)"))
                continue
            class_node = find_class(module.tree, class_name)
            if class_node is None:
                findings.append(self.finding(
                    module.rel, 0, f"class {class_name} not found"))
                continue
            method_node = find_method(class_node, method_name)
            if method_node is None:
                findings.append(self.finding(
                    module.rel, class_node.lineno,
                    f"{class_name}.{method_name} not found"))
            elif not has_decorator(method_node, DECORATOR_NAMES):
                findings.append(self.finding(
                    module.rel, method_node.lineno,
                    f"{class_name}.{method_name} is missing a @traced decorator"))
        return findings


class RuntimeTracedRule(Rule):
    """Public runtime job entry points must be ``@traced``."""

    name = "runtime-traced"
    description = ("public submit*/drain*/flush*/refresh*/rebuild*/execute*/apply* "
                   "methods on public classes under repro/runtime carry @traced")
    scope = ("/repro/runtime/",)

    def __init__(self, scope=None, require_package: bool = True):
        super().__init__(scope=scope)
        self.require_package = require_package
        self._saw_package = False

    def begin(self, root) -> None:
        self._saw_package = False

    def check_module(self, module: Module) -> List[Finding]:
        self._saw_package = True
        findings: List[Finding] = []
        for class_node in iter_classes(module.tree):
            if class_node.name.startswith("_"):
                continue
            for item in iter_methods(class_node):
                if item.name.startswith("_") or not RUNTIME_ENTRY_POINT.match(item.name):
                    continue
                if not has_decorator(item, DECORATOR_NAMES):
                    findings.append(self.finding(
                        module.rel, item.lineno,
                        f"{class_node.name}.{item.name} is a runtime job entry "
                        f"point missing a @traced decorator"))
        return findings

    def finalize(self, ctx: Context) -> List[Finding]:
        if ctx.partial:
            return []  # file-subset run: the package is simply not in the set
        if self.require_package and not self._saw_package:
            return [self.finding(
                "repro/runtime", 0,
                "package not found (runtime lint has nothing to scan)")]
        return []
