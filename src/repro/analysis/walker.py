"""Shared AST plumbing: parsed modules, pragmas, and node helpers.

Every file is read and parsed exactly once into a :class:`Module`, and
all rules share the same decorator / dotted-name / class-iteration
helpers.

Suppression pragmas are comments of the form::

    risky()  # lakelint: disable=exception-hygiene
    other()  # lakelint: disable=rule-a,rule-b

collected with :mod:`tokenize` (so strings that merely *contain* the
pragma text do not suppress anything).  A finding reported at a line
carrying a pragma for its rule (or for ``all``) is dropped by the
engine.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

PRAGMA = re.compile(r"lakelint:\s*disable=([A-Za-z0-9_,\- ]+)")


def collect_pragmas(source: str) -> Dict[int, Set[str]]:
    """``{lineno: {rule names}}`` for every ``# lakelint: disable=`` comment."""
    pragmas: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = PRAGMA.search(token.string)
            if match:
                names = {n.strip() for n in match.group(1).split(",") if n.strip()}
                pragmas.setdefault(token.start[0], set()).update(names)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable tail: the file already yields a parse-error finding
    return pragmas


class Module:
    """One source file parsed once and shared by every rule."""

    __slots__ = ("path", "rel", "source", "tree", "_pragmas")

    def __init__(self, path: pathlib.Path, rel: str, source: str, tree: ast.Module):
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        self._pragmas: Optional[Dict[int, Set[str]]] = None

    @property
    def pragmas(self) -> Dict[int, Set[str]]:
        if self._pragmas is None:
            self._pragmas = collect_pragmas(self.source)
        return self._pragmas

    def disabled_rules(self, line: int) -> Set[str]:
        return self.pragmas.get(line, set())

    def __repr__(self) -> str:
        return f"Module({self.rel!r})"


def parse_module(path: pathlib.Path, rel: str) -> Module:
    """Read and parse *path*; raises OSError / SyntaxError to the caller."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return Module(path, rel, source, tree)


# -- node helpers ------------------------------------------------------------------


def decorator_name(node: ast.expr) -> str:
    """Base name of a decorator expression (``traced(...)`` -> ``traced``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def has_decorator(fn_node: ast.AST, names: Sequence[str]) -> bool:
    decorators = getattr(fn_node, "decorator_list", [])
    return any(decorator_name(d) in names for d in decorators)


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Top-level class definitions of *tree*."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node


def iter_methods(class_node: ast.ClassDef) -> Iterator[ast.AST]:
    for item in class_node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


def self_attribute(node: ast.expr) -> Optional[str]:
    """``X`` when *node* is exactly ``self.X``, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    """First class named *name* anywhere in *tree* (nested included)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def find_method(class_node: ast.ClassDef, name: str) -> Optional[ast.AST]:
    for item in iter_methods(class_node):
        if item.name == name:
            return item
    return None


def broad_exception_names(handler: ast.ExceptHandler) -> Tuple[str, ...]:
    """The catch-everything names this handler uses, if any.

    Returns ``("",)`` for a bare ``except:``, the matching names for
    ``Exception`` / ``BaseException`` (possibly inside a tuple), and
    ``()`` when the handler is narrow.
    """
    broad = {"Exception", "BaseException"}
    node = handler.type
    if node is None:
        return ("",)
    if isinstance(node, ast.Tuple):
        hits = tuple(name for name in (dotted_name(el) or "" for el in node.elts)
                     if name.rsplit(".", 1)[-1] in broad)
        return hits
    name = dotted_name(node) or ""
    return (name,) if name.rsplit(".", 1)[-1] in broad else ()


def handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Does the handler body contain a ``raise`` anywhere?"""
    return any(isinstance(node, ast.Raise)
               for stmt in handler.body for node in ast.walk(stmt))
