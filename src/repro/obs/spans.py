"""Hierarchical tracing spans for the lake's hot paths.

A :class:`Span` measures one timed operation; spans opened while another
span is active on the same thread become its children, so a single
``lake.ingest`` produces a tree mirroring the tier→function→system call
structure of the survey's Fig. 2.  The API is deliberately tiny and
zero-dependency:

- :meth:`SpanRecorder.span` — context manager opening a span;
- spans carry a wall-clock ``duration_ms``, free-form ``tags`` and
  monotonically increasing ``counters``;
- :class:`NoopRecorder` is the opt-out: same interface, no work, so
  instrumented code pays one attribute read when observability is off.

Thread model: each thread owns its own span stack (``threading.local``),
finished root spans are appended to a bounded, lock-protected deque.
Span objects are only ever mutated by the thread that opened them.

Every span is stamped with the :class:`~repro.obs.context.RequestContext`
active when it opened (``request_id``), so work done on scheduler or
pool threads stays attributable to the originating ``DataLake`` call; a
span that exits via an exception records the exception type *and*
message, so an errored trace is distinguishable from a clean one in
every exporter.

The request root decides what is recorded.  A recorder keeps a *share*
of requests (every one by default; the process default recorder keeps
one in 64): a span opened under a context is recorded when the
context's draw falls below the share, when a listener is attached, or
when a recorded span is already open on the thread.  Otherwise :meth:`SpanRecorder.span`
returns the shared null context, which records nothing, so a skipped
request costs no ``Span``, no histogram update and no ring slot.  A
span opened with no context at all is recorded.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.context import RequestContext, current_context

#: error messages recorded on spans are clipped to this many characters
MAX_ERROR_CHARS = 240


class Span:
    """One timed, tagged, counted operation in the trace tree."""

    __slots__ = ("name", "tier", "system", "function", "tags", "counters",
                 "start", "duration_ms", "children", "status", "request_id",
                 "error", "error_message")

    def __init__(
        self,
        name: str,
        tier: Optional[str] = None,
        system: Optional[str] = None,
        function: Optional[str] = None,
        tags: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.tier = tier
        self.system = system
        self.function = function
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.counters: Dict[str, float] = {}
        self.start = 0.0
        self.duration_ms = 0.0
        self.children: List["Span"] = []
        self.status = "ok"
        self.request_id: Optional[str] = None
        self.error: Optional[str] = None
        self.error_message: Optional[str] = None

    def add(self, counter: str, amount: float = 1) -> None:
        """Increment a per-span counter (e.g. ``postings_read``)."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def tag(self, **tags: Any) -> None:
        """Attach key-value tags to the span."""
        self.tags.update(tags)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (recursive over children)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 6),
            "status": self.status,
        }
        for key in ("tier", "system", "function", "request_id",
                    "error", "error_message"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, tier={self.tier!r}, "
                f"{self.duration_ms:.3f}ms, children={len(self.children)})")


class _ActiveSpan:
    """Context manager binding one span to its recorder's thread stack."""

    __slots__ = ("_recorder", "_span", "_context")

    def __init__(self, recorder: "SpanRecorder", span: Span,
                 context: Optional[RequestContext]):
        self._recorder = recorder
        self._span = span
        self._context = context

    def __enter__(self) -> Span:
        context = self._context
        if context is not None:
            self._span.request_id = context.request_id
            if context.tenant:
                self._span.tags.setdefault("tenant", context.tenant)
        self._recorder._push(self._span)
        self._span.start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration_ms = (time.perf_counter() - span.start) * 1000.0
        if exc_type is not None:
            span.status = "error"
            span.error = exc_type.__name__
            span.error_message = str(exc)[:MAX_ERROR_CHARS] if exc is not None else ""
            span.tags.setdefault("error", span.error)  # legacy tag consumers
        self._recorder._pop(span)
        return False


class SpanRecorder:
    """Collects span trees; thread-safe, bounded, optionally metric-backed.

    *share* is the fraction of requests recorded, applied to each
    request's draw (see the module docstring); the default records
    every request.  When *registry* is given, every recorded span also
    feeds a ``span_ms.<name>`` histogram, bound once per name, so
    quantiles survive even after the bounded root buffer evicts old
    traces.
    """

    enabled = True

    def __init__(self, max_roots: int = 4096, registry=None, share: float = 1.0):
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"share must be in [0, 1], got {share}")
        self._roots: deque = deque(maxlen=max_roots)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.registry = registry
        self.share = share
        self._listeners: List[Any] = []
        self._histograms: Dict[str, Any] = {}

    # -- span lifecycle ----------------------------------------------------------

    def span(
        self,
        name: str,
        tier: Optional[str] = None,
        system: Optional[str] = None,
        function: Optional[str] = None,
        **tags: Any,
    ) -> "_ActiveSpan | _NullSpanContext":
        """Open a span as a context manager; nests under the active span.

        Returns the shared null context, which yields ``None``, when the
        active request is not recorded.
        """
        context = current_context()
        if (context is not None and context.draw >= self.share
                and not self._listeners
                and not getattr(self._local, "stack", None)):
            return _NULL_CONTEXT
        return _ActiveSpan(self, Span(name, tier, system, function, tags), context)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exotic exit order: drop it and everything above
            del stack[stack.index(span):]
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        if self.registry is not None:
            histogram = self._histograms.get(span.name)
            if histogram is None:
                histogram = self._bind_histogram(span.name)
            histogram.observe(span.duration_ms)
        for listener in self._listeners:
            try:
                listener(span)
            except Exception:  # lakelint: disable=bare-except,exception-hygiene — a broken listener must never take the traced operation down; counted on the registry
                if self.registry is not None:
                    self.registry.counter("obs.span_listener_errors").inc()

    def _bind_histogram(self, name: str):
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = self.registry.histogram(
                    f"span_ms.{name}")
            return histogram

    # -- listeners ---------------------------------------------------------------

    def add_listener(self, listener) -> None:
        """Call *listener(span)* for every finished span (SLO feed etc.).

        While a listener is attached the recorder records every request,
        whatever its share, so the listener sees every span.
        """
        with self._lock:
            if listener not in self._listeners:
                self._listeners = self._listeners + [listener]

    def remove_listener(self, listener) -> None:
        # equality, not identity: bound methods are recreated per access
        with self._lock:
            self._listeners = [l for l in self._listeners if l != listener]

    # -- introspection -----------------------------------------------------------

    def current(self) -> Optional[Span]:
        """The innermost active span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def roots(self) -> List[Span]:
        """Snapshot of the finished root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def all_spans(self) -> List[Span]:
        """Every finished span (roots and descendants), depth-first."""
        out: List[Span] = []
        for root in self.roots():
            out.extend(root.walk())
        return out

    def reset(self) -> None:
        """Drop all finished spans (active stacks are left untouched)."""
        with self._lock:
            self._roots.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._roots)


class _NullSpanContext:
    """Shared do-nothing context manager returned by :class:`NoopRecorder`."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NoopRecorder:
    """The opt-out recorder: same interface as :class:`SpanRecorder`, no work."""

    enabled = False
    registry = None

    def span(self, name, tier=None, system=None, function=None, **tags):
        return _NULL_CONTEXT

    def add_listener(self, listener) -> None:
        pass

    def remove_listener(self, listener) -> None:
        pass

    def current(self):
        return None

    def roots(self):
        return []

    def all_spans(self):
        return []

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: process-wide shared no-op instance (identity-compared on the fast path)
NOOP_RECORDER = NoopRecorder()
