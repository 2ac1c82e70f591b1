"""Wiring: the process-wide recorder/registry and the ``@traced`` decorator.

The process recorder records one request in :data:`ROOTS_PER_RECORDED`
(the request root decides, see :mod:`repro.obs.spans`);
``set_recorder(SpanRecorder(registry=get_registry()))`` keeps every
span.  An unrecorded request still mints a context, so its events carry
a request id and its deadline holds, but opens no span.

:func:`disable` swaps the process recorder for the shared
:data:`~repro.obs.spans.NOOP_RECORDER`, after which every ``@traced``
entry point short-circuits to a single attribute read plus an identity
check before calling through.  ``benchmarks/test_bench_obs_overhead.py``
bounds the cost of the default recorder against it, on ingest and on a
warm cache hit.

:data:`INSTRUMENTATION_MANIFEST` is the contract between the code and
the ``traced-manifest`` lakelint rule: every public hot-path entry point
listed here must carry a ``@traced`` decorator, enforced in tier 1 by
``tests/test_lakelint.py``.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Optional

from repro.obs.context import current_context, request_context
from repro.obs.events import EventLog
from repro.obs.export import (
    aggregate_spans,
    export_json,
    export_prometheus,
    render_metrics_table,
    render_report,
    render_span_tree,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler
from repro.obs.spans import NOOP_RECORDER, Span, SpanRecorder

#: (source file under src/, class name, method name) triples that MUST be
#: decorated with @traced — the lint walks this list against the AST.
INSTRUMENTATION_MANIFEST = (
    ("repro/core/lake.py", "DataLake", "ingest"),
    ("repro/core/lake.py", "DataLake", "ingest_bytes"),
    ("repro/core/lake.py", "DataLake", "discover_joinable"),
    ("repro/core/lake.py", "DataLake", "discover_related"),
    ("repro/core/lake.py", "DataLake", "discover_union"),
    ("repro/core/lake.py", "DataLake", "discover_batch"),
    ("repro/core/lake.py", "DataLake", "sql"),
    ("repro/core/lake.py", "DataLake", "keyword_search"),
    ("repro/storage/polystore.py", "Polystore", "store"),
    ("repro/storage/polystore.py", "Polystore", "fetch"),
    ("repro/ingestion/gemms.py", "GemmsExtractor", "extract"),
    ("repro/discovery/aurum.py", "Aurum", "build"),
    ("repro/discovery/aurum.py", "Aurum", "build_delta"),
    ("repro/runtime/scheduler.py", "JobScheduler", "submit"),
    ("repro/runtime/scheduler.py", "JobScheduler", "drain"),
    ("repro/runtime/incremental.py", "IncrementalIndexMaintainer", "refresh"),
    ("repro/discovery/aurum.py", "Aurum", "joinable"),
    ("repro/discovery/aurum.py", "Aurum", "related_tables"),
    ("repro/discovery/josie.py", "JosieIndex", "topk"),
    ("repro/discovery/d3l.py", "D3L", "related_columns"),
    ("repro/discovery/d3l.py", "D3L", "related_tables"),
    ("repro/discovery/d3l.py", "D3L", "populate"),
    ("repro/discovery/pexeso.py", "Pexeso", "joinable"),
    ("repro/exploration/federation.py", "FederatedQueryEngine", "query"),
)

#: the process recorder records one request in this many.  On a 2-CPU
#: host (Python 3.11) a warm cache hit cost 9.7, 8.2, 6.9, 6.6 and 6.6 us
#: at 1 in 1, 4, 16, 64 and 256, and 4.7 us under the no-op recorder:
#: from 64 on, the recorded requests add little to the cost of a call.
ROOTS_PER_RECORDED = 64

_REGISTRY = MetricsRegistry()
_LIVE_RECORDER = SpanRecorder(registry=_REGISTRY, share=1 / ROOTS_PER_RECORDED)
_RECORDER = _LIVE_RECORDER  # the active recorder: live or NOOP_RECORDER
_EVENT_LOG = EventLog()
_PROFILER = SamplingProfiler()  # created eagerly, started on demand


def get_event_log() -> EventLog:
    """The process-wide structured event log (flight recorder)."""
    return _EVENT_LOG


def get_profiler() -> SamplingProfiler:
    """The process-wide sampling profiler (not started until asked)."""
    return _PROFILER


def ensure_profiler() -> SamplingProfiler:
    """Start the process profiler if it is not already running."""
    return _PROFILER.start()


def get_recorder():
    """The active span recorder (live, or the no-op when disabled)."""
    return _RECORDER


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry (always live)."""
    return _REGISTRY


def set_recorder(recorder: SpanRecorder) -> SpanRecorder:
    """Install *recorder* as the live recorder; returns the previous one."""
    global _RECORDER, _LIVE_RECORDER
    previous = _LIVE_RECORDER
    _LIVE_RECORDER = recorder
    _RECORDER = recorder
    return previous


def observability_enabled() -> bool:
    return _RECORDER.enabled


def disable() -> None:
    """Opt out: instrumented code runs with a true no-op recorder."""
    global _RECORDER
    _RECORDER = NOOP_RECORDER


def enable() -> None:
    """Re-enable recording on the (preserved) live recorder."""
    global _RECORDER
    _RECORDER = _LIVE_RECORDER


def reset() -> None:
    """Start a fresh window: clear spans, events and profile data, and zero
    counters and histograms in place (instruments stay registered, so the
    ones a live lake holds keep exporting; gauges keep their values)."""
    _LIVE_RECORDER.reset()
    _REGISTRY.reset()
    _EVENT_LOG.reset()
    _PROFILER.reset()


# -- decorator + in-span helpers --------------------------------------------------


def traced(
    name: Optional[str] = None,
    tier: Optional[str] = None,
    system: Optional[str] = None,
    function: Optional[str] = None,
) -> Callable:
    """Decorate a function/method so every recorded call runs inside a span.

    When observability is disabled the wrapper costs one global read and
    one identity check; otherwise it opens a span named *name* (default:
    the function's qualified name, lower-cased) tagged with the survey
    *tier*, *system* and *function*, if the recorder records the
    request.

    A traced call with no active :class:`~repro.obs.context.RequestContext`
    mints one for its own duration, so every traced entry point is a
    request root and no span or event is ever unattributed; nested
    traced calls inherit the ambient context instead.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__.replace(".", "_").lower()

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            recorder = _RECORDER
            if recorder is NOOP_RECORDER:
                return fn(*args, **kwargs)
            if current_context() is None:
                with request_context():
                    with recorder.span(span_name, tier=tier, system=system,
                                       function=function):
                        return fn(*args, **kwargs)
            with recorder.span(span_name, tier=tier, system=system, function=function):
                return fn(*args, **kwargs)

        wrapper.__obs_span__ = {
            "name": span_name, "tier": tier, "system": system, "function": function,
        }
        return wrapper

    return decorate


def current_span() -> Optional[Span]:
    """The innermost active span on this thread (None when disabled/idle)."""
    return _RECORDER.current()


def incr(counter: str, amount: float = 1) -> None:
    """Bump a counter on the active span; no-op without one."""
    span = _RECORDER.current()
    if span is not None:
        span.add(counter, amount)


def annotate(**tags: Any) -> None:
    """Tag the active span; no-op without one."""
    span = _RECORDER.current()
    if span is not None:
        span.tag(**tags)


# -- facade -----------------------------------------------------------------------


class Observability:
    """One handle over the process recorder + registry (``lake.observability``).

    The view is process-wide by design: the registry is shared state the
    same way a Prometheus endpoint is, and spans from every lake in the
    process land in one trace buffer.  :meth:`reset` starts a fresh window.
    """

    @property
    def recorder(self):
        return get_recorder()

    @property
    def registry(self) -> MetricsRegistry:
        return get_registry()

    @property
    def events(self) -> EventLog:
        return get_event_log()

    @property
    def profiler(self) -> SamplingProfiler:
        return get_profiler()

    @property
    def enabled(self) -> bool:
        return observability_enabled()

    def enable(self) -> None:
        enable()

    def disable(self) -> None:
        disable()

    def reset(self) -> None:
        reset()

    def report(self) -> Dict[str, Any]:
        """Tier → function and system breakdowns of all finished spans."""
        recorder = get_recorder()
        return aggregate_spans(recorder.all_spans())

    def span_tree(self, max_roots: Optional[int] = None) -> str:
        return render_span_tree(get_recorder(), max_roots=max_roots)

    def export_json(self, indent: Optional[int] = None) -> str:
        return export_json(get_recorder(), get_registry(), indent=indent)

    def prometheus(self) -> str:
        return export_prometheus(get_registry())

    def metrics_table(self) -> str:
        return render_metrics_table(get_registry())

    def render_report(self) -> str:
        return render_report(self.report())
