"""Observability layer: tracing spans, metrics, exporters, instrumentation.

The survey's comparative claims ("Aurum reduces O(n²) to linear", "JOSIE
shows high performance") are performance claims; this subsystem is the
measurement substrate that makes them observable in the running lake:

- :mod:`repro.obs.spans` — hierarchical, thread-safe tracing spans with
  per-span wall time, counters and tags, plus the no-op opt-out recorder;
- :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and fixed-bucket histograms with p50/p95/p99 summaries;
- :mod:`repro.obs.export` — JSON, Prometheus-text and ASCII exporters and
  the tier → function → system aggregation mirroring Table 1;
- :mod:`repro.obs.instrument` — the ``@traced`` decorator, the global
  recorder/registry wiring and the instrumentation manifest enforced by
  the ``traced-manifest`` lakelint rule;
- :mod:`repro.obs.context` — per-request identity (:class:`RequestContext`)
  propagated across every thread boundary in the repo;
- :mod:`repro.obs.events` — the bounded structured event log ("flight
  recorder") with JSONL export.

Metrics and events are always recorded; the process recorder records
the spans of one request in
:data:`~repro.obs.instrument.ROOTS_PER_RECORDED`, and a recorder
installed with :func:`set_recorder` keeps every span by default.

Typical use::

    from repro import DataLake
    from repro.obs import SpanRecorder, get_registry, set_recorder

    set_recorder(SpanRecorder(registry=get_registry()))  # keep every span
    lake = DataLake.in_memory()
    lake.ingest_table("sales", {"region": ["EU", "US"], "amount": [10, 20]})
    print(lake.observability.span_tree())
    print(lake.observability.report()["tiers"].keys())
"""

from repro.obs.context import (
    RequestContext,
    bind_context,
    capture_context,
    check_deadline,
    current_context,
    new_context,
    request_context,
    with_context,
)
from repro.obs.events import Event, EventLog, emit
from repro.obs.export import (
    aggregate_spans,
    export_json,
    export_prometheus,
    render_metrics_table,
    render_report,
    render_span_tree,
)
from repro.obs.instrument import (
    INSTRUMENTATION_MANIFEST,
    Observability,
    annotate,
    current_span,
    disable,
    enable,
    get_event_log,
    get_recorder,
    get_registry,
    incr,
    observability_enabled,
    reset,
    set_recorder,
    traced,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import NOOP_RECORDER, NoopRecorder, Span, SpanRecorder

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "INSTRUMENTATION_MANIFEST",
    "MetricsRegistry",
    "NOOP_RECORDER",
    "NoopRecorder",
    "Observability",
    "RequestContext",
    "Span",
    "SpanRecorder",
    "aggregate_spans",
    "annotate",
    "bind_context",
    "capture_context",
    "check_deadline",
    "current_context",
    "current_span",
    "disable",
    "emit",
    "enable",
    "export_json",
    "export_prometheus",
    "get_event_log",
    "get_recorder",
    "get_registry",
    "incr",
    "new_context",
    "observability_enabled",
    "render_metrics_table",
    "render_report",
    "render_span_tree",
    "request_context",
    "reset",
    "set_recorder",
    "traced",
    "with_context",
]
