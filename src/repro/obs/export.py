"""Exporters for the observability layer.

Three consumers, three formats:

- :func:`export_json` — machine-readable (``lake.observability.export_json()``);
- :func:`export_prometheus` — the Prometheus text exposition format, so a
  scraper can be pointed at a dump of the registry;
- :func:`render_span_tree` / :func:`render_metrics_table` — human-readable
  ASCII, the latter reusing the benchmark harness's
  :func:`~repro.bench.reporting.render_table`.

:func:`aggregate_spans` rolls finished spans up into the
tier → function → system breakdown that mirrors the survey's Table 1
taxonomy; it backs ``Observability.report()``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.bench.reporting import render_table
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import Span

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


# -- aggregation ------------------------------------------------------------------


def _bump(bucket: Dict[str, Any], duration_ms: float) -> Dict[str, Any]:
    bucket["calls"] = bucket.get("calls", 0) + 1
    bucket["total_ms"] = bucket.get("total_ms", 0.0) + duration_ms
    return bucket


def aggregate_spans(spans: Iterable[Span]) -> Dict[str, Any]:
    """Roll spans up by tier, function and system (the Table 1 axes).

    Parent spans include their children's time, so per-tier totals are
    inclusive wall time within that tier, not exclusive self time.
    """
    tiers: Dict[str, Dict[str, Any]] = {}
    systems: Dict[str, Dict[str, Any]] = {}
    span_count = 0
    error_count = 0
    for span in spans:
        span_count += 1
        if span.status != "ok":
            error_count += 1
        function = span.function or span.name
        if span.tier is not None:
            tier = _bump(tiers.setdefault(span.tier, {"functions": {}}), span.duration_ms)
            _bump(tier["functions"].setdefault(function, {}), span.duration_ms)
        if span.system is not None:
            system = _bump(systems.setdefault(span.system, {"functions": {}}), span.duration_ms)
            _bump(system["functions"].setdefault(function, {}), span.duration_ms)
    for group in (tiers, systems):
        for entry in group.values():
            entry["total_ms"] = round(entry.get("total_ms", 0.0), 6)
            for stats in entry["functions"].values():
                stats["total_ms"] = round(stats["total_ms"], 6)
    return {
        "span_count": span_count,
        "error_count": error_count,
        "tiers": tiers,
        "systems": systems,
    }


# -- JSON -------------------------------------------------------------------------


def export_json(
    recorder=None,
    registry: Optional[MetricsRegistry] = None,
    indent: Optional[int] = None,
) -> str:
    """Serialize spans + metrics + aggregates as one JSON document."""
    from repro.obs.instrument import get_recorder, get_registry

    recorder = recorder if recorder is not None else get_recorder()
    registry = registry if registry is not None else get_registry()
    roots = recorder.roots()
    payload = {
        "schema": "repro.obs/v1",
        "spans": [root.to_dict() for root in roots],
        "aggregates": aggregate_spans(span for root in roots for span in root.walk()),
        "metrics": registry.snapshot(),
    }
    return json.dumps(payload, indent=indent, sort_keys=True, default=str)


# -- Prometheus text format -------------------------------------------------------


def _prom_name(name: str) -> str:
    sanitized = _PROM_NAME.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(value) if isinstance(value, float) else str(value)


def _prom_labels(labels, extra: str = "") -> str:
    """Render a ``{k="v",...}`` block from a LabelSet plus an extra pair."""
    pairs = [f'{_prom_name(key)}="{value}"' for key, value in labels]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def export_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Render the registry in the Prometheus text exposition format.

    Label sets of one family share a single ``# TYPE`` header; histogram
    bucket lines merge the instrument's labels with the ``le`` bound.
    """
    from repro.obs.instrument import get_registry

    registry = registry if registry is not None else get_registry()
    lines: List[str] = []
    for name, instruments in sorted(registry.families().items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} {instruments[0].kind}")
        for metric in instruments:
            labels = _prom_labels(metric.labels)
            if isinstance(metric, Histogram):
                for bound, cumulative in metric.bucket_counts():
                    le = f'le="{_format_value(bound)}"'
                    lines.append(
                        f"{prom}_bucket{_prom_labels(metric.labels, le)} {cumulative}")
                lines.append(f"{prom}_sum{labels} {_format_value(metric.sum)}")
                lines.append(f"{prom}_count{labels} {metric.count}")
            else:
                lines.append(f"{prom}{labels} {_format_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- ASCII rendering --------------------------------------------------------------


def _tree_lines(span: Span, prefix: str, is_last: bool, out: List[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    parts = [f"{span.name}  {span.duration_ms:.3f}ms"]
    if span.tier:
        parts.append(f"tier={span.tier}")
    if span.system:
        parts.append(f"system={span.system}")
    if span.counters:
        counters = ",".join(f"{k}={v:g}" for k, v in sorted(span.counters.items()))
        parts.append(f"[{counters}]")
    if span.status != "ok":
        if span.error:
            detail = f": {span.error_message}" if span.error_message else ""
            parts.append(f"!{span.status}({span.error}{detail})")
        else:
            parts.append(f"!{span.status}")
    out.append(prefix + connector + "  ".join(parts))
    child_prefix = prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(span.children):
        _tree_lines(child, child_prefix, index == len(span.children) - 1, out)


def render_span_tree(recorder=None, max_roots: Optional[int] = None) -> str:
    """ASCII tree of the finished root spans (newest last)."""
    from repro.obs.instrument import get_recorder

    recorder = recorder if recorder is not None else get_recorder()
    roots = recorder.roots()
    if max_roots is not None:
        roots = roots[-max_roots:]
    if not roots:
        return "(no spans recorded)"
    out: List[str] = []
    for root in roots:
        _tree_lines(root, "", True, out)
    return "\n".join(out)


def render_metrics_table(registry: Optional[MetricsRegistry] = None) -> str:
    """Metric summaries as an ASCII table (via the bench renderer)."""
    from repro.obs.instrument import get_registry

    registry = registry if registry is not None else get_registry()
    rows: List[Sequence[Any]] = []
    for name, metric in registry.metrics().items():
        if isinstance(metric, Histogram):
            summary = metric.summary()
            rows.append([name, metric.kind, summary["count"],
                         summary["mean"], summary["p50"], summary["p95"], summary["p99"]])
        else:
            rows.append([name, metric.kind, "", round(metric.value, 6), "", "", ""])
    return render_table(
        "metrics registry",
        ["metric", "type", "count", "value/mean", "p50", "p95", "p99"],
        rows,
    )


def render_report(aggregates: Dict[str, Any]) -> str:
    """Per-tier and per-system breakdown tables from :func:`aggregate_spans`."""
    sections: List[str] = []
    tier_rows = []
    for tier, entry in sorted(aggregates.get("tiers", {}).items()):
        for function, stats in sorted(entry["functions"].items()):
            tier_rows.append([tier, function, stats["calls"], round(stats["total_ms"], 3)])
    sections.append(render_table(
        "time by tier / function", ["tier", "function", "calls", "total_ms"], tier_rows))
    system_rows = [
        [system, entry["calls"], round(entry["total_ms"], 3)]
        for system, entry in sorted(aggregates.get("systems", {}).items())
    ]
    sections.append(render_table(
        "time by system", ["system", "calls", "total_ms"], system_rows))
    return "\n\n".join(sections)
