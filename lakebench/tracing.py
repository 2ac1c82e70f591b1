"""The traced run's per-layer split, on the lake's own span recorder.

The program already opens ``repro.obs`` spans at its main entry points
(``@traced`` and ``get_recorder().span``).  A traced run installs a
large :class:`repro.obs.SpanRecorder` per phase (set-up, then the
measured ops) and, while it runs, wraps the public methods in
:data:`WRAPPED`, which carry no span of their own, in spans of the same
recorder; :func:`installed` restores them when the run ends.  The
program itself is not edited.

- A span's parent is the innermost span open on the same thread (the
  recorder's per-thread stack).  The benchmark opens one ``op.<kind>``
  root span per measured op, tagged with the op's schedule index.
- A serving worker opens its own root (``serving.request``) under the
  request id the server mints and returns in the response.  The wrapped
  ``LakeServer.serve`` tags its span with that id, and self-time
  accounting counts the worker root as a child of that span.
- Self time is a span's duration minus the part of it its children
  cover.

Spans stay in memory; :func:`write_trace` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.obs import Span, SpanRecorder, get_recorder, set_recorder

Note = Optional[Callable[[Span, Any], None]]


def _count(of: Callable[[Any], float]) -> Note:
    """Add ``of(result)`` to the span's ``value`` counter."""
    return lambda span, result: span.add("value", float(of(result)))


def _worker_request(span: Span, response: Any) -> None:
    span.tag(worker_request=response.request_id)


#: (module, class, method, layer, note taken from the result) of the
#: public methods the program does not trace itself
WRAPPED: Tuple[Tuple[str, str, str, str, Note], ...] = (
    ("repro.serving.server", "LakeServer", "serve", "serving", _worker_request),
    ("repro.serving.quotas", "AdmissionController", "admit", "serving", None),
    ("repro.exploration.parallel", "QueryCache", "lookup", "exploration.parallel",
     _count(lambda result: bool(result[0]))),
    ("repro.runtime.incremental", "IncrementalIndexMaintainer", "engine", "runtime",
     None),
    ("repro.runtime.incremental", "IncrementalIndexMaintainer", "searcher", "runtime",
     None),
    ("repro.runtime.incremental", "ReadWriteLock", "acquire_read", "runtime", None),
    ("repro.runtime.incremental", "ReadWriteLock", "acquire_write", "runtime", None),
    ("repro.discovery.aurum", "Aurum", "add_table", "discovery.aurum", None),
    ("repro.discovery.aurum", "Aurum", "update_table", "discovery.aurum", _count(bool)),
    ("repro.discovery.profiles", "TableProfiler", "profile_column", "discovery.profiles",
     None),
    ("repro.discovery.table_union", "TableUnionSearch", "add_table",
     "discovery.table_union", None),
    ("repro.discovery.table_union", "TableUnionSearch", "table_unionability",
     "discovery.table_union", None),
    ("repro.ml.embeddings", "HashedEmbedder", "embed_set", "ml.embeddings", _count(len)),
    ("repro.ml.minhash", "MinHasher", "signature", "ml.minhash", None),
    ("repro.exploration.keyword", "KeywordSearch", "add_table", "exploration.keyword",
     None),
    ("repro.exploration.keyword", "KeywordSearch", "remove_table", "exploration.keyword",
     None),
    ("repro.exploration.keyword", "KeywordSearch", "search", "exploration.keyword", None),
    ("repro.exploration.sql", "SqlEngine", "execute", "exploration.sql", _count(len)),
    ("repro.provenance.events", "ProvenanceRecorder", "record_ingest", "provenance",
     None),
)
WRAPPED_NAMES = frozenset(f"{cls}.{method}" for _, cls, method, _, _ in WRAPPED)

#: the program's own span names -> (method, layer)
PROGRAM_SPANS: Dict[str, Tuple[str, str]] = {
    "serving.request": ("LakeServer.request", "serving"),
    "ingestion.lake.ingest": ("DataLake.ingest", "core.lake"),
    "exploration.lake.discover_related": ("DataLake.discover_related", "core.lake"),
    "exploration.lake.discover_joinable": ("DataLake.discover_joinable", "core.lake"),
    "exploration.lake.discover_union": ("DataLake.discover_union", "core.lake"),
    "exploration.lake.keyword_search": ("DataLake.keyword_search", "core.lake"),
    "exploration.lake.sql": ("DataLake.sql", "core.lake"),
    "maintenance.discovery.index_build": ("DataLake.index_build", "core.lake"),
    "maintenance.union.index_build": ("DataLake.union_index_build", "core.lake"),
    "exploration.parallel.fanout": ("ParallelExecutor.fanout", "exploration.parallel"),
    "maintenance.runtime.refresh": ("IncrementalIndexMaintainer.refresh", "runtime"),
    "maintenance.aurum.build": ("Aurum.build", "discovery.aurum"),
    "maintenance.aurum.build_delta": ("Aurum.build_delta", "discovery.aurum"),
    "exploration.aurum.joinable": ("Aurum.joinable", "discovery.aurum"),
    "exploration.aurum.related_tables": ("Aurum.related_tables", "discovery.aurum"),
    "ingestion.gemms.extract": ("GemmsExtractor.extract", "ingestion.gemms"),
    "maintenance.catalog.register": ("GoodsCatalog.register",
                                     "organization.goods_catalog"),
    "storage.polystore.store": ("Polystore.store", "storage.polystore"),
    "storage.polystore.fetch": ("Polystore.fetch", "storage.polystore"),
}

#: every layer a span is attributed to; "other" takes the program's
#: remaining spans
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    ["bench"] + [entry[3] for entry in WRAPPED]
    + [layer for _, layer in PROGRAM_SPANS.values()] + ["other"]))

QUERY_SPANS = ("DataLake.discover_related", "DataLake.discover_joinable",
               "DataLake.discover_union", "DataLake.keyword_search")


def method_of(span: Span) -> Tuple[str, str]:
    """``(Class.method, layer)`` of a span."""
    if span.tier == "bench" or span.name in WRAPPED_NAMES:
        return span.name, span.tier
    return PROGRAM_SPANS.get(span.name, (span.name, "other"))


def _wrap(original: Callable[..., Any], name: str, layer: str,
          note: Note) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with get_recorder().span(name, tier=layer) as span:
            result = original(*args, **kwargs)
            if note is not None and span is not None:
                note(span, result)
            return result

    return wrapper


@contextmanager
def installed() -> Iterator[None]:
    """Wrap every :data:`WRAPPED` method for the duration of the block."""
    patched: List[Tuple[type, str, Any]] = []
    try:
        for module, class_name, method, layer, note in WRAPPED:
            cls = getattr(importlib.import_module(module), class_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(original, f"{class_name}.{method}", layer, note))
            patched.append((cls, method, original))
        yield
    finally:
        for cls, method, original in reversed(patched):
            setattr(cls, method, original)


@contextmanager
def recording() -> Iterator[SpanRecorder]:
    """A fresh recorder that keeps every span, live for the block."""
    recorder = SpanRecorder(max_roots=10**8)
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


# -- self-time arithmetic ---------------------------------------------------------


def end_of(span: Span) -> float:
    return span.start + span.duration_ms / 1000.0


def covered(span: Span, children: Iterable[Span]) -> float:
    """Seconds of *span* that the union of *children* covers."""
    stop = end_of(span)
    intervals = sorted((max(child.start, span.start), min(end_of(child), stop))
                       for child in children)
    total = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


class Node:
    """One span inside an op's tree, with its self time and ancestors."""

    __slots__ = ("span", "method", "layer", "self_s", "ancestors")

    def __init__(self, span: Span, self_s: float, ancestors: Tuple[str, ...]) -> None:
        self.span = span
        self.method, self.layer = method_of(span)
        self.self_s = self_s
        self.ancestors = ancestors


def flatten(roots: Sequence[Span]) -> Dict[Any, List[Node]]:
    """Op -> every span of that op, with self times.

    *roots* are one recorder's root spans.  An ``op.<kind>`` root's op is
    its schedule index; every other root (set-up work) files under
    ``None``.  A serving worker's root is visited as a child of the
    ``LakeServer.serve`` span tagged with its request id.
    """
    workers = {root.request_id: root for root in roots
               if root.name == "serving.request"}
    adopted = set()
    out: Dict[Any, List[Node]] = defaultdict(list)

    def visit(span: Span, op: Any, ancestors: Tuple[str, ...]) -> None:
        children = list(span.children)
        worker = workers.get(span.tags.get("worker_request"))
        if worker is not None:
            children.append(worker)
            adopted.add(id(worker))
        node = Node(span, span.duration_ms / 1000.0 - covered(span, children), ancestors)
        out[op].append(node)
        for child in children:
            visit(child, op, ancestors + (node.method,))

    for root in roots:
        if root.name != "serving.request":
            visit(root, root.tags.get("op") if root.tier == "bench" else None, ())
    for root in workers.values():
        if id(root) not in adopted:
            visit(root, None, ())
    return out


# -- per-layer metrics --------------------------------------------------------------


class Rollup:
    """Calls, self and total seconds and counted values per method."""

    def __init__(self, nodes: Iterable[Node]) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.value: Dict[str, float] = defaultdict(float)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        for node in nodes:
            self.calls[node.method] += 1
            self.self_s[node.method] += node.self_s
            self.total_s[node.method] += node.span.duration_ms / 1000.0
            self.layer_self_s[node.layer] += node.self_s
            self.value[node.method] += node.span.counters.get("value", 0.0)

    def self_ms(self, *methods: str) -> float:
        return 1000.0 * sum(self.self_s[method] for method in methods)

    def total_ms(self, *methods: str) -> float:
        return 1000.0 * sum(self.total_s[method] for method in methods)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(setup: Dict[Any, List[Node]], measured: Dict[Any, List[Node]],
              ingested_columns: int, union_ops: int,
              trace_overhead: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    *measured* is :func:`flatten` of the measured phase and *setup* that
    of the set-up; the ``setup.*`` metrics give the set-up's split.
    """
    nodes = [node for op_nodes in measured.values() for node in op_nodes]
    run = Rollup(nodes)
    out: Dict[str, Tuple[float, str]] = {}

    def put(name: str, unit: str, value: float) -> None:
        out[name] = (float(value), unit)

    serve = "LakeServer.serve"
    put("serving.LakeServer.serve.requests", "count", run.calls[serve])
    put("serving.LakeServer.serve.self_ms", "ms",
        run.self_ms(serve, "LakeServer.request", "AdmissionController.admit"))
    put("serving.AdmissionController.admit.ms", "ms",
        run.total_ms("AdmissionController.admit"))
    put("core.lake.ingest.self_ms", "ms", run.self_ms("DataLake.ingest"))
    put("core.lake.discover.self_ms", "ms", run.self_ms(*QUERY_SPANS))
    put("core.lake.sql.self_ms", "ms", run.self_ms("DataLake.sql"))
    lookups = run.calls["QueryCache.lookup"]
    hits = run.value["QueryCache.lookup"]
    put("exploration.parallel.QueryCache.lookup.hits", "count", hits)
    put("exploration.parallel.QueryCache.lookup.lookups", "count", lookups)
    put("exploration.parallel.QueryCache.lookup.hit_ratio", "ratio", _ratio(hits, lookups))
    refresh = "IncrementalIndexMaintainer.refresh"
    put("runtime.refresh.calls", "count", run.calls[refresh])
    put("runtime.refresh.tables", "count",
        sum(node.span.tags.get("delta_tables", 0) for node in nodes
            if node.method == refresh))
    put("runtime.refresh.ms", "ms", run.total_ms(refresh))
    put("runtime.refresh_in_query_ms", "ms", sum(
        node.span.duration_ms for node in nodes if node.method == refresh
        and any(method in QUERY_SPANS for method in node.ancestors)))
    put("runtime.IncrementalIndexMaintainer.engine.self_ms", "ms",
        run.self_ms("IncrementalIndexMaintainer.engine",
                    "IncrementalIndexMaintainer.searcher"))
    put("runtime.ReadWriteLock.read_wait_ms", "ms", run.total_ms("ReadWriteLock.acquire_read"))
    put("runtime.ReadWriteLock.write_wait_ms", "ms",
        run.total_ms("ReadWriteLock.acquire_write"))
    for method in ("build", "build_delta", "update_table"):
        put(f"discovery.aurum.{method}.calls", "count", run.calls[f"Aurum.{method}"])
        put(f"discovery.aurum.{method}.self_ms", "ms", run.self_ms(f"Aurum.{method}"))
    put("discovery.aurum.update_table.rebuilds", "count", run.value["Aurum.update_table"])
    put("discovery.aurum.query.self_ms", "ms",
        run.self_ms("Aurum.joinable", "Aurum.related_tables"))
    profile = "TableProfiler.profile_column"
    put("discovery.profiles.profile_column.calls", "count", run.calls[profile])
    put("discovery.profiles.profile_column.self_ms", "ms", run.self_ms(profile))
    put("discovery.profiles.profile_column.calls_per_column", "ratio",
        _ratio(run.calls[profile], ingested_columns))
    pairs = "TableUnionSearch.table_unionability"
    put("discovery.table_union.table_unionability.pairs", "count", run.calls[pairs])
    put("discovery.table_union.table_unionability.self_ms", "ms",
        run.self_ms(pairs, "TableUnionSearch.add_table"))
    embed = "HashedEmbedder.embed_set"
    put("ml.embeddings.embed_set.texts", "count", run.value[embed])
    put("ml.embeddings.embed_set.self_ms", "ms", run.self_ms(embed))
    union_texts = sum(node.span.counters.get("value", 0.0) for node in nodes
                      if node.method == embed
                      and "DataLake.discover_union" in node.ancestors)
    put("ml.embeddings.embed_set.texts_per_union", "ratio", _ratio(union_texts, union_ops))
    put("ml.minhash.signature.calls", "count", run.calls["MinHasher.signature"])
    put("ml.minhash.signature.self_ms", "ms", run.self_ms("MinHasher.signature"))
    for method in ("add_table", "remove_table", "search"):
        put(f"exploration.keyword.{method}.self_ms", "ms",
            run.self_ms(f"KeywordSearch.{method}"))
    put("exploration.sql.SqlEngine.execute.self_ms", "ms", run.self_ms("SqlEngine.execute"))
    put("exploration.sql.SqlEngine.execute.rows", "count", run.value["SqlEngine.execute"])
    put("ingestion.gemms.extract.self_ms", "ms", run.self_ms("GemmsExtractor.extract"))
    put("organization.goods_catalog.register.self_ms", "ms",
        run.self_ms("GoodsCatalog.register"))
    put("provenance.record_ingest.self_ms", "ms",
        run.self_ms("ProvenanceRecorder.record_ingest"))
    put("storage.polystore.store.self_ms", "ms", run.self_ms("Polystore.store"))
    put("storage.polystore.fetch.self_ms", "ms", run.self_ms("Polystore.fetch"))
    op_time = sum(node.span.duration_ms / 1000.0 for node in nodes if not node.ancestors
                  and node.layer == "bench")
    put("bench.unattributed_frac", "ratio", _ratio(run.layer_self_s["bench"], op_time))
    put("bench.trace_overhead_frac", "ratio", trace_overhead)
    prepared = Rollup(node for op_nodes in setup.values() for node in op_nodes)
    for layer in LAYERS[1:-1]:
        put(f"setup.{layer}.self_ms", "ms", 1000.0 * prepared.layer_self_s[layer])
    return out


def layer_shares(measured: Dict[Any, List[Node]], kinds: Iterable[str]) -> Dict[str, float]:
    """Share of the time of the measured ops of *kinds* spent in each layer."""
    wanted = {f"op.{kind}" for kind in kinds}
    shares: Dict[str, float] = defaultdict(float)
    total = 0.0
    for op, nodes in measured.items():
        if op is None or nodes[0].method not in wanted:
            continue
        total += nodes[0].span.duration_ms / 1000.0
        for node in nodes:
            shares[node.layer] += node.self_s
    return {layer: _ratio(seconds, total) for layer, seconds in sorted(shares.items())}


SPAN_FIELDS = ("op", "name", "layer", "start", "duration_ms", "self_ms", "parent",
               "request_id")


def write_trace(phases: Dict[str, Dict[Any, List[Node]]], path: Any) -> None:
    """One JSON header line naming the fields, then one array per span."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"fields": ("phase",) + SPAN_FIELDS}) + "\n")
        for phase, ops in phases.items():
            for op, nodes in ops.items():
                for node in nodes:
                    span = node.span
                    handle.write(json.dumps([
                        phase, op, span.name, node.layer, span.start, span.duration_ms,
                        1000.0 * node.self_s,
                        node.ancestors[-1] if node.ancestors else None,
                        span.request_id]) + "\n")
