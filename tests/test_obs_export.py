"""Exporters + end-to-end instrumentation through the DataLake facade."""

import json

import pytest

from repro import DataLake
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    aggregate_spans,
    enable,
    export_json,
    export_prometheus,
    get_recorder,
    render_metrics_table,
    render_span_tree,
    reset,
)


@pytest.fixture(autouse=True)
def clean_obs():
    enable()
    reset()
    yield
    enable()
    reset()


def small_lake() -> DataLake:
    lake = DataLake.in_memory()
    lake.ingest_table("sales", {
        "region": ["EU", "US", "CN"], "amount": [10, 20, 30],
    }, source="erp")
    lake.ingest_table("regions", {
        "region": ["EU", "US", "CN"], "name": ["Europe", "America", "China"],
    }, source="wiki")
    return lake


@pytest.mark.usefixtures("keep_every_span")
class TestEndToEndInstrumentation:
    def test_ingest_plus_discovery_covers_three_tiers(self):
        lake = small_lake()
        hits = lake.discover_joinable("sales", "region", k=5)
        assert hits  # the two region columns are joinable
        report = lake.observability.report()
        assert report["span_count"] > 0
        assert {"storage", "ingestion", "maintenance", "exploration"} <= set(report["tiers"])
        assert {"Constance", "GEMMS", "Aurum"} <= set(report["systems"])
        # tier entries carry per-function call counts and times
        storage = report["tiers"]["storage"]
        assert storage["calls"] >= 2
        assert storage["total_ms"] >= 0.0
        assert storage["functions"]["storage_backend"]["calls"] >= 2

    def test_export_json_round_trips(self):
        lake = small_lake()
        lake.discover_related("sales", k=3)
        data = json.loads(lake.observability.export_json())
        assert data["schema"] == "repro.obs/v1"
        assert data["spans"], "expected recorded root spans"
        tiers = data["aggregates"]["tiers"]
        assert {"storage", "ingestion", "maintenance", "exploration"} <= set(tiers)
        # span_ms histograms were fed by the recorder
        assert any(name.startswith("span_ms.") for name in data["metrics"])

    def test_span_tree_renders_nested_structure(self):
        lake = small_lake()
        tree = lake.observability.span_tree()
        assert "ingestion.lake.ingest" in tree
        assert "storage.polystore.store" in tree
        assert "ms" in tree
        # children are indented under their parent
        store_line = next(l for l in tree.splitlines() if "polystore.store" in l)
        assert store_line.startswith(("│", " ", "├", "└")) and "├─" in store_line or "└─" in store_line

    def test_metrics_table_uses_render_table(self):
        small_lake()
        table = render_metrics_table()
        assert "=== metrics registry ===" in table
        assert "span_ms.ingestion.lake.ingest" in table

    def test_render_report_sections(self):
        lake = small_lake()
        text = lake.observability.render_report()
        assert "=== time by tier / function ===" in text
        assert "=== time by system ===" in text
        assert "GEMMS" in text


class TestExportFunctions:
    def test_export_json_explicit_recorder_and_registry(self):
        recorder = SpanRecorder()
        registry = MetricsRegistry()
        registry.counter("ops").inc(2)
        with recorder.span("solo", tier="storage") as span:
            span.add("rows", 3)
        data = json.loads(export_json(recorder, registry, indent=2))
        assert data["spans"][0]["name"] == "solo"
        assert data["spans"][0]["counters"] == {"rows": 3}
        assert data["metrics"]["ops"]["value"] == 2
        assert data["aggregates"]["tiers"]["storage"]["calls"] == 1

    def test_export_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("lake.ops-total").inc(7)
        registry.gauge("queue depth").set(3)
        registry.histogram("lat", buckets=(1.0, 10.0)).observe(5.0)
        text = export_prometheus(registry)
        assert "# TYPE lake_ops_total counter" in text
        assert "lake_ops_total 7" in text
        assert "queue_depth 3" in text
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="1.0"} 0' in text
        assert 'lat_bucket{le="10.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_render_span_tree_empty(self):
        assert render_span_tree(SpanRecorder()) == "(no spans recorded)"

    def test_render_span_tree_limits_roots(self):
        recorder = SpanRecorder()
        for index in range(5):
            with recorder.span(f"root_{index}"):
                pass
        tree = render_span_tree(recorder, max_roots=2)
        assert "root_3" in tree and "root_4" in tree
        assert "root_0" not in tree

    def test_aggregate_spans_counts_errors(self):
        recorder = SpanRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("bad", tier="storage"):
                raise RuntimeError()
        aggregates = aggregate_spans(recorder.all_spans())
        assert aggregates["span_count"] == 1
        assert aggregates["error_count"] == 1

    @pytest.mark.usefixtures("keep_every_span")
    def test_failed_discovery_still_recorded(self):
        lake = small_lake()
        from repro.core.errors import DatasetNotFound

        with pytest.raises(DatasetNotFound):
            lake.discover_joinable("sales", "no_such_column", k=3)
        roots = get_recorder().roots()
        failed = [r for r in roots if r.name == "exploration.lake.discover_joinable"]
        assert failed and failed[-1].status == "error"
