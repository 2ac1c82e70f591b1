"""Tests for the DataLake's maintenance modes: sync and async."""

import threading

import pytest

from repro import DataLake
from repro.core.dataset import Dataset
from repro.ingestion.gemms import GemmsExtractor
from repro.obs import get_registry
from repro.runtime import RetryPolicy


def fill(lake, count=6):
    for i in range(count):
        lake.ingest_table(f"table_{i}", {
            "id": [f"{i}-{r}" for r in range(20)],
            "customer_id": [f"c{r}" for r in range(20)],
            "city": ["berlin" if r % 2 else "paris" for r in range(20)],
        }, source=f"src-{i}")
    return lake


class TestAsyncMode:
    def test_bulk_ingest_then_drain_completes_all_maintenance(self):
        lake = fill(DataLake(async_maintenance=True))
        results = lake.drain()
        assert results and all(r.ok for r in results.values())
        assert len(lake.catalog) == 6
        assert len(lake.metadata_repository) == 6
        assert all(lake.provenance.events_about(f"table_{i}") for i in range(6))
        lake.close()

    def test_queries_quiesce_pending_maintenance(self):
        lake = fill(DataLake(async_maintenance=True))
        # no explicit drain: exploration must wait out the queue itself
        hits = lake.keyword_search("berlin")
        assert len(hits) == 6
        joinable = lake.discover_joinable("table_0", "customer_id", k=3)
        assert joinable
        lake.close()

    def test_transient_fault_is_retried_to_success(self, monkeypatch):
        calls = {"n": 0}
        original = GemmsExtractor.extract

        def flaky(self, dataset):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("transient extractor fault")
            return original(self, dataset)

        monkeypatch.setattr(GemmsExtractor, "extract", flaky)
        lake = DataLake(async_maintenance=True)
        lake.runtime.default_retry = RetryPolicy(max_attempts=5, base_delay=0.002)
        lake.ingest_table("flaky", {"a": [1, 2, 3]})
        results = lake.drain()
        assert calls["n"] == 3
        assert all(r.ok for r in results.values())
        assert lake.metadata_repository.get("flaky").properties["num_columns"] == 1
        lake.close()

    def test_permanent_fault_dead_letters_without_wedging(self, monkeypatch):
        def broken(self, dataset):
            raise RuntimeError("extractor is down")

        monkeypatch.setattr(GemmsExtractor, "extract", broken)
        lake = DataLake(async_maintenance=True)
        lake.runtime.default_retry = RetryPolicy(max_attempts=2, base_delay=0.002)
        lake.ingest_table("doomed", {"a": [1]})
        results = lake.drain()  # must return despite the dead jobs
        dead = lake.runtime.dead_letter()
        assert any(r.name == "metadata:doomed" for r in dead)
        # catalog registration depends on metadata -> abandoned upstream
        assert any(r.name == "catalog:doomed" and r.error_type == "UpstreamFailed"
                   for r in results.values())
        # the lake itself is not wedged: later ingests still work
        monkeypatch.undo()
        lake.ingest_table("healthy", {"b": [2]})
        lake.drain()
        assert "healthy" in lake.catalog
        lake.close()

    def test_refresh_jobs_coalesce(self):
        lake = DataLake(async_maintenance=True)
        # hold every worker until all ingests are in: a refresh coalesces
        # only while it is still queued, and an idle worker starts each
        # one at once
        gate = threading.Event()
        for _ in range(lake.runtime.workers):
            lake.runtime.submit(gate.wait, name="gate")
        fill(lake, count=12)
        gate.set()
        lake.drain()
        refreshes = [j for j in lake.runtime.results() if j.startswith("index:refresh")]
        # strictly fewer refresh jobs than ingests proves coalescing
        assert 1 <= len(refreshes) < 12
        assert len(lake.keyword_search("berlin", k=20)) == 12
        lake.close()

    def test_architecture_report_includes_runtime(self):
        lake = fill(DataLake(async_maintenance=True), count=2)
        lake.drain()
        report = lake.architecture_report()
        assert report["maintenance_jobs"]["outstanding"] == 0
        assert report["maintenance_jobs"]["by_state"].keys() == {"succeeded"}
        lake.close()


class TestSyncIncrementalMode:
    def test_keyword_searcher_is_cached_not_rebuilt(self):
        lake = fill(DataLake.in_memory(), count=3)
        first = lake._keyword_searcher()
        second = lake._keyword_searcher()
        assert first is second
        lake.ingest_table("late", {"city": ["berlin"] * 5})
        third = lake._keyword_searcher()
        assert third is first  # same instance, delta-updated
        assert "late" in {h.table for h in lake.keyword_search("berlin")}

    def test_discovery_engine_is_persistent(self):
        lake = fill(DataLake.in_memory(), count=3)
        engine = lake.discovery
        lake.ingest_table("table_99", {
            "id": [f"x{r}" for r in range(20)],
            "customer_id": [f"c{r}" for r in range(20)],
        })
        assert lake.discovery is engine
        assert ("table_99", "customer_id") in [
            ref for ref, _ in lake.discovery.joinable("table_0", "customer_id", k=10)
        ]

    def test_drain_is_noop_in_sync_mode(self):
        lake = fill(DataLake.in_memory(), count=1)
        assert lake.drain() == {}
        lake.close()  # also a no-op


class TestTablesErrorNarrowing:
    def test_nontabular_payloads_are_counted_not_swallowed(self):
        lake = DataLake.in_memory()
        lake.ingest_table("good", {"a": [1, 2]})
        lake.ingest(Dataset(name="blob", payload="free text", format="text"))
        counter = get_registry().counter("lake.tables.skipped_nontabular")
        before = counter.value
        tables = lake.tables()
        assert [t.name for t in tables] == ["good"]
        assert counter.value == before + 1

    def test_unexpected_errors_propagate(self):
        lake = DataLake.in_memory()
        lake.ingest_table("good", {"a": [1]})
        broken = lake.dataset("good")

        class Exploding:
            def as_table(self):
                raise MemoryError("not a schema problem")

        lake._datasets["bad"] = Exploding()
        with pytest.raises(MemoryError):
            lake.tables()
        del lake._datasets["bad"]
        assert broken.as_table() is not None
