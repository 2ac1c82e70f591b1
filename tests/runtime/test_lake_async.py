"""Tests for the DataLake's maintenance modes: sync and async."""

import gc
import threading
import weakref
from collections import Counter

import pytest

from repro import DataLake
from repro.core.dataset import Dataset, Table
from repro.ingestion.gemms import GemmsExtractor
from repro.obs import get_registry
from repro.organization.goods_catalog import GoodsCatalog
from repro.runtime import IncrementalIndexMaintainer, RetryPolicy


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

    def test_queries_wait_out_a_job_without_copying_every_result(self, monkeypatch):
        # uncached, so the query reads the engine and quiesces first
        lake = fill(DataLake(async_maintenance=True, cache=False))
        lake.drain()
        expected = lake.discover_related("table_0", k=3)
        assert expected
        gate = threading.Event()
        lake.runtime.submit(gate.wait, name="gate")

        def copy_of_every_result(timeout=None):
            pytest.fail("a query called drain(), which copies every job result")

        monkeypatch.setattr(lake.runtime, "drain", copy_of_every_result)
        opener = threading.Timer(0.05, gate.set)
        opener.start()
        try:
            assert lake.discover_related("table_0", k=3) == expected
            assert gate.is_set() and lake.runtime.outstanding() == 0
        finally:
            gate.set()
            opener.join(5.0)
            monkeypatch.undo()
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

    def test_transient_catalog_fault_is_retried_to_success(self, monkeypatch):
        calls = {"n": 0}
        original = GoodsCatalog.register

        def flaky(self, dataset, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient catalog fault")
            return original(self, dataset, **kwargs)

        monkeypatch.setattr(GoodsCatalog, "register", flaky)
        lake = DataLake(async_maintenance=True)
        lake.runtime.default_retry = RetryPolicy(max_attempts=3, base_delay=0.002)
        lake.ingest_table("flaky", {"a": [1, 2, 3]})
        results = lake.drain()
        (job,) = [r for r in results.values() if r.name == "maintain:flaky"]
        assert job.ok and job.attempts == 2
        # the retry ran metadata extraction again, which replaced its record
        assert len(lake.metadata_repository) == 1
        assert lake.catalog.entry("flaky").content["num_columns"] == 1
        assert len(lake.provenance.events_about("flaky")) == 1
        lake.close()

    def test_permanent_fault_dead_letters_without_wedging(self, monkeypatch):
        def broken(self, dataset):
            raise RuntimeError("extractor is down")

        monkeypatch.setattr(GemmsExtractor, "extract", broken)
        lake = DataLake(async_maintenance=True)
        lake.runtime.default_retry = RetryPolicy(max_attempts=2, base_delay=0.002)
        lake.ingest_table("doomed", {"a": [1]})
        lake.drain()  # must return despite the dead job
        dead = lake.runtime.dead_letter()
        assert [(r.name, r.error_type) for r in dead] == [
            ("maintain:doomed", "RuntimeError")]
        # catalog registration follows metadata extraction in the same job
        assert "doomed" not in lake.catalog
        # the lake itself is not wedged: later ingests still work
        monkeypatch.undo()
        lake.ingest_table("healthy", {"b": [2]})
        lake.drain()
        assert "healthy" in lake.catalog
        lake.close()

    def test_bulk_load_submits_one_maintain_job_per_write(self):
        lake = DataLake(async_maintenance=True)
        gate = threading.Event()
        for _ in range(lake.runtime.workers):
            lake.runtime.submit(gate.wait, name="gate")
        fill(lake, count=8)
        lake.ingest_table("table_0", {"id": ["again"]})  # a re-ingest is a write
        gate.set()
        results = lake.drain()
        names = Counter(r.name for r in results.values())
        assert names.pop("gate") == lake.runtime.workers
        assert names == Counter(
            [f"maintain:table_{i}" for i in range(8)] + ["maintain:table_0"])
        assert all(r.ok for r in results.values())
        lake.close()

    def test_indexes_are_built_by_their_readers_as_in_a_sync_lake(self):
        lake = fill(DataLake(async_maintenance=True))
        lake.drain()
        # no query has read an index, so no job has built one
        assert len(lake.maintainer) == 0
        assert len(lake.maintainer._keyword) == 0
        assert lake.discover_related("table_0", k=3)  # builds Aurum in one pass
        assert len(lake.maintainer) == 6
        lake.ingest_table("late", {"customer_id": [f"c{r}" for r in range(20)]})
        results = lake.drain()
        (job,) = [r for r in results.values() if r.name == "maintain:late"]
        assert job.ok
        # the write's own job applied its Aurum delta; no query has run
        assert "late" in lake.maintainer
        assert lake.maintainer._dirty[lake.maintainer._aurum].peek() == []
        assert len(lake.maintainer._keyword) == 0
        assert len(lake.maintainer.dirty()) == 7  # the keyword and union backlogs
        lake.close()

    def test_the_index_maintainer_is_built_on_the_ingesting_thread(self, monkeypatch):
        built = []
        original = IncrementalIndexMaintainer.__init__

        def recording(self, *args, **kwargs):
            built.append(threading.current_thread())
            original(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalIndexMaintainer, "__init__", recording)
        lake = DataLake(async_maintenance=True)
        # a text dataset marks no table, so only its job would reach the maintainer
        lake.ingest(Dataset(name="notes", payload="free text", format="text"))
        lake.drain()
        fill(lake, count=2)
        lake.drain()
        # one maintainer, built before any job could race the caller to it
        assert built == [threading.current_thread()]
        assert lake.discover_related("table_0", k=3)
        lake.close()

    def test_finished_jobs_keep_no_superseded_version(self):
        lake = DataLake(async_maintenance=True)
        versions = []
        for version in range(5):
            table = Table.from_columns("orders", {"id": [version] * 10})
            dataset = Dataset(name="orders", payload=table, format="table")
            versions.append(weakref.ref(dataset))
            lake.ingest(dataset)
            del dataset, table
        lake.drain()
        gc.collect()
        alive = [ref() for ref in versions if ref() is not None]
        assert alive == [lake.dataset("orders")]
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
        first = lake.maintainer.searcher()
        second = lake.maintainer.searcher()
        assert first is second
        lake.ingest_table("late", {"city": ["berlin"] * 5})
        third = lake.maintainer.searcher()
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
