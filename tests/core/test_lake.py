"""Tests for the DataLake facade (Fig. 2 end-to-end)."""

import inspect
import json
import pathlib
import subprocess
import sys
import textwrap
import threading
from collections import Counter

import pytest

import repro.core.dataset as dataset_module
import repro.core.types as types_module
import repro.discovery.profiles as profiles_module
from repro import DataLake
from repro.core.dataset import Dataset, Table
from repro.core.errors import DataLakeError, DatasetNotFound

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def lake(customers, orders):
    lake = DataLake.in_memory()
    lake.ingest(Dataset("customers", customers))
    lake.ingest(Dataset("orders", orders))
    return lake


class TestIngestion:
    def test_ingest_table_convenience(self):
        lake = DataLake.in_memory()
        lake.ingest_table("t", {"a": [1, 2]})
        assert "t" in lake
        assert len(lake) == 1

    def test_ingest_extracts_metadata(self, lake):
        record = lake.metadata_repository.get("customers")
        assert record.properties["num_columns"] == 4

    def test_ingest_catalogs(self, lake):
        assert "customers" in lake.catalog
        entry = lake.catalog.entry("customers")
        assert entry.basic["backend"] == "relational"

    def test_ingest_records_provenance(self, lake):
        events = lake.provenance.events_about("customers")
        assert any(e.activity == "ingest" for e in events)

    def test_ingest_bytes_detects_csv(self):
        lake = DataLake.in_memory()
        lake.ingest_bytes("t", b"a,b\n1,x\n2,y\n", filename="t.csv")
        assert lake.table("t")["a"].values == ["1", "2"]

    def test_ingest_bytes_detects_json(self):
        lake = DataLake.in_memory()
        lake.ingest_bytes("docs", b'[{"a": 1}, {"a": 2}]', filename="docs.json")
        assert lake.dataset("docs").format == "json"


class TestAccess:
    def test_dataset_not_found(self, lake):
        with pytest.raises(DatasetNotFound):
            lake.dataset("missing")

    def test_datasets_sorted(self, lake):
        assert lake.datasets() == ["customers", "orders"]

    def test_tables(self, lake):
        assert len(lake.tables()) == 2


class TestDiscovery:
    def test_discover_joinable(self, lake):
        hits = lake.discover_joinable("orders", "customer_id", k=3)
        assert hits
        assert hits[0][0] == ("customers", "customer_id")

    def test_discover_related(self, lake):
        hits = lake.discover_related("orders", k=3)
        assert hits[0][0] == "customers"

    def test_integer_beyond_float_range_is_profiled(self):
        lake = DataLake()
        lake.ingest_table("big", {"id": ["a", "b", "c"], "n": [10**400, 5, 7]})
        lake.ingest_table("small", {"id": ["a", "b", "c"], "n": [5, 7, 9]})
        assert [hit[0] for hit in lake.discover_related("small")] == ["big"]
        assert lake.discover_joinable("big", "id")[0][0] == ("small", "id")

    def test_index_rebuilt_after_new_ingest(self, lake, products):
        lake.discover_joinable("orders", "customer_id")
        lake.ingest(Dataset("products", products))
        # the rebuilt index must know the new table
        hits = lake.discovery.related_tables("products", k=3)
        assert isinstance(hits, list)


class TestWritePathWork:
    def test_each_cell_is_checked_twice_at_most(self, monkeypatch, customers, orders):
        """Two ingests and a discovery query check each cell for null at
        most twice (type inference, then the one statistics pass) and
        compute none of the signals only D3L reads."""
        calls = Counter()

        def spy(module, name):
            real = getattr(module, name)

            def counting(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)

        for module, name in [(types_module, "is_null"), (dataset_module, "is_null"),
                             (profiles_module, "value_pattern"),
                             (profiles_module, "numeric_values"), (profiles_module, "qgrams")]:
            spy(module, name)
        lake = DataLake()
        lake.ingest(Dataset("customers", customers))
        lake.ingest(Dataset("orders", orders))
        assert lake.discover_related("customers")
        cells = sum(len(table) * table.width for table in (customers, orders))
        assert (calls["value_pattern"], calls["numeric_values"], calls["qgrams"]) == (0, 0, 0)
        assert 0 < calls["is_null"] <= 2 * cells


class TestExploration:
    def test_sql(self, lake):
        result = lake.sql("SELECT COUNT(*) FROM orders")
        assert result["count"].values == [250]

    def test_sql_join(self, lake):
        result = lake.sql(
            "SELECT name FROM orders JOIN customers "
            "ON orders.customer_id = customers.customer_id LIMIT 5"
        )
        assert len(result) == 5

    def test_keyword_search(self, lake):
        hits = lake.keyword_search("customer")
        assert {h.table for h in hits} >= {"customers", "orders"}


class TestReport:
    def test_architecture_report(self, lake):
        report = lake.architecture_report()
        assert report["datasets"] == 2
        assert report["storage"]["relational"] == 2
        assert report["provenance_events"] >= 2


class TestConstructor:
    def test_three_options(self):
        # profile=, slos=, registry= and the maintenance sizes are gone
        # (cache= forms: tests/exploration/test_query_cache.py)
        assert list(inspect.signature(DataLake).parameters) == [
            "async_maintenance", "polystore", "cache"]
        with pytest.raises(TypeError):
            DataLake(profile=False)

    def test_default_sync_lake_starts_no_thread(self):
        script = textwrap.dedent("""
            import json, threading
            from repro import DataLake

            lake = DataLake()
            lake.ingest_table("sales", {"city": ["berlin", "paris"], "amount": [1, 2]})
            lake.ingest_table("stores", {"city": ["berlin"], "size": [3]})
            lake.discover_related("sales")
            lake.keyword_search("berlin")
            lake.sql("SELECT * FROM sales")
            print(json.dumps([thread.name for thread in threading.enumerate()]))
        """)
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["MainThread"]


class TestFirstWrites:
    """Threads making a fresh lake's first writes all reach the same
    parts: every write is catalogued, described, recorded and indexed."""

    TRIALS = 150
    NAMES = ("t0", "t1", "t2", "t3")

    def _race(self, async_maintenance):
        """One fresh lake per trial, its first writes made by four threads
        at once under a tiny switch interval; returns the failed checks."""
        failures = Counter()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.TRIALS):
                lake = DataLake(async_maintenance=async_maintenance)
                start = threading.Barrier(len(self.NAMES))

                def write(name):
                    start.wait()
                    lake.ingest_table(name, {"city": [name, "berlin", "paris"]})

                threads = [threading.Thread(target=write, args=(name,))
                           for name in self.NAMES]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                lake.drain()
                failures["catalog"] += len(lake.catalog) != 4
                failures["metadata"] += len(lake.metadata_repository) != 4
                failures["provenance"] += len(lake.provenance.events("ingest")) != 4
                lake.discover_related("t0")
                failures["aurum"] += len(lake.discovery.table_names()) != 4
                lake.close()
        finally:
            sys.setswitchinterval(interval)
        return +failures

    def test_sync_first_writes_lose_nothing(self):
        assert self._race(async_maintenance=False) == {}

    def test_async_first_writes_lose_nothing(self, monkeypatch):
        from repro.runtime.scheduler import JobScheduler

        built = []
        init = JobScheduler.__init__

        def counted(scheduler, *args, **kwargs):
            built.append(scheduler)
            init(scheduler, *args, **kwargs)

        monkeypatch.setattr(JobScheduler, "__init__", counted)
        assert self._race(async_maintenance=True) == {}
        assert len(built) == self.TRIALS  # one scheduler per lake

    def test_async_workers_start_on_the_first_write(self):
        lake = DataLake(async_maintenance=True)
        try:
            assert lake.runtime.stats()["workers"] == 0
            lake.ingest_table("t0", {"city": ["berlin"]})
            assert lake.runtime.stats()["workers"] > 0
        finally:
            lake.close()


def _answers(lake):
    """Every exploration answer that could still name dataset ``a``."""
    def attempt(query):
        try:
            return query()
        except DataLakeError as exc:
            return type(exc).__name__
    return {
        "sql": attempt(lambda: lake.sql("SELECT * FROM a").to_records()),
        "related": lake.discover_related("b"),
        "joinable": lake.discover_joinable("b", "city"),
        "keyword": [(hit.table, hit.score) for hit in lake.keyword_search("berlin")],
        "union": lake.discover_union("b"),
    }


class TestReingestAsAnotherKind:
    TABLES = {
        "a": {"city": ["berlin", "paris", "rome"], "region": ["de", "fr", "it"]},
        "b": {"city": ["berlin", "paris", "oslo"], "region": ["de", "fr", "no"]},
        "c": {"sku": ["x1", "x2"], "price": [3, 4]},
    }

    @pytest.mark.parametrize("options", [
        {"cache": True}, {"cache": False}, {"async_maintenance": True},
    ], ids=["cache", "no-cache", "async"])
    def test_text_replacing_a_table_answers_like_a_fresh_lake(self, options):
        text = Dataset("a", "berlin field notes", format="text")
        lake = DataLake(**options)
        for name, data in self.TABLES.items():
            lake.ingest_table(name, data)
        before = _answers(lake)  # indexes and cache now hold table ``a``
        assert [name for name, _ in before["related"]] == ["a"]
        lake.ingest(text)
        fresh = DataLake(**options)
        for name, data in self.TABLES.items():
            if name != "a":
                fresh.ingest_table(name, data)
        fresh.ingest(text)
        lake.drain()
        fresh.drain()
        assert _answers(lake) == _answers(fresh)
        lake.close()
        fresh.close()
