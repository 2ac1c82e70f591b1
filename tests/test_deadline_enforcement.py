"""End-to-end RequestContext deadline enforcement.

``check_deadline`` is the checkpoint the lake's entry points call; these
tests pin the layers the serving tier relies on: the helper itself, the
``DataLake._cached`` discovery funnel, which every query of a
``discover_batch`` passes through, and an async lake's wait for queued
maintenance.
"""

import threading
import time

import pytest

from repro.core.errors import DeadlineExceeded
from repro.core.lake import DataLake
from repro.obs import check_deadline, get_registry, request_context


@pytest.fixture
def lake():
    lake = DataLake.in_memory()
    lake.ingest_table("sales", {"region": ["EU", "US"], "amount": [10, 20]})
    lake.ingest_table("customers", {"region": ["EU"], "tier": ["gold"]})
    return lake


class TestCheckDeadline:
    def test_noop_without_context(self):
        check_deadline("anywhere")

    def test_noop_without_deadline(self):
        with request_context(tenant="acme"):
            check_deadline("anywhere")

    def test_noop_with_time_remaining(self):
        with request_context(timeout=60.0):
            check_deadline("anywhere")

    def test_expired_deadline_raises_and_counts(self):
        counter = get_registry().counter("context.deadline_exceeded")
        before = counter.value
        with request_context(tenant="acme", timeout=0.0):
            with pytest.raises(DeadlineExceeded, match="exceeded its deadline"):
                check_deadline("unit.test")
        assert counter.value - before == 1

    def test_error_names_the_checkpoint(self):
        with request_context(timeout=0.0):
            with pytest.raises(DeadlineExceeded, match="at unit.probe"):
                check_deadline("unit.probe")


class TestLakeCheckpoints:
    def test_cached_discovery_respects_the_deadline(self, lake):
        with request_context(tenant="acme", timeout=0.0):
            with pytest.raises(DeadlineExceeded):
                lake.discover_related("sales")

    def test_keyword_search_respects_the_deadline(self, lake):
        with request_context(timeout=0.0):
            with pytest.raises(DeadlineExceeded):
                lake.keyword_search("region")

    def test_discover_batch_respects_the_deadline(self, lake):
        with request_context(timeout=0.0):
            with pytest.raises(DeadlineExceeded):
                lake.discover_batch([("related", "sales", 3)])

    def test_discovery_still_works_with_time_remaining(self, lake):
        with request_context(timeout=60.0):
            assert lake.discover_related("sales")


class TestAsyncQuiesce:
    @pytest.fixture
    def async_lake(self):
        lake = DataLake(async_maintenance=True)
        lake.ingest_table("sales", {"region": ["EU", "US"], "amount": [10, 20]})
        lake.ingest_table("customers", {"region": ["EU"], "tier": ["gold"]})
        lake.drain()
        yield lake
        lake.close()

    def test_wait_for_maintenance_keeps_the_deadline(self, async_lake):
        release = threading.Event()
        async_lake.runtime.submit(release.wait, args=(10.0,), name="slow")
        started = time.perf_counter()
        try:
            with request_context(timeout=0.05):
                with pytest.raises(DeadlineExceeded, match="maintenance.quiesce"):
                    async_lake.discover_related("sales")
            assert time.perf_counter() - started < 2.0
        finally:
            release.set()

    def test_without_a_deadline_the_wait_is_unbounded(self, async_lake):
        async_lake.runtime.submit(time.sleep, args=(0.05,), name="short")
        with request_context(tenant="acme"):
            assert async_lake.discover_related("sales")
        assert async_lake.runtime.outstanding() == 0
