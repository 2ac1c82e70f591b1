"""End-to-end RequestContext deadline enforcement.

``check_deadline`` is the checkpoint the lake's entry points call; these
tests pin the two layers the serving tier relies on: the helper itself
and the ``DataLake._cached`` discovery funnel, which every query of a
``discover_batch`` passes through.
"""

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

