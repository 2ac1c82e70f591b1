"""LakeServer end-to-end: isolation, typed errors, quotas, breakers, deadlines."""

import pytest

from repro.core.errors import (AuthenticationError, CircuitOpen,
                               DatasetNotFound, DeadlineExceeded, QueryError,
                               Throttled)
from repro.core.lake import DataLake
from repro.faults import ResilienceConfig
from repro.obs import get_registry
from repro.serving import (AuthRegistry, LakeServer, ServingRequest,
                           ServingResponse, TenantQuota, qualify)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def server():
    with LakeServer(DataLake.in_memory(), auth=AuthRegistry(),
                    workers=2) as srv:
        yield srv


@pytest.fixture
def acme(server):
    token = server.register_tenant("acme")
    session = server.connect(token)
    session.ingest("sales", {"region": ["EU", "US", "APAC"],
                             "amount": [10, 20, 30]}).raise_for_status()
    session.ingest("customers", {"region": ["EU", "US"],
                                 "tier": ["gold", "silver"]}).raise_for_status()
    return session


@pytest.fixture
def beta(server):
    token = server.register_tenant("beta")
    session = server.connect(token)
    session.ingest("secrets", {"region": ["EU"],
                               "value": [42]}).raise_for_status()
    return session


class TestRequestResponseTypes:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            ServingRequest(op="drop_everything")

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            ServingRequest(op="fetch", name="x", timeout=0.0)

    def test_keyword_list_normalized_to_string(self):
        request = ServingRequest(op="discover", kind="keyword",
                                 keywords=["region", "tier"])
        assert request.keywords == "region tier"

    def test_raise_for_status_rehydrates_the_typed_error(self):
        response = ServingResponse(ok=False, op="fetch", tenant="acme",
                                   error="nope", error_type="DatasetNotFound")
        with pytest.raises(DatasetNotFound, match="nope"):
            response.raise_for_status()

    def test_shed_property_and_to_dict(self):
        shed = ServingResponse(ok=False, op="sql", tenant="a",
                               error="busy", error_type="Throttled")
        assert shed.shed is True
        assert shed.to_dict()["error_type"] == "Throttled"
        ok = ServingResponse(ok=True, op="sql", tenant="a", value=1,
                             request_id="req-1")
        assert ok.shed is False
        assert ok.to_dict()["value"] == 1
        assert "error" not in ok.to_dict()


class TestAuthPath:
    def test_unknown_token_is_a_typed_response(self, server):
        response = server.serve("bogus", ServingRequest(op="health"))
        assert not response.ok
        assert response.error_type == "AuthenticationError"
        assert response.tenant == ""

    def test_connect_with_unknown_token_raises(self, server):
        with pytest.raises(AuthenticationError):
            server.connect("bogus")

    def test_expired_token_fails_mid_session(self):
        clock = FakeClock()
        auth = AuthRegistry(clock=clock)
        with LakeServer(DataLake.in_memory(), auth=auth, workers=1,
                        clock=clock) as server:
            token = server.register_tenant("acme", ttl=10.0)
            session = server.connect(token)
            assert session.health().ok
            clock.advance(11.0)  # token expires while the session is open
            response = session.health()
            assert not response.ok
            assert response.error_type == "AuthenticationError"
            assert "expired" in response.error

    def test_revoked_token_fails_mid_session(self, server, acme):
        server.auth.revoke(acme.token)
        response = acme.fetch("sales")
        assert response.error_type == "AuthenticationError"


class TestTenantIsolation:
    def test_cross_tenant_fetch_is_dataset_not_found(self, acme, beta):
        response = acme.fetch("secrets")
        assert not response.ok
        assert response.error_type == "DatasetNotFound"
        # the error must read like a plain miss in the caller's namespace,
        # never confirm the dataset exists for someone else
        assert "beta" not in response.error

    def test_fetch_round_trips_own_data(self, acme):
        value = acme.fetch("sales").raise_for_status().value
        assert value["columns"]["amount"] == [10, 20, 30]
        assert value["rows"] == 3
        assert value["truncated"] is False

    def test_sql_sees_only_the_tenant_namespace(self, acme, beta):
        value = acme.sql("SELECT region, amount FROM sales "
                         "WHERE amount > 15").raise_for_status().value
        assert value["rows"] == [["US", 20], ["APAC", 30]]
        response = acme.sql("SELECT value FROM secrets")
        assert not response.ok  # beta's table does not resolve for acme

    def test_qualified_foreign_name_in_sql_is_rejected(self, acme, beta):
        # the namespace-qualified form is a serving-tier internal: using it
        # directly must never reach the shared lake, in any clause
        for query in ("SELECT value FROM beta__secrets",
                      "SELECT region FROM sales JOIN beta__secrets "
                      "ON sales.region = beta__secrets.region",
                      "SELECT beta__secrets.value FROM sales"):
            response = acme.sql(query)
            assert not response.ok
            assert response.error_type == "QueryError"
            assert "reserved" in response.error
        # ... but inside a string literal the separator is just data
        value = acme.sql("SELECT region FROM sales "
                         "WHERE region != 'beta__secrets'").raise_for_status().value
        assert len(value["rows"]) == 3

    def test_own_qualified_name_is_rejected_too(self, acme):
        # rejecting the separator outright keeps absence and denial
        # indistinguishable: the error never depends on who owns the name
        response = acme.sql("SELECT amount FROM acme__sales")
        assert response.error_type == "QueryError"

    def test_column_sharing_a_dataset_name_is_not_rewritten(self, acme):
        # only identifiers in table position are qualified: a column that
        # happens to match a dataset's name must stay a column reference
        acme.ingest("region", {"r": ["x"]}).raise_for_status()
        value = acme.sql("SELECT region FROM sales").raise_for_status().value
        assert value["rows"] == [["EU"], ["US"], ["APAC"]]
        value = acme.sql("SELECT region FROM sales "
                         "ORDER BY region").raise_for_status().value
        assert value["rows"] == [["APAC"], ["EU"], ["US"]]

    def test_ingest_name_with_separator_is_rejected(self, acme):
        response = acme.ingest("beta__secrets", {"a": [1]})
        assert response.error_type == "ValidationError"

    def test_sql_string_literals_survive_rewrite(self, acme):
        value = acme.sql("SELECT region FROM sales "
                         "WHERE region = 'EU'").raise_for_status().value
        assert value["rows"] == [["EU"]]

    def test_discovery_filters_foreign_tenants(self, acme, beta):
        beta.ingest("sales_mirror", {"region": ["EU", "US", "APAC"],
                                     "amount": [10, 20, 30]}).raise_for_status()
        related = acme.discover("related", "sales", k=10).raise_for_status()
        names = [name for name, _ in related.value]
        assert "customers" in names
        assert all("mirror" not in name and "secrets" not in name
                   for name in names)
        keyword = acme.discover("keyword", keywords="region",
                                k=10).raise_for_status()
        assert {hit["table"] for hit in keyword.value} <= {"sales", "customers"}

    def test_discover_batch_filters_and_aligns(self, acme, beta):
        response = acme.discover_batch([
            {"kind": "related", "table": "sales"},
            {"kind": "keyword", "keywords": "region"},
            ("joinable", "sales", "region"),
        ]).raise_for_status()
        related, keyword, joinable = response.value
        assert all("secrets" not in name for name, _ in related)
        assert all("secrets" != hit["table"] for hit in keyword)
        assert all(name == "customers" for (name, _), _ in joinable)

    def test_datasets_live_under_the_qualified_name(self, server, acme):
        assert qualify("acme", "sales") in server.lake.datasets()
        assert "sales" not in server.lake.datasets()

    def test_union_discovery_filters_foreign_tenants(self, acme, beta):
        beta.ingest("sales_copy", {"region": ["EU"],
                                   "amount": [1]}).raise_for_status()
        response = acme.discover("union", "sales", k=10).raise_for_status()
        assert all("copy" not in name for name, _ in response.value)

    def test_unknown_discovery_kind_is_a_query_error(self, acme):
        assert acme.discover("psychic", "sales").error_type == "QueryError"

    def test_fetch_of_non_tabular_dataset_returns_payload(self, server, acme):
        from repro.core.dataset import Dataset

        server.lake.ingest(Dataset(name=qualify("acme", "blob"),
                                   payload={"k": "v"}, format="json"))
        value = acme.fetch("blob").raise_for_status().value
        assert value["payload"] == {"k": "v"}

    def test_sql_with_empty_namespace_is_still_isolated(self, server):
        session = server.connect(server.register_tenant("empty"))
        response = session.sql("SELECT a FROM missing")
        # table position is qualified unconditionally, so the miss lands
        # inside the empty namespace as a typed DatasetNotFound
        assert not response.ok
        assert response.error_type == "DatasetNotFound"

    def test_foreign_slots_counted_from_catalog_metadata(self, server, acme, beta):
        from repro.core.dataset import Dataset

        # doc lists count the union of their record keys, non-tabular
        # payloads count zero — none of them are materialized as tables
        server.lake.ingest(Dataset(name=qualify("beta", "docs"),
                                   payload=[{"a": 1}, {"b": 2}], format="json"))
        server.lake.ingest(Dataset(name=qualify("beta", "notes"),
                                   payload="free text", format="text"))
        # beta: secrets (2 columns) + docs (2 keys) + notes (0)
        assert server._foreign_slots_unguarded("acme", "joinable") == 4
        assert server._foreign_slots_unguarded("acme", "related") == 3
        # widths are cached per catalog epoch and invalidated on ingest
        assert server._foreign_slots_unguarded("acme", "joinable") == 4
        beta.ingest("wide", {"x": [1], "y": [2], "z": [3]}).raise_for_status()
        assert server._foreign_slots_unguarded("acme", "joinable") == 7

    def test_joinable_discovery_tolerates_non_tabular_foreigners(self, acme, beta, server):
        from repro.core.dataset import Dataset

        server.lake.ingest(Dataset(name=qualify("beta", "notes"),
                                   payload="free text", format="text"))
        response = acme.discover("joinable", "sales", column="region", k=5)
        assert response.raise_for_status().ok


class TestQuotaEnforcement:
    def _tight_server(self):
        clock = FakeClock()
        server = LakeServer(DataLake.in_memory(), auth=AuthRegistry(),
                            workers=2, clock=clock)
        token = server.register_tenant("acme", quota=TenantQuota(
            max_in_flight=8, requests_per_sec=10.0, burst=2))
        return server, server.connect(token), clock

    def test_flood_is_shed_and_recovers_after_refill(self):
        server, session, clock = self._tight_server()
        with server:
            session.ingest("t", {"a": [1]}).raise_for_status()
            assert session.fetch("t").ok  # burst token 2 of 2
            response = session.fetch("t")
            assert response.shed and response.error_type == "Throttled"
            with pytest.raises(Throttled):
                response.raise_for_status()
            clock.advance(0.1)  # one token refills at 10/s
            assert session.fetch("t").ok
            assert session.fetch("t").shed

    def test_two_sessions_share_one_tenant_quota(self):
        server, first, clock = self._tight_server()
        with server:
            second = server.connect(server.register_tenant("acme"))
            first.ingest("t", {"a": [1]}).raise_for_status()
            assert second.fetch("t").ok  # burst drained across both sessions
            assert first.fetch("t").shed
            assert second.fetch("t").shed

    def test_shedding_counts_the_labeled_metric(self):
        server, session, clock = self._tight_server()
        throttled = get_registry().counter("serving.throttled", tenant="acme")
        requests = get_registry().counter("serving.requests", tenant="acme")
        shed_before, seen_before = throttled.value, requests.value
        with server:
            session.ingest("t", {"a": [1]}).raise_for_status()
            session.fetch("t")
            session.fetch("t")  # over burst: shed
        assert throttled.value - shed_before == 1
        assert requests.value - seen_before == 3  # ingest + 2 fetches

    def test_result_rows_are_truncated_not_rejected(self, server):
        token = server.register_tenant("tiny", quota=TenantQuota(
            max_result_rows=2))
        session = server.connect(token)
        session.ingest("t", {"a": [1, 2, 3, 4]}).raise_for_status()
        fetched = session.fetch("t").raise_for_status().value
        assert fetched["rows"] == 2 and fetched["truncated"] is True
        assert fetched["columns"]["a"] == [1, 2]
        queried = session.sql("SELECT a FROM t").raise_for_status().value
        assert len(queried["rows"]) == 2 and queried["truncated"] is True

    def test_sql_reply_rows_past_the_cap_and_empty(self, server):
        session = server.connect(server.register_tenant("tiny", quota=TenantQuota(
            max_result_rows=2)))
        session.ingest("t", {"a": [1, 2, 3], "b": ["x", None, "z"]}).raise_for_status()
        assert session.sql("SELECT * FROM t").raise_for_status().value == {
            "columns": ["a", "b"], "rows": [[1, "x"], [2, None]], "truncated": True}
        assert session.sql("SELECT b FROM t WHERE a > 9").raise_for_status().value == {
            "columns": ["b"], "rows": [], "truncated": False}


class TestDeadlines:
    def test_expired_deadline_is_a_typed_response(self, acme):
        response = acme.discover("related", "sales", timeout=1e-9)
        assert not response.ok
        assert response.error_type == "DeadlineExceeded"
        with pytest.raises(DeadlineExceeded):
            response.raise_for_status()

    def test_generous_deadline_passes(self, acme):
        assert acme.fetch("sales", timeout=30.0).ok

    def test_server_default_timeout_applies(self):
        with LakeServer(DataLake.in_memory(), auth=AuthRegistry(), workers=1,
                        default_timeout=1e-9) as server:
            session = server.connect(server.register_tenant("acme"))
            response = session.health()
            assert response.error_type == "DeadlineExceeded"

    def test_stalled_backend_is_abandoned_not_pinned(self, monkeypatch):
        import threading
        import time as _time

        release = threading.Event()
        with LakeServer(DataLake.in_memory(), auth=AuthRegistry(), workers=1,
                        deadline_grace=0.05) as server:
            session = server.connect(server.register_tenant("acme"))
            session.ingest("t", {"a": [1]}).raise_for_status()
            original = server.lake.sql

            def stall(query):
                release.wait(5.0)  # no cooperative checkpoint in here
                return original(query)

            monkeypatch.setattr(server.lake, "sql", stall)
            abandoned = get_registry().counter("serving.abandoned",
                                               tenant="acme")
            before = abandoned.value
            started = _time.monotonic()
            response = session.sql("SELECT a FROM t", timeout=0.05)
            waited = _time.monotonic() - started
            # the caller gets a typed error shortly after deadline + grace,
            # not whenever the stalled backend call decides to return
            assert response.error_type == "DeadlineExceeded"
            assert "abandoned" in response.error
            assert waited < 2.0
            assert abandoned.value == before + 1
            # the admission slot stays held while the worker is busy ...
            assert server._admission.pending() == 1
            release.set()
            # ... and is released once the stalled call finally completes
            cutoff = _time.monotonic() + 5.0
            while server._admission.pending() and _time.monotonic() < cutoff:
                _time.sleep(0.01)
            assert server._admission.pending() == 0

    def test_deadline_grace_validated(self):
        with pytest.raises(ValueError, match="deadline_grace"):
            LakeServer(DataLake.in_memory(), deadline_grace=-1.0)


class TestBreakerPath:
    def _failing_server(self):
        config = ResilienceConfig(failure_threshold=3, reset_timeout=60.0)
        server = LakeServer(DataLake.in_memory(), auth=AuthRegistry(),
                            workers=1, resilience=config)
        session = server.connect(server.register_tenant("acme"))
        return server, session

    def test_backend_failures_open_the_tenant_breaker(self, monkeypatch):
        server, session = self._failing_server()
        with server:
            def boom(query):
                raise RuntimeError("backend down")

            monkeypatch.setattr(server.lake, "sql", boom)
            for _ in range(3):
                response = session.sql("SELECT 1 FROM t")
                assert response.error_type == "RuntimeError"
            response = session.sql("SELECT 1 FROM t")
            assert response.error_type == "CircuitOpen"
            assert response.shed is True
            with pytest.raises(CircuitOpen):
                response.raise_for_status()

    def test_data_errors_do_not_trip_the_breaker(self):
        server, session = self._failing_server()
        with server:
            session.ingest("t", {"a": [1]}).raise_for_status()
            for _ in range(10):
                assert session.fetch("gone").error_type == "DatasetNotFound"
            assert session.fetch("t").ok  # breaker still closed

    def test_tenant_breakers_are_isolated(self, monkeypatch):
        server, session = self._failing_server()
        with server:
            other = server.connect(server.register_tenant("beta"))
            other.ingest("t", {"a": [1]}).raise_for_status()
            original = server.lake.sql

            def boom(query):
                raise RuntimeError("backend down")

            monkeypatch.setattr(server.lake, "sql", boom)
            for _ in range(4):
                session.sql("SELECT 1 FROM t")
            monkeypatch.setattr(server.lake, "sql", original)
            assert session.sql("SELECT a FROM t").error_type == "CircuitOpen"
            assert other.fetch("t").ok  # beta's breaker never saw a failure


class TestServerLifecycle:
    def test_malformed_requests_are_typed_errors(self, acme):
        assert acme.sql("").error_type == "QueryError"
        with pytest.raises(QueryError):
            acme.sql("").raise_for_status()
        assert acme.discover("joinable", "sales").error_type == "QueryError"
        assert acme.ingest("t", None).error_type == "SchemaError"

    def test_responses_carry_request_ids_and_latency(self, acme):
        response = acme.health()
        assert response.request_id.startswith("req-")
        assert response.elapsed_ms > 0

    def test_health_reports_serving_stats(self, acme):
        value = acme.health().raise_for_status().value
        assert value["healthy"] is True
        assert value["serving"]["admission"]["tenants"]["acme"]["admitted"] > 0

    def test_health_is_scoped_to_the_calling_tenant(self, acme, beta):
        # the embedded serving view must not reveal the tenant roster or
        # another tenant's admission counts / breaker state
        value = acme.health().raise_for_status().value
        serving = value["serving"]
        assert list(serving["admission"]["tenants"]) == ["acme"]
        assert set(serving["breakers"]) <= {"tenant:acme"}
        assert "pending" in serving["admission"]  # neutral aggregates stay
        other = beta.health().raise_for_status().value
        assert list(other["serving"]["admission"]["tenants"]) == ["beta"]

    def test_stats_for_unknown_tenant_is_empty_but_shaped(self, server):
        view = server.stats_for("ghost")
        assert view["admission"]["tenants"] == {}
        assert view["breakers"] == {}

    def test_serve_after_close_is_a_typed_error(self, server, acme):
        server.close()
        response = acme.health()
        assert not response.ok
        assert "closed" in response.error

    def test_lake_server_factory(self):
        lake = DataLake.in_memory()
        server = lake.server(workers=1)
        try:
            assert server.lake is lake
            session = server.connect(server.register_tenant("acme"))
            assert session.health().ok
        finally:
            server.close()

    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers"):
            LakeServer(DataLake.in_memory(), workers=0)

    def test_stats_shape(self, server, acme):
        stats = server.stats()
        assert stats["workers"] == 2
        assert stats["closed"] is False
        assert "acme" in stats["admission"]["tenants"]
        assert "tenant:acme" in stats["breakers"]
