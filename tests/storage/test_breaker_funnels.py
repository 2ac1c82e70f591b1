"""The storage breaker funnel, checked by running it.

With the relational breaker open, every public entry point that reads
or writes relational data — ``Polystore.fetch``/``store``,
``DataLake.ingest``/``sql`` and ``FederatedQueryEngine.query`` — either
raises :class:`CircuitOpen` or fails over, and the backend sees no
call.  ``DataLake.sql`` runs its engine inside the same guard, so a bad
query stays a data error and a transient fault is retried.
"""

import pytest

from repro.core.dataset import Dataset, Table
from repro.core.errors import CircuitOpen, QueryError
from repro.core.lake import DataLake
from repro.exploration.federation import FederatedQueryEngine, FederatedResult
from repro.faults import (
    CLOSED,
    OPEN,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    ResilienceConfig,
)
from repro.storage.polystore import Placement, Polystore
from repro.storage.relational import RelationalStore


def _lake(**config):
    """A lake over a fault-injectable relational backend, one table in."""
    schedule = FaultSchedule()
    relational = FaultInjector(RelationalStore(), "relational", schedule, seed=7)
    lake = DataLake(polystore=Polystore(
        relational=relational, resilience=ResilienceConfig(**config)))
    lake.ingest_table("people", {"pid": [1, 2, 3],
                                 "name": ["ada", "bob", "cy"]})
    return lake, relational, schedule


def _people():
    return Table.from_columns("more", {"pid": [4], "name": ["di"]})


def _federated(lake):
    engine = FederatedQueryEngine(lake.polystore)
    engine.profile_from_placement("people", {"person": "pid", "name": "name"})
    result = engine.query([("?p", "person", "?i"), ("?p", "name", "?n")])
    assert isinstance(result, FederatedResult)
    return result


ENTRY_POINTS = {
    "Polystore.fetch": lambda lake: lake.polystore.fetch("people"),
    "Polystore.store": lambda lake: lake.polystore.store(
        Dataset("more", _people())),
    "DataLake.ingest": lambda lake: lake.ingest(
        Dataset("more", _people(), format="table")),
    "DataLake.sql": lambda lake: lake.sql("SELECT name FROM people"),
    "FederatedQueryEngine.query": _federated,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_open_breaker_stops_every_entry_point_before_the_backend(entry):
    lake, relational, schedule = _lake(failure_threshold=1, reset_timeout=60.0)
    # from here on every relational call is counted (and would fail)
    schedule.set("relational", "*", FaultSpec(error_rate=1.0))
    breaker = lake.polystore.health.breaker("relational")
    breaker.record_failure()
    assert breaker.state == OPEN
    before = relational.call_counts()
    try:
        outcome = ENTRY_POINTS[entry](lake)
    except CircuitOpen:
        pass
    else:  # failed over: a degraded placement or a partial answer
        if isinstance(outcome, FederatedResult):
            assert not outcome.completeness.complete
        elif entry != "Polystore.fetch":
            placement = (outcome if isinstance(outcome, Placement)
                         else lake.polystore.placement(outcome.name))
            assert placement.degraded
            assert placement.intended_backend == "relational"
    assert relational.call_counts() == before


class TestGuardedSql:
    def test_malformed_query_is_a_data_error(self):
        lake, _relational, _ = _lake(failure_threshold=1)
        with pytest.raises(QueryError):
            lake.sql("SELECT FROM WHERE")
        with pytest.raises(QueryError):
            lake.sql("SELECT ghost FROM people")
        assert lake.polystore.health.breaker("relational").state == CLOSED

    def test_fault_within_the_retry_budget_is_absorbed(self):
        lake, relational, schedule = _lake()
        calls = relational.call_counts().get("table", 0)
        # the next `table` call fails once; the guard's retry succeeds
        schedule.set("relational", "table",
                     FaultSpec(outages=((calls, calls + 1),)))
        answer = lake.sql("SELECT name FROM people WHERE pid > 1")
        assert answer["name"].values == ["bob", "cy"]
        assert relational.injected_counts() == {"table": 1}
        assert lake.polystore.health.breaker("relational").state == CLOSED


class TestOversizedIntegers:
    """An integer beyond float range is a non-numeric value to SQL, not a
    backend failure that counts against the breaker."""

    def test_literal_matches_nothing_and_the_breaker_stays_closed(self):
        lake = DataLake()
        lake.ingest_table("sales", {"amount": [5, 50]})
        query = "SELECT * FROM sales WHERE amount > 1" + "0" * 400
        for _ in range(2):
            assert len(lake.sql(query)) == 0
        assert lake.polystore.health.breaker("relational").state == CLOSED
        assert lake.sql("SELECT amount FROM sales WHERE amount > 10")["amount"].values == [50]

    @pytest.fixture
    def big(self):
        lake = DataLake()
        lake.ingest_table("big", {"id": ["a", "b"], "n": [10**400, 5]})
        return lake

    def test_stored_cell_is_non_numeric_to_where(self, big):
        assert big.sql("SELECT id FROM big WHERE n > 3")["id"].values == ["b"]

    def test_stored_cell_orders_as_text_after_numbers(self, big):
        assert big.sql("SELECT * FROM big ORDER BY n")["id"].values == ["b", "a"]
