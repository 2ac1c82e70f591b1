"""The storage breaker funnel, checked by running it.

Each of the relational, document and objects backends is wrapped in a
:class:`FaultInjector`, with one dataset placed on it.  Every public
entry point that touches that backend — ``Polystore.fetch``/``store``,
``DataLake.ingest``/``sql`` and ``FederatedQueryEngine.query`` — must
keep two promises:

- **(a)** with the backend's breaker open, it raises
  :class:`CircuitOpen` or fails over, and the backend sees no call;
- **(b)** a one-call outage on any single operation it calls gives the
  outcome of a fault-free run, with exactly one fault injected: each
  call runs under the guard, whose retry absorbs the fault.  A raw call
  would let the fault through as a :class:`BackendUnavailable`, which
  the entry point turns into a failover or a skipped source.

``DataLake.sql`` runs its engine inside the same guard, so a bad query
stays a data error and a transient fault is retried.
"""

import pytest

from repro.core.dataset import Dataset, Table
from repro.core.errors import CircuitOpen, DataLakeError, QueryError
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
from repro.storage.document import DocumentStore
from repro.storage.object_store import ObjectStore
from repro.storage.polystore import Placement, Polystore
from repro.storage.relational import RelationalStore

#: an outage no test reaches: it makes the injector count every call
COUNT_ONLY = FaultSpec(outages=((10**9, 10**9 + 1),))


def _people():
    return Dataset("people", Table.from_columns(
        "people", {"pid": [1, 2, 3], "name": ["ada", "bob", "cy"]}),
        format="table")


def _events():
    return Dataset("events", [{"eid": 1, "kind": "click"},
                              {"eid": 2, "kind": "view"}], format="json")


def _note():
    return Dataset("note", "plain text body", format="text")


#: backend -> (store class, the dataset placed on it, a second dataset)
BACKENDS = {
    "relational": (RelationalStore, _people, lambda: Dataset(
        "more", Table.from_columns("more", {"pid": [4], "name": ["di"]}),
        format="table")),
    "document": (DocumentStore, _events, lambda: Dataset(
        "more", [{"eid": 3, "kind": "buy"}], format="json")),
    "objects": (ObjectStore, _note, lambda: Dataset(
        "more", "another text body", format="text")),
}


def _lake(backend, **config):
    """A lake over a fault-injectable *backend* with one dataset on it."""
    store_class, placed, _ = BACKENDS[backend]
    schedule = FaultSchedule().set(backend, "*", COUNT_ONLY)
    injector = FaultInjector(store_class(), backend, schedule, seed=7)
    lake = DataLake(polystore=Polystore(
        **{backend: injector}, resilience=ResilienceConfig(**config)))
    lake.ingest(placed())
    assert lake.polystore.placement(placed().name).backend == backend
    return lake, injector, schedule


def _federated(source, property_map, patterns):
    def query(lake):
        engine = FederatedQueryEngine(lake.polystore)
        engine.profile_from_placement(source, property_map)
        return engine.query(patterns)
    return query


#: (entry point, backend) -> the call, for every entry point touching it
ENTRY_POINTS = {}
for _backend, (_, _placed, _second) in BACKENDS.items():
    ENTRY_POINTS.update({
        ("Polystore.fetch", _backend):
            lambda lake, name=_placed().name: lake.polystore.fetch(name),
        ("Polystore.store", _backend):
            lambda lake, second=_second: lake.polystore.store(second()),
        ("DataLake.ingest", _backend):
            lambda lake, second=_second: lake.ingest(second()),
    })
ENTRY_POINTS.update({
    ("DataLake.sql", "relational"):
        lambda lake: lake.sql("SELECT name FROM people"),
    ("FederatedQueryEngine.query", "relational"): _federated(
        "people", {"person": "pid", "name": "name"},
        [("?p", "person", "?i"), ("?p", "name", "?n")]),
    ("FederatedQueryEngine.query", "document"): _federated(
        "events", {"event": "eid", "kind": "kind"},
        [("?e", "event", "?i"), ("?e", "kind", "?k")]),
})


def _outcome(lake, entry, backend):
    """What *entry* answers, in a form two runs can compare."""
    try:
        result = ENTRY_POINTS[(entry, backend)](lake)
    except DataLakeError as exc:
        return ("raised", type(exc).__name__)
    if isinstance(result, Dataset):  # DataLake.ingest: where did it land?
        result = lake.polystore.placement(result.name)
    if isinstance(result, Placement):
        return ("placement", result.backend, result.degraded)
    if isinstance(result, FederatedResult):
        return ("federation", result.completeness.complete, list(result))
    if isinstance(result, Table):
        return ("table", [(c.name, c.values) for c in result.columns])
    return ("payload", result)


@pytest.mark.parametrize("entry,backend", sorted(ENTRY_POINTS))
def test_open_breaker_stops_every_entry_point_before_the_backend(entry, backend):
    lake, injector, schedule = _lake(backend, failure_threshold=1,
                                     reset_timeout=60.0)
    schedule.set(backend, "*", FaultSpec(error_rate=1.0))  # every call fails
    breaker = lake.polystore.health.breaker(backend)
    breaker.record_failure()
    assert breaker.state == OPEN
    before = injector.call_counts()
    try:
        outcome = ENTRY_POINTS[(entry, backend)](lake)
    except CircuitOpen:
        pass
    else:  # failed over: a degraded placement or a partial answer
        if isinstance(outcome, FederatedResult):
            assert not outcome.completeness.complete
        else:
            assert entry in ("Polystore.store", "DataLake.ingest"), outcome
            placement = (outcome if isinstance(outcome, Placement)
                         else lake.polystore.placement(outcome.name))
            assert placement.degraded
            assert placement.intended_backend == backend
    assert injector.call_counts() == before


def _calls_of(entry, backend):
    """``(operation, call index)`` of every backend call *entry* makes."""
    lake, injector, _ = _lake(backend)
    before = injector.call_counts()
    expected = _outcome(lake, entry, backend)
    after = injector.call_counts()
    calls = [(op, index) for op in sorted(after)
             for index in range(before.get(op, 0), after[op])]
    assert calls, f"{entry} makes no {backend} call"
    return expected, calls


@pytest.mark.parametrize("entry,backend", sorted(ENTRY_POINTS))
def test_one_call_outage_on_any_operation_is_absorbed(entry, backend):
    expected, calls = _calls_of(entry, backend)
    for op, index in calls:
        lake, injector, schedule = _lake(backend)  # default failure_threshold
        schedule.set(backend, op, FaultSpec(outages=((index, index + 1),)))
        assert _outcome(lake, entry, backend) == expected, (op, index)
        assert injector.injected_counts() == {op: 1}, (op, index)
        assert lake.polystore.health.breaker(backend).state == CLOSED


class TestGuardedSql:
    def test_malformed_query_is_a_data_error(self):
        lake, _relational, _ = _lake("relational", failure_threshold=1)
        with pytest.raises(QueryError):
            lake.sql("SELECT FROM WHERE")
        with pytest.raises(QueryError):
            lake.sql("SELECT ghost FROM people")
        assert lake.polystore.health.breaker("relational").state == CLOSED

    def test_fault_within_the_retry_budget_is_absorbed(self):
        lake, relational, schedule = _lake("relational")
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
