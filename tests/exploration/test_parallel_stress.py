"""Concurrency stress: discover_batch vs async ingest under injected faults.

The DLBench-style workload the ROADMAP targets is *mixed*: discovery
queries racing bulk ingest on a lake whose storage backend is actively
misbehaving.  This suite drives exactly that — ``discover_batch`` on the
main thread against a background ingest thread, with the relational
backend injecting 5% seeded faults — and asserts the safety properties
that make the query cache and async maintenance shippable:

- **no deadlock**: the whole run completes under a hard SIGALRM watchdog
  (the maintainer's read/write lock, per-query quiesces and scheduler
  drains can never wait on each other cyclically);
- **no stale reads**: engine epochs only ever move forward, and a query
  issued after ``ingest()`` returns always observes the new table; after
  the storm, union search answers as an index built from scratch;
- **drain() completes** while queries keep arriving;
- **zero unhandled exceptions**: injected faults surface as
  ``DataLakeError`` (handled) — never as a raw crash from a worker.
"""

import signal
import threading

import pytest

from repro.core.errors import DataLakeError
from repro.core.lake import DataLake
from repro.discovery.table_union import TableUnionSearch
from repro.faults import FaultInjector, FaultSchedule, FaultSpec, ResilienceConfig
from repro.runtime.jobs import RetryPolicy
from repro.storage.polystore import Polystore
from repro.storage.relational import RelationalStore

HARD_TIMEOUT_S = 120
FAULT_RATE = 0.05
SEED = 29


@pytest.fixture(autouse=True)
def hard_timeout():
    """Fail (don't hang) if the stress run deadlocks: a real pytest timeout."""
    def expired(signum, frame):
        raise TimeoutError(
            f"stress test exceeded the {HARD_TIMEOUT_S}s hard timeout — "
            f"likely deadlock between discovery and maintenance")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _faulty_polystore():
    schedule = FaultSchedule()
    schedule.set("relational", "*", FaultSpec(error_rate=FAULT_RATE))
    relational = FaultInjector(RelationalStore(), "relational", schedule,
                               seed=SEED)
    config = ResilienceConfig(
        failure_threshold=3, reset_timeout=0.02, probe_budget=1,
        success_threshold=1, replicate="on-failure",
        retry=RetryPolicy(max_attempts=2, base_delay=0.0005, multiplier=2.0,
                          max_delay=0.01, jitter=0.0),
    )
    return Polystore(relational=relational, resilience=config)


def _table_data(index):
    return {
        "id": list(range(12)),
        "entity_id": [j % 6 for j in range(12)],
        f"token{index:03d}": [f"val{index:03d}_{j}" for j in range(12)],
    }


def _ingest(lake, name, index, errors):
    try:
        lake.ingest_table(name, _table_data(index))
        return True
    except DataLakeError:
        return False  # injected fault surfaced as the documented error type
    except Exception as exc:  # the zero-unhandled acceptance gate
        errors.append(f"ingest {name}: {type(exc).__name__}: {exc}")
        return False


def _assert_monotonic(snapshots):
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert later >= earlier, f"epoch moved backwards: {earlier} -> {later}"


def test_discover_batch_vs_async_ingest_with_faults():
    lake = DataLake(polystore=_faulty_polystore(), async_maintenance=True,
                    cache=True)
    errors = []

    # seed a stable query population before the storm
    seeded = []
    for index in range(10):
        name = f"base_{index:03d}"
        if _ingest(lake, name, index, errors):
            seeded.append(name)
    assert len(seeded) >= 5, "too few seed tables survived the fault rate"

    ingested_during_storm = []
    stop = threading.Event()

    def ingest_worker():
        for index in range(10, 45):
            name = f"storm_{index:03d}"
            if _ingest(lake, name, index, errors):
                ingested_during_storm.append(name)
            if stop.is_set():
                break

    worker = threading.Thread(target=ingest_worker, name="stress-ingest")
    worker.start()

    snapshots = [lake.epochs.epoch()]
    batches = 0
    try:
        while worker.is_alive() or batches < 12:
            queries = [("related", name, 4) for name in seeded[:3]]
            queries += [("union", seeded[0], 3), ("keyword", "entity id", 6)]
            queries.append(("joinable", seeded[1], "entity_id", 4))
            try:
                results = lake.discover_batch(queries)
            except DataLakeError:
                results = None  # a degraded answer path, still handled
            except Exception as exc:  # the zero-unhandled acceptance gate
                errors.append(f"batch: {type(exc).__name__}: {exc}")
                results = None
            if results is not None:
                assert len(results) == len(queries)
            snapshots.append(lake.epochs.epoch())
            batches += 1
            # drain must complete even while the ingest thread keeps feeding
            lake.drain()
            if batches > 200:
                break
    finally:
        stop.set()
        worker.join()

    # coherence after the storm: a query issued after ingest() returned must
    # observe the ingested table — the cache can never pin a pre-ingest view
    lake.drain()
    snapshots.append(lake.epochs.epoch())
    assert not errors, f"unhandled exceptions under stress: {errors}"
    _assert_monotonic(snapshots)
    assert batches >= 12
    for name in ingested_during_storm[-3:]:
        index = int(name.split("_")[1])
        hits = lake.keyword_search(f"token{index:03d}", k=50)
        assert any(hit.table == name for hit in hits), (
            f"{name} ingested but invisible to post-ingest keyword search")
    related = lake.discover_related(seeded[0], k=50)
    assert {name for name, _ in related} >= set(seeded[1:3]), (
        "post-storm related-table answer is missing seed tables")
    # the union index, applied by batches racing the ingests, lost no table
    fresh = TableUnionSearch()
    for table in lake.tables():
        fresh.add_table(table)
    assert lake.discover_union(seeded[0], k=100, min_score=0.0) == fresh.top_k(
        lake.table(seeded[0]), k=100, min_score=0.0), (
        "post-storm union answer differs from a fresh build")

    # the runtime is fully drained and nothing died on the floor
    assert lake.runtime.outstanding() == 0
    assert lake.query_cache.stats()["misses"] > 0  # batches reached the engines
    lake.close()


def test_ingest_after_query_invalidates_under_async(tmp_path):
    """Tight ingest/query alternation: every round sees its own ingest."""
    lake = DataLake(async_maintenance=True, cache=True)
    snapshots = []
    try:
        for index in range(6):
            name = f"alt_{index}"
            lake.ingest_table(name, _table_data(index))
            snapshots.append(lake.epochs.epoch())
            hits = lake.keyword_search(f"token{index:03d}", k=20)
            assert any(hit.table == name for hit in hits)
        _assert_monotonic(snapshots)
    finally:
        lake.close()
