"""The structured event log: ring bounds, attribution, JSONL, concurrency."""

import json
import threading

import pytest

from repro.obs import (
    EventLog,
    emit,
    get_event_log,
    request_context,
    reset,
)


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    yield
    reset()


class TestEventLog:
    def test_emit_and_read_back(self):
        log = EventLog()
        log.emit("ingest.committed", dataset="sales", backend="relational")
        (event,) = log.events()
        assert event.kind == "ingest.committed"
        assert event.fields == {"dataset": "sales", "backend": "relational"}
        assert event.seq == 1

    def test_capacity_bounds_the_ring(self):
        log = EventLog(capacity=4)
        for i in range(6):
            log.emit("k", i=i)
        assert len(log) == 4
        assert log.emitted == 6
        assert log.dropped == 2
        assert [e.fields["i"] for e in log.events()] == [2, 3, 4, 5]
        assert [e.seq for e in log.events()] == [3, 4, 5, 6]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_kind_and_request_filters(self):
        log = EventLog()
        with request_context() as ctx:
            log.emit("cache.hit", engine="aurum")
        log.emit("cache.miss", engine="aurum")
        assert [e.kind for e in log.events(kind="cache.hit")] == ["cache.hit"]
        mine = log.events(request_id=ctx.request_id)
        assert len(mine) == 1 and mine[0].kind == "cache.hit"

    def test_limit_keeps_the_newest(self):
        log = EventLog()
        for i in range(5):
            log.emit("k", i=i)
        assert [e.fields["i"] for e in log.events(limit=2)] == [3, 4]
        assert [e.fields["i"] for e in log.tail(3)] == [2, 3, 4]

    def test_explicit_request_id_overrides_context(self):
        log = EventLog()
        with request_context():
            log.emit("job.dead_letter", request_id="req-other")
        assert log.events()[0].request_id == "req-other"

    def test_context_attribution_is_automatic(self):
        log = EventLog()
        with request_context() as ctx:
            log.emit("k")
        assert log.events()[0].request_id == ctx.request_id

    def test_jsonl_round_trips(self):
        log = EventLog()
        log.emit("a", x=1)
        log.emit("b", y="two")
        lines = log.export_jsonl().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["kind"] == "a" and first["x"] == 1
        assert second["kind"] == "b" and second["y"] == "two"
        assert first["seq"] < second["seq"]

    def test_render_is_humane(self):
        log = EventLog()
        assert log.render() == "(no events recorded)"
        log.emit("breaker.transition", breaker="relational", to_state="open")
        text = log.render()
        assert "breaker.transition" in text
        assert "to_state=open" in text

    def test_reset_clears_but_keeps_seq_monotonic(self):
        log = EventLog()
        log.emit("a")
        log.reset()
        assert len(log) == 0
        log.emit("b")
        assert log.events()[0].seq == 2

    def test_reset_is_not_counted_as_dropped(self):
        log = EventLog(capacity=8)
        for i in range(5):
            log.emit("k", i=i)
        log.reset()
        assert log.dropped == 0 and log.emitted == 5
        for i in range(10):
            log.emit("k", i=i)
        assert log.dropped == 2  # only the ring's own overwrites

    def test_module_level_emit_targets_the_process_log(self):
        emit("cache.hit", engine="aurum")
        assert get_event_log().events(kind="cache.hit")


class TestEventLogConcurrency:
    THREADS = 8
    PER_THREAD = 200

    def test_no_lost_or_torn_records_under_concurrent_writers(self):
        log = EventLog(capacity=self.THREADS * self.PER_THREAD)
        barrier = threading.Barrier(self.THREADS)

        def writer(worker):
            barrier.wait(timeout=10)
            for i in range(self.PER_THREAD):
                log.emit("stress", worker=worker, i=i)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = self.THREADS * self.PER_THREAD
        events = log.events()
        assert len(events) == total
        assert log.emitted == total and log.dropped == 0
        # no torn records: every event kept all its fields
        assert all(set(e.fields) == {"worker", "i"} for e in events)
        # no lost/duplicated sequence numbers, and the snapshot is ordered
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == total
        # every (worker, i) pair survived exactly once
        pairs = {(e.fields["worker"], e.fields["i"]) for e in events}
        assert len(pairs) == total

    def test_jsonl_export_parses_during_concurrent_writes(self):
        log = EventLog(capacity=512)
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                log.emit("w", i=i)
                i += 1

        def reader():
            try:
                for _ in range(50):
                    for line in log.export_jsonl().splitlines():
                        json.loads(line)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in writers + readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        for t in writers:
            t.join()
        assert errors == []


class TestFlightRecorderUnderTraffic:
    def test_breaker_transition_survives_warm_cache_hits(self):
        """Per-lookup facts are counts, not events: 10,000 warm hits leave
        a breaker transition in the dump-on-error view."""
        from repro import DataLake
        from repro.faults.breaker import CircuitBreaker

        lake = DataLake.in_memory()
        try:
            lake.ingest_table("sales", {"region": ["EU", "US"], "amount": [1, 2]})
            lake.ingest_table("regions", {"region": ["EU", "US"], "name": ["e", "u"]})
            lake.discover_related("sales", k=3)  # fills the cache
            CircuitBreaker("relational", failure_threshold=1).record_failure()
            hits = lake.query_cache.stats()["hits"]
            for _ in range(10_000):
                lake.discover_related("sales", k=3)
            assert lake.query_cache.stats()["hits"] == hits + 10_000
            dump = [json.loads(line) for line in lake.flight_recorder().splitlines()]
            transitions = [event for event in dump
                           if event["kind"] == "breaker.transition"]
            assert [event["to_state"] for event in transitions] == ["open"]
        finally:
            lake.close()
