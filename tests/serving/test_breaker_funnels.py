"""The serving breaker funnel, checked by running it.

With a tenant's breaker open, every ``LakeServer`` op answers
``CircuitOpen`` and the lake's ingest, query and health methods are
never called.  The only lake calls left are the catalog reads the
``*_unguarded`` helpers make to size a batch's engine k.
"""

import sys

import pytest

from repro.core.lake import DataLake
from repro.faults import OPEN, ResilienceConfig
from repro.serving.server import LakeServer, qualify


class RecordingLake:
    """Forwards to a real lake, recording (attribute, calling function)."""

    def __init__(self, lake):
        self._lake = lake
        self.calls = []

    def __getattr__(self, name):
        self.calls.append((name, sys._getframe(1).f_code.co_name))
        return getattr(self._lake, name)


OPS = {
    "ingest": lambda s: s.ingest("fresh", {"id": [1, 2]}),
    "fetch": lambda s: s.fetch("mine"),
    "sql": lambda s: s.sql("SELECT id FROM mine"),
    "discover-related": lambda s: s.discover(kind="related", table="mine"),
    "discover-joinable": lambda s: s.discover(
        kind="joinable", table="mine", column="id"),
    "discover-union": lambda s: s.discover(kind="union", table="mine"),
    "discover-keyword": lambda s: s.discover(kind="keyword", keywords="id"),
    "discover_batch": lambda s: s.discover_batch([
        {"kind": "joinable", "table": "mine", "column": "id"},
        {"kind": "related", "table": "mine"}]),
    "health": lambda s: s.health(),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_open_tenant_breaker_keeps_every_op_off_the_lake(op):
    lake = DataLake()
    lake.ingest_table(qualify("acme", "mine"), {"id": [1, 2, 3]})
    lake.ingest_table(qualify("other", "theirs"), {"id": [2, 3], "x": [0, 1]})
    recording = RecordingLake(lake)
    with LakeServer(recording, workers=1, resilience=ResilienceConfig(
            failure_threshold=1, reset_timeout=60.0)) as server:
        session = server.connect(server.register_tenant("acme"))
        breaker = server.breakers.breaker("tenant:acme")
        breaker.record_failure()
        assert breaker.state == OPEN
        response = OPS[op](session)
    assert not response.ok
    assert response.error_type == "CircuitOpen"
    assert all(caller.endswith("_unguarded")
               for _name, caller in recording.calls), recording.calls
