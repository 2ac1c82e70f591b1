"""Structured event log: the lake's bounded flight recorder.

Spans measure *durations*; events record *moments* — an ingest
committed, an index epoch bumped, a breaker tripping, a job
dead-lettered, a degraded fetch.  Per-operation facts (a cache hit, a
lookup) are counts, not events: they would flood the ring and push out
the rare events it exists to keep.  The :class:`EventLog` is a
fixed-size ring buffer of typed, timestamped records, cheap enough to
leave on permanently and bounded so it can never grow without limit:
when something goes wrong, the last N events *are* the story of how it
went wrong (hence "flight recorder", surfaced as
``DataLake.flight_recorder()``).

Every event is stamped with the request id of the
:class:`~repro.obs.context.RequestContext` active at emit time (or an
explicit ``request_id=`` override for emitters that hold a captured
context rather than a bound one), so a recorder dump can be sliced to
one request's causal history.

Thread model: a single mutex guards the ring; :meth:`emit` does one
append under the lock and is safe from any thread.  Readers get
snapshots (lists), never live views.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.context import current_context

#: canonical event kinds (free-form kinds are allowed; these are the ones
#: the core lake emits and tests/docs refer to)
KNOWN_KINDS = (
    "ingest.committed",
    "index.epoch_bump",
    "breaker.transition",
    "job.retry",
    "job.dead_letter",
    "fetch.degraded",
)


class Event:
    """One timestamped, typed, attributed record."""

    __slots__ = ("seq", "ts", "kind", "request_id", "fields")

    def __init__(self, seq: int, ts: float, kind: str,
                 request_id: Optional[str], fields: Dict[str, Any]):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.request_id = request_id
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"seq": self.seq, "ts": round(self.ts, 6),
                               "kind": self.kind}
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.fields:
            out.update(self.fields)
        return out

    def __repr__(self) -> str:
        return (f"Event(#{self.seq} {self.kind} req={self.request_id} "
                f"{self.fields!r})")


class EventLog:
    """Bounded ring buffer of :class:`Event` records.

    ``seq`` is a monotonically increasing per-log sequence number, so a
    reader can detect eviction (gaps at the head) and order events
    across threads even when wall clocks collide.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("EventLog capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._buffer: List[Event] = []
        self._start = 0  # ring head index into _buffer
        self._emitted = 0
        self._dropped = 0  # events overwritten where the ring wrapped

    # -- writing -----------------------------------------------------------------

    def emit(self, kind: str, request_id: Optional[str] = None,
             **fields: Any) -> Event:
        """Append one event; attribution defaults to the active context.

        Pass ``request_id=`` explicitly when emitting on behalf of a
        captured (not currently bound) context — e.g. the scheduler
        dead-lettering a job after its worker already unbound.
        """
        if request_id is None:
            context = current_context()
            if context is not None:
                request_id = context.request_id
        event = Event(0, time.time(), kind, request_id, fields)
        with self._lock:
            event.seq = next(self._seq)
            self._emitted += 1
            if len(self._buffer) < self.capacity:
                self._buffer.append(event)
            else:  # overwrite the oldest slot, advance the head
                self._buffer[self._start] = event
                self._start = (self._start + 1) % self.capacity
                self._dropped += 1
        return event

    # -- reading -----------------------------------------------------------------

    def events(self, kind: Optional[str] = None,
               request_id: Optional[str] = None,
               limit: Optional[int] = None) -> List[Event]:
        """Snapshot, oldest first, optionally filtered; ``limit`` keeps
        the *newest* matches."""
        with self._lock:
            ordered = self._buffer[self._start:] + self._buffer[:self._start]
        if kind is not None:
            ordered = [e for e in ordered if e.kind == kind]
        if request_id is not None:
            ordered = [e for e in ordered if e.request_id == request_id]
        if limit is not None:
            ordered = ordered[-limit:]
        return ordered

    def tail(self, n: int = 50) -> List[Event]:
        """The newest *n* events, oldest first."""
        return self.events(limit=n)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (dropped ones included)."""
        with self._lock:
            return self._emitted

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (not those :meth:`reset` cleared)."""
        with self._lock:
            return self._dropped

    def export_jsonl(self, events: Optional[Iterable[Event]] = None) -> str:
        """One JSON object per line, oldest first."""
        if events is None:
            events = self.events()
        return "\n".join(json.dumps(e.to_dict(), sort_keys=True, default=str)
                         for e in events)

    def render(self, events: Optional[Iterable[Event]] = None) -> str:
        """Human-readable dump: ``#seq  kind  req  k=v ...`` per line."""
        if events is None:
            events = self.events()
        lines = []
        for e in events:
            fields = "  ".join(f"{k}={v}" for k, v in sorted(e.fields.items()))
            req = e.request_id or "-"
            lines.append(f"#{e.seq:<6d} {e.kind:<20s} {req:<18s} {fields}")
        return "\n".join(lines) if lines else "(no events recorded)"

    def reset(self) -> None:
        with self._lock:
            self._buffer.clear()
            self._start = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)


def emit(kind: str, request_id: Optional[str] = None, **fields: Any):
    """Emit on the process-wide event log (lazy import avoids a cycle)."""
    from repro.obs.instrument import get_event_log

    return get_event_log().emit(kind, request_id=request_id, **fields)
