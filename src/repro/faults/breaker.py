"""Circuit breakers and the per-backend health registry.

A failing backend must not be hammered by every query that comes through
the polystore: after ``failure_threshold`` consecutive failures the
breaker **opens** and callers fail fast (and fail over) without touching
the backend.  After ``reset_timeout`` seconds the breaker goes
**half-open** and admits up to ``probe_budget`` probe calls; once
``success_threshold`` probes succeed it **closes** again, while a single
probe failure re-opens it.

::

                 failure_threshold           reset_timeout
        CLOSED ────────────────────▶ OPEN ────────────────▶ HALF_OPEN
          ▲                           ▲                         │
          │    success_threshold      │      probe failure      │
          └───────────────────────────┴─────────────────────────┘

The hot path is engineered for the 0%-fault case: ``allow`` and
``record_success`` on a closed, healthy breaker are plain attribute
reads — no lock is taken until something actually fails (snapshot reads
without the lock are the sanctioned pattern here; all *writes* happen
under ``self._lock``).  Every state transition is counted in the
``repro.obs`` metrics registry and recorded as a
``faults.breaker.transition`` span, so breaker behavior shows up in the
same trace/metric exports as the operations it protected.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import CircuitOpen
from repro.obs import emit, get_recorder, get_registry
from repro.runtime.jobs import RetryPolicy

#: breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: gauge encoding of the state, for the metrics registry
_STATE_VALUE = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


@dataclass(frozen=True)
class ResilienceConfig:
    """Degraded-mode policy shared by the polystore and the federation.

    ``replicate`` controls when payloads get a fallback copy in the
    object store: ``"never"``, ``"on-failure"`` (only when the primary
    store failed and the write was redirected — the default, so a healthy
    lake does no extra work), or ``"always"`` (write-through replication,
    the high-availability mode the fault benchmark runs under).
    """

    enabled: bool = True
    failure_threshold: int = 5
    reset_timeout: float = 0.25
    probe_budget: int = 1
    success_threshold: int = 2
    replicate: str = "on-failure"
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=2, base_delay=0.001, multiplier=2.0, max_delay=0.05,
        jitter=0.0))

    def __post_init__(self) -> None:
        if self.replicate not in ("never", "on-failure", "always"):
            raise ValueError(
                f"replicate must be never/on-failure/always, got {self.replicate!r}")


@dataclass(frozen=True)
class Transition:
    """One breaker state change, for introspection and the bench report."""

    breaker: str
    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """Thread-safe closed → open → half-open breaker with a probe budget."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        reset_timeout: float = 0.25,
        probe_budget: int = 1,
        success_threshold: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probe_budget < 1:
            raise ValueError("probe_budget must be >= 1")
        if success_threshold < 1:
            raise ValueError("success_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.probe_budget = probe_budget
        self.success_threshold = success_threshold
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0          # consecutive failures while closed
        self._probes_in_flight = 0  # admitted probes while half-open
        self._probe_successes = 0   # successful probes while half-open
        self._opened_at: Optional[float] = None
        self._transitions: List[Transition] = []
        registry = get_registry()
        self._m_state = registry.gauge("faults.breaker.state", breaker=name)
        self._m_transitions = registry.counter("faults.breaker.transitions",
                                               breaker=name)
        self._m_rejected = registry.counter("faults.breaker.rejected",
                                            breaker=name)

    # -- state machine (writes only under self._lock) ---------------------------

    def _transition_locked(self, to_state: str, reason: str) -> None:
        from_state = self._state
        if from_state == to_state:
            return
        self._state = to_state
        self._transitions.append(Transition(self.name, from_state, to_state, reason))
        if to_state == OPEN:
            self._opened_at = self._clock()
        if to_state in (CLOSED, HALF_OPEN):
            self._probe_successes = 0
            self._probes_in_flight = 0
        if to_state == CLOSED:
            self._failures = 0
        self._m_state.set(_STATE_VALUE[to_state])
        self._m_transitions.inc()
        emit("breaker.transition", breaker=self.name, from_state=from_state,
             to_state=to_state, reason=reason)
        with get_recorder().span("faults.breaker.transition", tier="storage",
                                 system="faults", function="storage_backend",
                                 breaker=self.name, to_state=to_state,
                                 reason=reason):
            pass

    def allow(self) -> bool:
        """May a call proceed right now?  Consumes a probe when half-open."""
        if self._state == CLOSED:  # lock-free fast path: reads are snapshots
            return True
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                opened_at = self._opened_at or 0.0
                if self._clock() - opened_at < self.reset_timeout:
                    self._m_rejected.inc()
                    return False
                self._transition_locked(HALF_OPEN, "reset timeout elapsed")
            # half-open: admit up to probe_budget concurrent probes
            if self._probes_in_flight >= self.probe_budget:
                self._m_rejected.inc()
                return False
            self._probes_in_flight += 1
            return True

    def record_success(self) -> None:
        if self._state == CLOSED and self._failures == 0:
            return  # lock-free fast path for the healthy steady state
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.success_threshold:
                    self._transition_locked(CLOSED, "probes succeeded")
            else:
                self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._transition_locked(OPEN, "probe failed")
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._transition_locked(
                        OPEN, f"{self._failures} consecutive failures")

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run *fn* under the breaker; raises :class:`CircuitOpen` when open."""
        if not self.allow():
            raise CircuitOpen(
                f"circuit for {self.name!r} is {self._state}; call rejected")
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    # -- introspection -----------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, with the open → half-open clock edge applied."""
        with self._lock:
            if (self._state == OPEN and self._opened_at is not None
                    and self._clock() - self._opened_at >= self.reset_timeout):
                return HALF_OPEN  # would be admitted as a probe
            return self._state

    def transitions(self) -> List[Transition]:
        with self._lock:
            return list(self._transitions)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "transitions": len(self._transitions),
                "rejected": self._m_rejected.value,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name!r}, state={self._state!r})"


class HealthRegistry:
    """Get-or-create home for every breaker; the lake's health authority.

    The lake is degraded exactly while one of its breakers is not closed.
    """

    def __init__(self, config: Optional[ResilienceConfig] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or ResilienceConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, name: str) -> CircuitBreaker:
        # lock-free fast path: dict reads are snapshots, and entries are
        # only ever added — the guard sits on every storage hot path
        breaker = self._breakers.get(name)
        if breaker is not None:
            return breaker
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    name,
                    failure_threshold=self.config.failure_threshold,
                    reset_timeout=self.config.reset_timeout,
                    probe_budget=self.config.probe_budget,
                    success_threshold=self.config.success_threshold,
                    clock=self._clock,
                )
            return breaker

    def breakers(self) -> Dict[str, CircuitBreaker]:
        with self._lock:
            return dict(self._breakers)

    def degraded(self) -> List[str]:
        """Names of the non-closed breakers, sorted."""
        return sorted(name for name, breaker in self.breakers().items()
                      if breaker.state != CLOSED)

    @property
    def healthy(self) -> bool:
        return not self.degraded()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {name: breaker.snapshot()
                for name, breaker in sorted(self.breakers().items())}

    def transitions(self) -> List[Transition]:
        """Every transition across all breakers, in per-breaker order."""
        out: List[Transition] = []
        for _, breaker in sorted(self.breakers().items()):
            out.extend(breaker.transitions())
        return out
