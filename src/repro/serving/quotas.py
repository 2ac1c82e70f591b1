"""Declarative per-tenant quotas and the admission controller.

A :class:`TenantQuota` says what one tenant may do — concurrent
in-flight requests, sustained requests/second (token bucket with a
burst allowance), and how many rows a single response may carry.  The
:class:`AdmissionController` enforces the first two *before* any work
is queued: a request either wins an :class:`AdmissionTicket` or is
rejected immediately with a typed error, so overload never turns into
an unbounded queue.

Rejection taxonomy (mirrors the response types the server returns):

- :class:`~repro.core.errors.Throttled` — transient shed: the tenant's
  token bucket is empty, or the server-wide pending ceiling is hit.
  Retry after backoff.
- :class:`~repro.core.errors.QuotaExceeded` — the tenant is at its
  concurrent in-flight cap; more offered concurrency will keep being
  rejected until earlier requests finish.

Both paths count against ``serving.throttled{tenant=}`` so one labeled
counter answers "who is being shed".  The clock is injectable, so
bucket refill is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.errors import QuotaExceeded, Throttled
from repro.obs import emit, get_registry


@dataclass(frozen=True)
class TenantQuota:
    """What one tenant is allowed to do, declaratively.

    ``burst`` is the token-bucket capacity (defaults to
    ``requests_per_sec``); ``max_result_rows`` caps how many rows a
    fetch/SQL response carries (larger results are truncated, flagged,
    and counted — not rejected).
    """

    max_in_flight: int = 8
    requests_per_sec: float = 100.0
    burst: Optional[float] = None
    max_result_rows: int = 10_000

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.requests_per_sec <= 0:
            raise ValueError("requests_per_sec must be positive")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.max_result_rows < 1:
            raise ValueError("max_result_rows must be >= 1")

    @property
    def bucket_capacity(self) -> float:
        return self.burst if self.burst is not None else max(
            1.0, self.requests_per_sec)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``capacity``."""

    def __init__(self, rate: float, capacity: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or capacity < 1:
            raise ValueError("rate must be positive and capacity >= 1")
        self.rate = rate
        self.capacity = capacity
        self._clock = clock
        self._tokens = capacity
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available right now; never blocks."""
        with self._lock:
            now = self._clock()
            elapsed = max(0.0, now - self._refilled_at)
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._refilled_at = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def available(self) -> float:
        """Tokens available right now (refill applied, nothing taken)."""
        with self._lock:
            elapsed = max(0.0, self._clock() - self._refilled_at)
            return min(self.capacity, self._tokens + elapsed * self.rate)


class _TenantState:
    """Mutable per-tenant admission state (guarded by the controller lock)."""

    def __init__(self, quota: TenantQuota, clock: Callable[[], float]):
        self.quota = quota
        self.bucket = TokenBucket(quota.requests_per_sec,
                                  quota.bucket_capacity, clock=clock)
        self.in_flight = 0
        self.admitted = 0
        self.rejected = 0


class AdmissionTicket:
    """Proof of admission; ``release()`` exactly once when the work ends."""

    def __init__(self, controller: "AdmissionController", tenant: str):
        self._controller = controller
        self.tenant = tenant
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self.tenant)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class AdmissionController:
    """Admit-or-shed gate in front of serving request execution.

    ``max_pending`` bounds *total* admitted-but-unfinished requests
    across all tenants — the server-wide backpressure ceiling that keeps
    the requests running at once, on callers' threads or queued for the
    worker pool, finite no matter how many tenants misbehave at once.
    """

    def __init__(self, default_quota: Optional[TenantQuota] = None,
                 max_pending: int = 256,
                 clock: Callable[[], float] = time.monotonic):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.default_quota = default_quota or TenantQuota()
        self.max_pending = max_pending
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        self._pending = 0
        self._registry = get_registry()

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Declare *tenant*'s quota (resets its bucket to the new shape)."""
        with self._lock:
            self._tenants[tenant] = _TenantState(quota, self._clock)

    def quota(self, tenant: str) -> TenantQuota:
        return self._state(tenant).quota

    def _state(self, tenant: str) -> _TenantState:
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _TenantState(
                    self.default_quota, self._clock)
            return state

    def admit(self, tenant: str) -> AdmissionTicket:
        """Admit one request for *tenant* or raise the typed rejection."""
        state = self._state(tenant)
        with self._lock:
            if self._pending >= self.max_pending:
                state.rejected += 1
                self._shed(tenant, "server_capacity")
                raise Throttled(
                    f"server at capacity ({self._pending} pending); retry later")
            if state.in_flight >= state.quota.max_in_flight:
                state.rejected += 1
                self._shed(tenant, "max_in_flight")
                raise QuotaExceeded(
                    f"tenant {tenant!r} at its in-flight cap "
                    f"({state.quota.max_in_flight})")
            # the bucket has its own lock but never blocks; taking it under
            # ours keeps the count-vs-token decision atomic per tenant
            if not state.bucket.try_acquire():
                state.rejected += 1
                self._shed(tenant, "rate_limit")
                raise Throttled(
                    f"tenant {tenant!r} over {state.quota.requests_per_sec}/s; "
                    f"retry after backoff")
            state.in_flight += 1
            state.admitted += 1
            self._pending += 1
        return AdmissionTicket(self, tenant)

    def _shed(self, tenant: str, reason: str) -> None:
        self._registry.counter("serving.throttled", tenant=tenant).inc()
        emit("serving.shed", tenant=tenant, reason=reason)

    def _release(self, tenant: str) -> None:
        with self._lock:
            state = self._tenants.get(tenant)
            if state is not None and state.in_flight > 0:
                state.in_flight -= 1
            if self._pending > 0:
                self._pending -= 1

    def pending(self) -> int:
        with self._lock:
            return self._pending

    def stats(self) -> Dict[str, Any]:
        """Per-tenant admitted/rejected/in-flight counts plus the ceiling."""
        with self._lock:
            return {
                "max_pending": self.max_pending,
                "pending": self._pending,
                "tenants": {
                    tenant: {
                        "admitted": state.admitted,
                        "rejected": state.rejected,
                        "in_flight": state.in_flight,
                        "max_in_flight": state.quota.max_in_flight,
                        "requests_per_sec": state.quota.requests_per_sec,
                    }
                    for tenant, state in sorted(self._tenants.items())
                },
            }
