"""Jobs, results and retry policies for the maintenance runtime.

The survey's maintenance tier is *continuous*: metadata extraction,
catalog registration and discovery-index upkeep run alongside ingestion
for the lifetime of the lake.  A :class:`Job` is one unit of that work —
a callable plus scheduling metadata (retry policy, span tags).
:class:`RetryPolicy` implements exponential backoff with
*deterministic* jitter (hash-derived, so reruns of the same job/attempt
produce the same delay and tests stay reproducible), and a job that
exhausts its attempts lands in the scheduler's dead-letter list instead
of wedging the pool.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Type

#: job lifecycle states; ``SUCCEEDED`` and ``DEAD`` are terminal
QUEUED = "queued"          # ready to run, waiting for a worker
RUNNING = "running"        # executing on a worker thread
RETRYING = "retrying"      # failed transiently, waiting out its backoff delay
SUCCEEDED = "succeeded"    # terminal: returned a value
DEAD = "dead"              # terminal: dead-lettered (exhausted retries,
                           # a non-retryable error, or closed before it ran)

TERMINAL_STATES = frozenset({SUCCEEDED, DEAD})


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a retry budget.

    The delay before attempt ``n + 1`` is
    ``min(base_delay * multiplier**(n - 1), max_delay)`` stretched by up to
    ``jitter`` (a fraction), where the stretch factor is derived from a
    SHA-256 hash of ``(job name, attempt)`` — deterministic per job and
    attempt, but de-synchronized across jobs so retry storms do not
    thundering-herd the worker pool.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def retries(self, error: BaseException, attempt: int) -> bool:
        """Whether *attempt* (1-based) may be retried after *error*."""
        return attempt < self.max_attempts and isinstance(error, self.retry_on)

    def delay(self, job_name: str, attempt: int) -> float:
        """Backoff before the attempt after *attempt* (1-based) of *job_name*."""
        raw = min(self.base_delay * self.multiplier ** max(attempt - 1, 0), self.max_delay)
        if self.jitter == 0.0:
            return raw
        digest = hashlib.sha256(f"{job_name}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)  # [0, 1)
        return raw * (1.0 + self.jitter * fraction)


#: run exactly once, fail straight to the dead-letter list
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass
class Job:
    """One schedulable unit of maintenance work.

    ``context`` is the :class:`~repro.obs.context.RequestContext` captured
    at submission (typed loosely to keep this module obs-free); the
    scheduler re-binds it on the worker thread for every attempt, so work
    done on behalf of a request stays attributed to it.
    """

    fn: Callable[..., Any]
    name: str = ""
    args: Tuple[Any, ...] = ()
    retry: Optional[RetryPolicy] = None
    tags: Dict[str, Any] = field(default_factory=dict)
    context: Optional[Any] = None

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise TypeError(f"job fn must be callable, got {type(self.fn).__name__}")
        if not self.name:
            self.name = getattr(self.fn, "__name__", "job")

    def run(self) -> Any:
        """Execute the payload once (retries are the scheduler's concern)."""
        return self.fn(*self.args)


@dataclass
class JobResult:
    """Terminal record of one job: status, value or error, and timings."""

    job_id: str
    name: str
    status: str
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 0
    latency_ms: float = 0.0  # execution time of the final attempt
    total_ms: float = 0.0    # submit -> terminal, queueing and backoff included

    @property
    def ok(self) -> bool:
        return self.status == SUCCEEDED

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "name": self.name,
            "status": self.status,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "latency_ms": round(self.latency_ms, 6),
            "total_ms": round(self.total_ms, 6),
        }
