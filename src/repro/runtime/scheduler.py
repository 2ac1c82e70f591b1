"""Job scheduler over a bounded worker pool.

The execution substrate of the maintenance runtime: independent jobs
are started first in, first out on a small pool of daemon worker
threads, and retried with backoff per their
:class:`~repro.runtime.jobs.RetryPolicy`.  Failure is contained, never
contagious to the pool: a job that exhausts its retries is dead-lettered
and :meth:`JobScheduler.drain` still returns.

``queue_size`` bounds what the scheduler holds, in both directions:

- *outstanding* (non-terminal) jobs: once ``queue_size`` are in flight,
  ``submit`` blocks until workers free capacity, so a bulk producer can
  never grow the queue without limit;
- finished jobs: a job that reaches a terminal state keeps only its
  :class:`~repro.runtime.jobs.JobResult` (the scheduler releases the
  :class:`~repro.runtime.jobs.Job` and whatever its arguments hold), and
  only the results of the last ``queue_size`` finished jobs are kept.
  An older id answers as one the scheduler never issued.  Lifetime
  counts per state, and every dead letter, are kept.

Every state transition feeds ``repro.obs``: a ``runtime.queue_depth``
gauge, submitted/succeeded/retried/dead counters, a ``runtime.job_ms``
latency histogram, and one ``maintenance.runtime.job`` span per attempt.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.errors import JobTimeout, MaintenanceError, SchedulerClosed
from repro.obs import bind_context, capture_context, emit, get_recorder, get_registry, traced
from repro.runtime.jobs import (
    DEAD,
    QUEUED,
    RETRYING,
    RUNNING,
    SUCCEEDED,
    Job,
    JobResult,
    RetryPolicy,
)


class JobScheduler:
    """Bounded worker pool executing maintenance jobs."""

    def __init__(
        self,
        workers: int = 4,
        queue_size: int = 256,
        default_retry: Optional[RetryPolicy] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.workers = workers
        self.queue_size = queue_size
        self.default_retry = default_retry or RetryPolicy()
        self._cv = threading.Condition()
        # _jobs, _state, _submitted_at and _attempts hold in-flight jobs
        # only; _results the last queue_size finished ones, oldest first;
        # _finished the lifetime count per terminal state
        self._jobs: Dict[str, Job] = {}
        self._state: Dict[str, str] = {}
        self._results: "OrderedDict[str, JobResult]" = OrderedDict()
        self._finished: Dict[str, int] = {}
        self._submitted_at: Dict[str, float] = {}
        self._attempts: Dict[str, int] = {}
        self._ready: deque = deque()
        self._deferred: List = []                 # heap of (ready_at, seq, job id)
        self._dead: List[JobResult] = []
        self._seq = itertools.count()
        self._threads: List[threading.Thread] = []
        self._closed = False
        registry = get_registry()
        self._m_submitted = registry.counter("runtime.jobs_submitted")
        self._m_succeeded = registry.counter("runtime.jobs_succeeded")
        self._m_retried = registry.counter("runtime.jobs_retried")
        self._m_dead = registry.counter("runtime.jobs_dead")
        self._m_backpressure = registry.counter("runtime.backpressure_waits")
        self._g_depth = registry.gauge("runtime.queue_depth")
        self._h_job_ms = registry.histogram("runtime.job_ms")

    # -- submission --------------------------------------------------------------

    @traced("maintenance.runtime.submit", tier="maintenance", system="runtime",
            function="job_scheduling")
    def submit(
        self,
        fn: Callable[..., Any],
        *,
        name: str = "",
        args: Sequence[Any] = (),
        retry: Optional[RetryPolicy] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Submit a job; returns its id.  Blocks under backpressure."""
        job = Job(fn=fn, name=name, args=tuple(args),
                  retry=retry or self.default_retry,
                  tags=dict(tags or {}), context=capture_context())
        with self._cv:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            while len(self._jobs) >= self.queue_size:
                self._m_backpressure.inc()
                self._cv.wait()
                if self._closed:
                    raise SchedulerClosed("scheduler closed while waiting to submit")
            job_id = f"{job.name}#{next(self._seq)}"
            self._jobs[job_id] = job
            self._submitted_at[job_id] = time.monotonic()
            self._attempts[job_id] = 0
            self._m_submitted.inc()
            self._enqueue_locked(job_id)
            self._ensure_workers_locked()
            self._cv.notify_all()
        return job_id

    # -- barriers ----------------------------------------------------------------

    @traced("maintenance.runtime.drain", tier="maintenance", system="runtime",
            function="job_scheduling")
    def drain(self, timeout: Optional[float] = None) -> Dict[str, JobResult]:
        """Block until every submitted job is terminal; returns the kept
        results, those of the last ``queue_size`` finished jobs.

        Dead-lettered jobs are terminal, so ``drain`` returns even when work
        has failed permanently — inspect :meth:`dead_letter` afterwards.
        """
        with self._cv:
            self._wait_idle_locked(timeout)
            return dict(self._results)

    @traced("maintenance.runtime.drain", tier="maintenance", system="runtime",
            function="job_scheduling")
    def wait_idle(self, timeout: Optional[float] = None) -> None:
        """:meth:`drain` without the copy of the results it returns.

        Raises :class:`~repro.core.errors.JobTimeout` if jobs are still
        outstanding after *timeout* seconds.
        """
        with self._cv:
            self._wait_idle_locked(timeout)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobResult:
        """Block until *job_id* is terminal; returns its result.

        A job that finished and left the result window meanwhile raises
        as an unknown id does.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while job_id in self._state:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise JobTimeout(f"wait({job_id!r}) timed out")
                self._cv.wait(remaining)
            return self._result_locked(job_id)

    # -- introspection -----------------------------------------------------------

    def status(self, job_id: str) -> str:
        with self._cv:
            if job_id in self._state:
                return self._state[job_id]
            return self._result_locked(job_id).status

    def result(self, job_id: str) -> Optional[JobResult]:
        """The terminal result of *job_id*, or None while it is in flight."""
        with self._cv:
            if job_id in self._state:
                return None
            return self._result_locked(job_id)

    def dead_letter(self) -> List[JobResult]:
        """Results of permanently failed jobs, oldest first."""
        with self._cv:
            return list(self._dead)

    def outstanding(self) -> int:
        with self._cv:
            return len(self._jobs)

    def stats(self) -> Dict[str, Any]:
        """Lifetime counts by state plus queue depth and pool size."""
        with self._cv:
            by_state = dict(self._finished)
            for state in self._state.values():
                by_state[state] = by_state.get(state, 0) + 1
            return {
                "jobs": sum(by_state.values()),
                "outstanding": len(self._jobs),
                "queue_depth": len(self._ready) + len(self._deferred),
                "dead_letter": len(self._dead),
                "workers": len(self._threads),
                "by_state": by_state,
            }

    def __len__(self) -> int:
        """Every job ever submitted, finished or not."""
        with self._cv:
            return len(self._state) + sum(self._finished.values())

    # -- lifecycle ---------------------------------------------------------------

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting work and join the workers (idempotent).

        Queued-but-unstarted jobs are dead-lettered with ``SchedulerClosed``
        so a pending ``drain`` in another thread still returns.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            error = SchedulerClosed("scheduler closed before execution")
            for job_id in list(self._jobs):
                if self._state[job_id] != RUNNING:
                    self._kill_locked(job_id, error, attempts=self._attempts[job_id])
            self._ready.clear()
            self._deferred.clear()
            self._cv.notify_all()
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wait_idle()
        self.close()
        return False

    # -- internals (all *_locked helpers require self._cv held) -------------------

    def _result_locked(self, job_id: str) -> JobResult:
        """The kept result of *job_id*; an id that is in flight, has left
        the window or was never issued raises."""
        try:
            return self._results[job_id]
        except KeyError:
            raise MaintenanceError(f"unknown job {job_id!r}") from None

    def _wait_idle_locked(self, timeout: Optional[float]) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._jobs:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise JobTimeout(
                    f"drain timed out with {len(self._jobs)} jobs outstanding"
                )
            self._cv.wait(remaining)

    def _ensure_workers_locked(self) -> None:
        while len(self._threads) < self.workers:
            # workers are context-neutral by design: each job's captured
            # context is re-bound per attempt in _run_one instead
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-maintenance-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _enqueue_locked(self, job_id: str, ready_at: Optional[float] = None) -> None:
        if ready_at is None:
            self._state[job_id] = QUEUED
            self._ready.append(job_id)
        else:
            self._state[job_id] = RETRYING
            heapq.heappush(self._deferred, (ready_at, next(self._seq), job_id))
        self._g_depth.set(len(self._ready) + len(self._deferred))

    def _worker(self) -> None:
        while True:
            with self._cv:
                job_id = None
                while job_id is None:
                    if self._closed:
                        return
                    now = time.monotonic()
                    while self._deferred and self._deferred[0][0] <= now:
                        _, _, deferred_id = heapq.heappop(self._deferred)
                        self._ready.append(deferred_id)
                        self._state[deferred_id] = QUEUED
                    if self._ready:
                        job_id = self._ready.popleft()
                        break
                    delay = self._deferred[0][0] - now if self._deferred else None
                    self._cv.wait(delay)
                self._state[job_id] = RUNNING
                self._g_depth.set(len(self._ready) + len(self._deferred))
            self._run_one(job_id)

    def _run_one(self, job_id: str) -> None:
        with self._cv:
            job = self._jobs[job_id]
            submitted_at = self._submitted_at[job_id]
            attempt = self._attempts[job_id] + 1
            self._attempts[job_id] = attempt
        start = time.perf_counter()
        error: Optional[BaseException] = None
        value: Any = None
        with bind_context(job.context):
            with get_recorder().span("maintenance.runtime.job", tier="maintenance",
                                     system="runtime", function="job_scheduling",
                                     job=job.name, attempt=attempt, **job.tags):
                try:
                    value = job.run()
                except Exception as exc:  # lakelint: disable=exception-hygiene — routed to retry/dead-letter, counted there
                    error = exc
        latency_ms = (time.perf_counter() - start) * 1000.0
        self._h_job_ms.observe(latency_ms)
        with self._cv:
            if error is None:
                self._finish_locked(job_id, JobResult(
                    job_id=job_id, name=job.name, status=SUCCEEDED, value=value,
                    attempts=attempt, latency_ms=latency_ms,
                    total_ms=(time.monotonic() - submitted_at) * 1000.0,
                ))
                self._m_succeeded.inc()
            elif job.retry.retries(error, attempt) and not self._closed:
                delay = job.retry.delay(job.name, attempt)
                self._m_retried.inc()
                emit("job.retry",
                     request_id=getattr(job.context, "request_id", None),
                     job=job.name, job_id=job_id, attempt=attempt,
                     error=type(error).__name__, delay_s=round(delay, 4))
                self._enqueue_locked(job_id, ready_at=time.monotonic() + delay)
            else:
                self._kill_locked(job_id, error, attempts=attempt,
                                  latency_ms=latency_ms)
            self._cv.notify_all()

    def _finish_locked(self, job_id: str, result: JobResult) -> None:
        """Record *job_id*'s terminal result and release the job: only the
        result outlives it, not the arguments the job held, and only until
        ``queue_size`` later jobs have finished."""
        del self._jobs[job_id], self._state[job_id]
        del self._submitted_at[job_id], self._attempts[job_id]
        self._finished[result.status] = self._finished.get(result.status, 0) + 1
        self._results[job_id] = result
        if len(self._results) > self.queue_size:
            self._results.popitem(last=False)

    def _kill_locked(
        self,
        job_id: str,
        error: BaseException,
        attempts: int,
        latency_ms: float = 0.0,
    ) -> None:
        """Dead-letter *job_id*."""
        job = self._jobs[job_id]
        result = JobResult(
            job_id=job_id, name=job.name, status=DEAD,
            error=str(error), error_type=type(error).__name__,
            attempts=attempts, latency_ms=latency_ms,
            total_ms=(time.monotonic() - self._submitted_at[job_id]) * 1000.0,
        )
        self._finish_locked(job_id, result)
        self._dead.append(result)
        self._m_dead.inc()
        emit("job.dead_letter",
             request_id=getattr(job.context, "request_id", None),
             job=job.name, job_id=job_id, attempts=attempts,
             error=type(error).__name__)
