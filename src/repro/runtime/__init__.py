"""Maintenance runtime: background jobs, scheduling and incremental index upkeep.

The survey treats the maintenance tier (Sec. 5-6) as a set of *continuous*
functions running alongside ingestion — metadata extraction, catalog
registration, discovery-index upkeep.  This subsystem is their execution
substrate:

- :mod:`repro.runtime.jobs` — :class:`Job` / :class:`JobResult` and
  :class:`RetryPolicy` (exponential backoff, deterministic jitter,
  dead-letter semantics);
- :mod:`repro.runtime.scheduler` — :class:`JobScheduler`, a bounded
  worker pool with backpressure, per-job status introspection over a
  window of recent results, and a ``drain()`` barrier;
- :mod:`repro.runtime.incremental` — :class:`DirtySet` and
  :class:`IncrementalIndexMaintainer`, which turn full index rebuilds
  into per-table deltas over persistent Aurum / keyword indexes.

``DataLake`` wires these together: sync mode applies maintenance inline
(incrementally), ``DataLake(async_maintenance=True)`` enqueues the same
post-store steps of each write as one job for bulk loads — see
docs/RUNTIME.md.
"""

from repro.runtime.incremental import DirtySet, IncrementalIndexMaintainer
from repro.runtime.jobs import (
    DEAD,
    NO_RETRY,
    QUEUED,
    RETRYING,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobResult,
    RetryPolicy,
)
from repro.runtime.scheduler import JobScheduler

__all__ = [
    "DEAD",
    "DirtySet",
    "IncrementalIndexMaintainer",
    "Job",
    "JobResult",
    "JobScheduler",
    "NO_RETRY",
    "QUEUED",
    "RETRYING",
    "RUNNING",
    "RetryPolicy",
    "SUCCEEDED",
    "TERMINAL_STATES",
]
