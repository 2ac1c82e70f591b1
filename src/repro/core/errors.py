"""Exception hierarchy for the data lake framework.

All framework errors derive from :class:`DataLakeError` so callers can catch
one base class at API boundaries.  Subclasses are grouped by the tier that
raises them (storage, ingestion, querying) rather than by module, mirroring
the survey's architecture.
"""


class DataLakeError(Exception):
    """Base class for every error raised by the repro framework."""


class StorageError(DataLakeError):
    """A storage-tier operation failed (object store, database backends)."""


class DatasetNotFound(StorageError, KeyError):
    """The requested dataset, object, or table does not exist.

    Inherits from :class:`KeyError` so dictionary-style access through the
    catalog behaves idiomatically.
    """

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable
        return Exception.__str__(self)


class FormatError(DataLakeError):
    """Raw bytes could not be parsed in the declared or detected format."""


class SchemaError(DataLakeError):
    """Schema-level violation: unknown column, arity mismatch, bad mapping."""


class QueryError(DataLakeError):
    """A query could not be parsed, planned or executed."""


class TransactionConflict(StorageError):
    """Optimistic concurrency control detected a conflicting lakehouse commit."""


class BackendUnavailable(StorageError):
    """A storage backend failed (or keeps failing) — the degraded-mode trigger.

    Raised by the polystore's breaker guard when a backend call fails for an
    infrastructure reason (injected fault, I/O error, open circuit) rather
    than a data reason; callers that can degrade (failover to the fallback
    store, partial federation results) catch exactly this type.
    """


class CircuitOpen(BackendUnavailable):
    """A circuit breaker is open: the backend is failing fast, not being called."""


class FaultInjected(BackendUnavailable):
    """A fault deliberately injected by :mod:`repro.faults` (tests/benchmarks)."""


class ValidationError(DataLakeError):
    """Data failed a cleaning/validation rule (CLAMS, Auto-Validate, RFDs)."""


class MaintenanceError(DataLakeError):
    """A maintenance-runtime operation failed (jobs, scheduling, index upkeep)."""


class JobTimeout(MaintenanceError):
    """A scheduler wait (``wait``, ``wait_idle`` or ``drain``) ran out of
    time before the jobs it waits for were terminal."""


class SchedulerClosed(MaintenanceError):
    """The scheduler no longer accepts work (``close()`` was called)."""


class ProvenanceError(DataLakeError):
    """Provenance graph inconsistency, e.g. an event referencing unknown data."""


class DeadlineExceeded(DataLakeError):
    """The active :class:`~repro.obs.context.RequestContext` deadline passed.

    Raised by the deadline checkpoints (``DataLake._cached`` entry, the
    serving dispatcher) so a per-request timeout actually cuts discovery
    work short instead of merely being carried along.
    """


class ServingError(DataLakeError):
    """Base class for the multi-tenant serving tier (:mod:`repro.serving`)."""


class AuthenticationError(ServingError):
    """The presented token is unknown, revoked, or expired."""


class QuotaExceeded(ServingError):
    """A declarative per-tenant quota rejected the request (in-flight cap)."""


class Throttled(ServingError):
    """Load was shed: rate limit or server capacity — retry after backoff."""
