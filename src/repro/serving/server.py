"""The multi-tenant serving front-end over one :class:`~repro.core.lake.DataLake`.

``LakeServer`` turns the lake from a library into shared infrastructure:
typed requests (ingest / discover / discover_batch / sql / fetch /
health) are authenticated against an :class:`~repro.serving.auth.AuthRegistry`,
admitted (or shed) by the :class:`~repro.serving.quotas.AdmissionController`,
and executed on a bounded worker pool — each request inside its own
:func:`~repro.obs.context.request_context` carrying the tenant and a
deadline, so spans, the profiler's per-request buckets, the flight
recorder and the labeled serving metrics all attribute work without any
extra plumbing.

**Isolation.**  Every dataset a tenant ingests lives in the shared lake
under a ``tenant__name`` namespace prefix.  Handlers qualify incoming
names before touching the lake and filter discovery/SQL answers back to
the caller's prefix, so tenant A asking for tenant B's dataset gets the
same :class:`~repro.core.errors.DatasetNotFound` as for a dataset that
never existed — absence and denial are indistinguishable.  SQL is
rewritten at the token level: only identifiers in table position
(after ``FROM`` / ``JOIN``) are qualified, and any identifier carrying
the namespace separator is rejected outright, so fully qualified
foreign names can never reach the shared lake.  Health answers are
likewise tenant-scoped: a session sees its own admission counts and
breaker plus tenant-neutral aggregates, never the tenant roster.

**Enforcement.**  Admission happens *before* queuing (typed
:class:`~repro.core.errors.Throttled` / :class:`~repro.core.errors.QuotaExceeded`
responses, never an unbounded queue), and every handler routes its lake
work through :meth:`LakeServer._guarded`, a per-tenant
:mod:`repro.faults` circuit breaker: a tenant whose requests keep
blowing up backend-side gets failed fast instead of burning workers.
Data-shaped failures (unknown dataset, bad SQL, an expired deadline) are
the caller's problem, not the backend's, and never trip the breaker.
The ``serving-context`` lakelint rule keeps both funnels honest.
"""

from __future__ import annotations

import threading
import time
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.dataset import Table
from repro.core.errors import (AuthenticationError, CircuitOpen, DataLakeError,
                               DatasetNotFound, DeadlineExceeded, FormatError,
                               QueryError, QuotaExceeded, SchemaError,
                               ServingError, Throttled, ValidationError)
from repro.faults import HealthRegistry, ResilienceConfig
from repro.obs import (check_deadline, emit, get_recorder, get_registry,
                       request_context)
from repro.serving.auth import NAMESPACE_SEPARATOR, AuthRegistry
from repro.serving.quotas import AdmissionController, TenantQuota

#: the typed operations a LakeServer dispatches
OPS: Tuple[str, ...] = ("ingest", "discover", "discover_batch", "sql",
                        "fetch", "health")

#: failures that belong to the request, not the backend — they must never
#: trip a tenant's circuit breaker (the backend did its job correctly)
DATA_ERRORS: Tuple[type, ...] = (DatasetNotFound, QueryError, SchemaError,
                                 FormatError, ValidationError, DeadlineExceeded)

#: rejection types the admission layer sheds with (client should back off)
SHED_ERRORS: Tuple[type, ...] = (Throttled, QuotaExceeded, CircuitOpen)

#: SQL keywords after which the next identifier names a table
_TABLE_KEYWORDS = frozenset({"from", "join"})


def qualify(tenant: str, name: str) -> str:
    """The shared-lake dataset name for *tenant*'s dataset *name*."""
    return f"{tenant}{NAMESPACE_SEPARATOR}{name}"


def in_namespace(tenant: str, name: str) -> bool:
    return name.startswith(tenant + NAMESPACE_SEPARATOR)


def strip_namespace(tenant: str, name: str) -> str:
    return name[len(tenant) + len(NAMESPACE_SEPARATOR):]


@dataclass(frozen=True)
class ServingRequest:
    """One typed request; ``op``-specific fields, the rest ignored.

    ``timeout`` (seconds) bounds the whole request including queue time —
    it becomes the :class:`~repro.obs.context.RequestContext` deadline
    that the lake's deadline checkpoints enforce.
    """

    op: str
    name: str = ""                 # ingest / fetch
    data: Optional[Mapping[str, Sequence[Any]]] = None  # ingest
    source: str = ""               # ingest
    query: str = ""                # sql
    kind: str = "related"          # discover
    table: str = ""                # discover (related/union/joinable)
    column: str = ""               # discover (joinable)
    keywords: str = ""             # discover (keyword)
    k: int = 5                     # discover
    queries: Tuple[Any, ...] = ()  # discover_batch
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {OPS}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if not isinstance(self.keywords, str):  # accept ["a", "b"] too
            object.__setattr__(self, "keywords", " ".join(self.keywords))


@dataclass
class ServingResponse:
    """The typed result of one request — success value or typed error."""

    ok: bool
    op: str
    tenant: str
    request_id: str = ""
    value: Any = None
    error: str = ""
    error_type: str = ""
    elapsed_ms: float = 0.0

    @property
    def shed(self) -> bool:
        """Was this request rejected by admission control / breakers?"""
        return self.error_type in ("Throttled", "QuotaExceeded", "CircuitOpen")

    def raise_for_status(self) -> "ServingResponse":
        """Re-raise the typed error client-side; returns self when ok."""
        if self.ok:
            return self
        exc_type = _ERROR_TYPES.get(self.error_type, ServingError)
        raise exc_type(self.error)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"ok": self.ok, "op": self.op,
                               "tenant": self.tenant,
                               "elapsed_ms": round(self.elapsed_ms, 3)}
        if self.request_id:
            out["request_id"] = self.request_id
        if self.ok:
            out["value"] = self.value
        else:
            out["error"] = self.error
            out["error_type"] = self.error_type
        return out


#: error_type string -> exception class for raise_for_status
_ERROR_TYPES: Dict[str, type] = {
    "AuthenticationError": AuthenticationError,
    "CircuitOpen": CircuitOpen,
    "DatasetNotFound": DatasetNotFound,
    "DeadlineExceeded": DeadlineExceeded,
    "FormatError": FormatError,
    "QueryError": QueryError,
    "QuotaExceeded": QuotaExceeded,
    "SchemaError": SchemaError,
    "Throttled": Throttled,
    "ValidationError": ValidationError,
}


class Session:
    """A tenant-bound handle: convenience builders over ``server.serve``.

    The token is re-resolved on every call, so revocation and expiry take
    effect mid-session; two sessions of one tenant share that tenant's
    quota because admission is keyed by tenant, not by session.
    """

    def __init__(self, server: "LakeServer", token: str):
        self.server = server
        self.token = token
        self.tenant = server.auth.resolve(token)  # fail fast on connect

    def _call(self, request: ServingRequest) -> ServingResponse:
        return self.server.serve(self.token, request)

    def ingest(self, name: str, data: Mapping[str, Sequence[Any]],
               source: str = "", timeout: Optional[float] = None) -> ServingResponse:
        return self._call(ServingRequest(op="ingest", name=name, data=data,
                                         source=source, timeout=timeout))

    def fetch(self, name: str, timeout: Optional[float] = None) -> ServingResponse:
        return self._call(ServingRequest(op="fetch", name=name, timeout=timeout))

    def sql(self, query: str, timeout: Optional[float] = None) -> ServingResponse:
        return self._call(ServingRequest(op="sql", query=query, timeout=timeout))

    def discover(self, kind: str = "related", table: str = "", column: str = "",
                 keywords: str = "", k: int = 5,
                 timeout: Optional[float] = None) -> ServingResponse:
        return self._call(ServingRequest(op="discover", kind=kind, table=table,
                                         column=column, keywords=keywords, k=k,
                                         timeout=timeout))

    def discover_batch(self, queries: Sequence[Any],
                       timeout: Optional[float] = None) -> ServingResponse:
        return self._call(ServingRequest(op="discover_batch",
                                         queries=tuple(queries),
                                         timeout=timeout))

    def health(self) -> ServingResponse:
        return self._call(ServingRequest(op="health"))


class LakeServer:
    """Concurrent, quota-enforcing request front-end over one lake.

    ``workers`` bounds execution concurrency; ``max_pending`` bounds how
    many admitted requests may be queued or running at once (beyond it,
    admission sheds with :class:`~repro.core.errors.Throttled`).
    ``default_timeout`` becomes each request's deadline when the request
    itself does not carry one; ``resilience`` shapes the per-tenant
    breakers (a dedicated :class:`~repro.faults.HealthRegistry` — tenant
    breakers must not degrade the lake's own storage health verdict).
    ``deadline_grace`` is how long past a request's deadline the caller
    keeps waiting for the worker's own (cooperative, typed) deadline
    error before abandoning the wait — see :meth:`serve`.
    """

    def __init__(
        self,
        lake: Optional[Any] = None,
        *,
        auth: Optional[AuthRegistry] = None,
        workers: int = 8,
        max_pending: int = 256,
        default_quota: Optional[TenantQuota] = None,
        default_timeout: Optional[float] = None,
        deadline_grace: float = 0.1,
        resilience: Optional[ResilienceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        from repro.core.lake import DataLake

        if workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline_grace < 0:
            raise ValueError("deadline_grace must be non-negative")
        self.lake = lake if lake is not None else DataLake.in_memory()
        self.auth = auth or AuthRegistry(clock=clock)
        self.workers = workers
        self.default_timeout = default_timeout
        self.deadline_grace = deadline_grace
        self._clock = clock
        self._admission = AdmissionController(
            default_quota=default_quota, max_pending=max_pending, clock=clock)
        self.breakers = HealthRegistry(
            config=resilience or ResilienceConfig(), clock=clock)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._ingest_lock = threading.Lock()  # writes serialize at this tier
        self._closed = False
        self._registry = get_registry()
        # per-dataset schema widths for _internal_k, invalidated when the
        # lake's catalog epoch moves (any table change bumps it)
        self._schema_widths: Dict[str, int] = {}
        self._schema_widths_epoch = -1
        self._schema_widths_lock = threading.Lock()

    # -- tenant administration -------------------------------------------------

    def register_tenant(self, tenant: str, quota: Optional[TenantQuota] = None,
                        ttl: Optional[float] = None,
                        token: Optional[str] = None) -> str:
        """Issue a token for *tenant* (and declare its quota); returns it."""
        issued = self.auth.issue(tenant, ttl=ttl, token=token)
        if quota is not None:
            self._admission.set_quota(tenant, quota)
        return issued

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self._admission.set_quota(tenant, quota)

    def connect(self, token: str) -> Session:
        """Open an authenticated :class:`Session` (raises on a bad token)."""
        return Session(self, token)

    # -- the request path ------------------------------------------------------

    def serve(self, token: str, request: ServingRequest) -> ServingResponse:
        """Authenticate, admit, execute; always returns a typed response."""
        started = time.perf_counter()
        try:
            tenant = self.auth.resolve(token)
        except AuthenticationError as exc:
            self._registry.counter("serving.unauthenticated").inc()
            return self._error(request.op, "", exc, started)
        self._registry.counter("serving.requests", tenant=tenant).inc()
        timeout = request.timeout if request.timeout is not None else self.default_timeout
        # always the monotonic domain: RequestContext.remaining() reads
        # time.monotonic(), while self._clock may be a test fake driving
        # only the quota buckets / auth TTLs / breaker timers
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            ticket = self._admission.admit(tenant)
        except SHED_ERRORS as exc:
            return self._error(request.op, tenant, exc, started)
        try:
            future = self._ensure_pool().submit(
                self._run, tenant, request, deadline)
        except RuntimeError as exc:  # pool shut down: the server is closing
            ticket.release()
            self._registry.counter("serving.errors", tenant=tenant).inc()
            return self._error(
                request.op, tenant, ServingError(f"server closed: {exc}"),
                started)
        try:
            # deadlines are enforced at cooperative checkpoints inside the
            # worker; a backend call stalled *between* checkpoints must not
            # pin the caller past its deadline, so the wait itself is
            # bounded (grace lets the checkpoint's typed error win first)
            wait = (None if deadline is None else
                    max(0.0, deadline - time.monotonic()) + self.deadline_grace)
            response = future.result(timeout=wait)
        except FutureTimeout:
            # abandon the wait, not the work: the worker thread really is
            # still busy, so its admission slot stays held and is released
            # only when the stalled call finally completes
            future.add_done_callback(lambda _done: ticket.release())
            self._registry.counter("serving.abandoned", tenant=tenant).inc()
            emit("serving.abandoned", tenant=tenant, op=request.op)
            response = self._error(
                request.op, tenant,
                DeadlineExceeded(
                    f"request still running {self.deadline_grace:.3f}s past "
                    f"its deadline; abandoned"),
                started)
        except BaseException:
            ticket.release()
            raise
        else:
            ticket.release()
        response.elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._registry.histogram("serving.latency_ms", tenant=tenant).observe(
            response.elapsed_ms)
        return response

    def _error(self, op: str, tenant: str, exc: BaseException,
               started: float) -> ServingResponse:
        return ServingResponse(
            ok=False, op=op, tenant=tenant, error=str(exc),
            error_type=type(exc).__name__,
            elapsed_ms=(time.perf_counter() - started) * 1000.0)

    def _run(self, tenant: str, request: ServingRequest,
             deadline: Optional[float]) -> ServingResponse:
        """Worker-side: open the request identity, dispatch, type the result."""
        started = time.perf_counter()
        with request_context(tenant=tenant, deadline=deadline,
                             op=request.op) as ctx:
            with get_recorder().span("serving.request", tier="serving",
                                     system="LakeServer",
                                     function="heterogeneous_query",
                                     op=request.op, tenant=tenant):
                handlers = {
                    "ingest": self._handle_ingest,
                    "discover": self._handle_discover,
                    "discover_batch": self._handle_discover_batch,
                    "sql": self._handle_sql,
                    "fetch": self._handle_fetch,
                    "health": self._handle_health,
                }
                try:
                    check_deadline(f"serving.{request.op}")  # queue time counts
                    value = handlers[request.op](tenant, request)
                except DataLakeError as exc:
                    if not isinstance(exc, DATA_ERRORS + SHED_ERRORS):
                        self._registry.counter("serving.errors",
                                               tenant=tenant).inc()
                    response = self._error(request.op, tenant, exc, started)
                except Exception as exc:  # noqa: BLE001 — typed-response boundary
                    errors = self._registry.counter("serving.errors",
                                                    tenant=tenant)
                    errors.inc()
                    emit("serving.internal_error", tenant=tenant, op=request.op,
                         error=type(exc).__name__)
                    response = self._error(request.op, tenant, exc, started)
                else:
                    response = ServingResponse(
                        ok=True, op=request.op, tenant=tenant, value=value,
                        elapsed_ms=(time.perf_counter() - started) * 1000.0)
                response.request_id = ctx.request_id
                return response

    def _guarded(self, tenant: str, fn: Callable[[], Any]) -> Any:
        """Per-tenant breaker funnel for all backend (lake) work.

        Data-shaped errors count as backend successes (mirroring the
        polystore's guard): an unknown dataset or a malformed query is
        the caller's fault and must not open the tenant's circuit.
        """
        breaker = self.breakers.breaker(f"tenant:{tenant}")
        if not breaker.allow():
            raise CircuitOpen(
                f"serving circuit for tenant {tenant!r} is open; failing fast")
        try:
            result = fn()
        except DATA_ERRORS:
            breaker.record_success()
            raise
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        return result

    # -- handlers (every lake touch goes through _guarded) ---------------------

    def _handle_ingest(self, tenant: str, request: ServingRequest) -> Dict[str, Any]:
        if not request.name or request.data is None:
            raise SchemaError("ingest needs name= and data={column: values}")
        if NAMESPACE_SEPARATOR in request.name:
            # names carrying the separator could never be addressed through
            # the SQL rewrite, and would blur the namespace boundary
            raise ValidationError(
                f"dataset name {request.name!r} may not contain "
                f"{NAMESPACE_SEPARATOR!r}")
        qualified = qualify(tenant, request.name)
        source = request.source or f"serving:{tenant}"
        with self._ingest_lock:
            # writes are serialized on purpose: concurrent ingest into the
            # same backing store is what the lock exists to prevent, so the
            # backend call must happen under it
            self._guarded(tenant, lambda: self.lake.ingest_table(  # lakelint: disable=lock-across-blocking
                qualified, request.data, source=source))
        rows = max((len(v) for v in request.data.values()), default=0)
        return {"name": request.name, "rows": rows}

    def _handle_fetch(self, tenant: str, request: ServingRequest) -> Dict[str, Any]:
        qualified = qualify(tenant, request.name)
        # absence and denial are indistinguishable: a foreign name simply
        # never resolves inside this tenant's namespace
        dataset = self._guarded(tenant, lambda: self.lake.dataset(qualified))
        cap = self._admission.quota(tenant).max_result_rows
        out: Dict[str, Any] = {"name": request.name, "format": dataset.format}
        try:
            table = dataset.as_table()
        except SchemaError:
            out["payload"] = dataset.payload
            return out
        total = len(table)
        out["columns"] = {column.name: list(column.values[:cap])
                          for column in table.columns}
        out["rows"] = min(total, cap)
        out["truncated"] = self._truncated(tenant, total, cap)
        return out

    def _handle_sql(self, tenant: str, request: ServingRequest) -> Dict[str, Any]:
        if not request.query:
            raise QueryError("sql needs query=")
        rewritten = self._rewrite_sql(tenant, request.query)
        table = self._guarded(tenant, lambda: self.lake.sql(rewritten))
        cap = self._admission.quota(tenant).max_result_rows
        rows = zip(*(column.values[:cap] for column in table.columns))
        return {
            "columns": list(table.column_names),
            "rows": [list(row) for row in rows],
            "truncated": self._truncated(tenant, len(table), cap),
        }

    def _handle_discover(self, tenant: str, request: ServingRequest) -> List[Any]:
        kind = request.kind
        k = request.k
        table = qualify(tenant, request.table)
        if kind == "keyword":
            answer = self._guarded(tenant, lambda: self.lake.keyword_search(
                request.keywords, k=self._internal_k(tenant, kind, k)))
        elif kind == "joinable":
            if not request.column:
                raise QueryError("joinable discovery needs column=")
            answer = self._guarded(tenant, lambda: self.lake.discover_joinable(
                table, request.column, k=self._internal_k(tenant, kind, k)))
        elif kind == "related":
            answer = self._guarded(tenant, lambda: self.lake.discover_related(
                table, k=self._internal_k(tenant, kind, k)))
        elif kind == "union":
            answer = self._guarded(tenant, lambda: self.lake.discover_union(
                table, k=self._internal_k(tenant, kind, k)))
        else:
            raise QueryError(f"unknown discovery kind {kind!r}")
        return self._visible(tenant, kind, answer, k)

    def _handle_discover_batch(self, tenant: str,
                               request: ServingRequest) -> List[Any]:
        from repro.exploration.parallel import DiscoveryQuery, as_query

        specs: List[DiscoveryQuery] = []
        ks: List[int] = []
        for raw in request.queries:
            query = as_query(raw)
            ks.append(query.k)
            replace: Dict[str, Any] = {
                "k": self._internal_k(tenant, query.kind, query.k)}
            if query.table:
                replace["table"] = qualify(tenant, query.table)
            specs.append(dataclasses.replace(query, **replace))
        answers = self._guarded(
            tenant, lambda: self.lake.discover_batch(specs))
        return [self._visible(tenant, query.kind, answer, k)
                for query, answer, k in zip(specs, answers, ks)]

    def _handle_health(self, tenant: str, request: ServingRequest) -> Dict[str, Any]:
        report = self._guarded(tenant, lambda: self.lake.health())
        degraded = report.get("degraded_placements", []) or []
        return {
            "healthy": bool(report.get("healthy", False)),
            "degraded_placements": len(degraded),
            # tenants must not observe each other: the embedded serving view
            # is scoped to the caller (stats() is the operator dashboard)
            "serving": self.stats_for(tenant),
        }

    # -- namespace helpers -----------------------------------------------------

    @staticmethod
    def _visible(tenant: str, kind: str, answer: List[Any], k: int) -> List[Any]:
        """The top *k* of a discovery *answer* in *tenant*'s namespace.

        Foreign tables are dropped and the tenant prefix is stripped from
        the rest; keyword hits become ``{"table", "score"}`` dicts.
        """
        if kind == "keyword":
            return [{"table": strip_namespace(tenant, hit.table), "score": hit.score}
                    for hit in answer if in_namespace(tenant, hit.table)][:k]
        if kind == "joinable":
            return [((strip_namespace(tenant, name), column), score)
                    for (name, column), score in answer
                    if in_namespace(tenant, name)][:k]
        return [(strip_namespace(tenant, name), score)
                for name, score in answer if in_namespace(tenant, name)][:k]

    def _truncated(self, tenant: str, total: int, cap: int) -> bool:
        if total <= cap:
            return False
        self._registry.counter("serving.truncated", tenant=tenant).inc()
        return True

    def _internal_k(self, tenant: str, kind: str, k: int) -> int:
        """Ask the shared engines for enough answers to survive filtering.

        Foreign tables can occupy top-k slots the tenant will never see:
        widen k by the number of slots they could possibly take (one per
        foreign table; per foreign *column* for joinable), which makes
        the post-filter top-k exact at the cost of a larger engine k.
        """
        return k + self._foreign_slots_unguarded(tenant, kind)

    def _foreign_slots_unguarded(self, tenant: str, kind: str) -> int:
        # catalog metadata reads are in-process lookups, not backend work:
        # routing them through the breaker would interleave successes
        # between real backend failures and mask an outage
        foreign_slots = 0
        for name in self.lake.datasets():
            if in_namespace(tenant, name):
                continue
            if kind != "joinable":
                foreign_slots += 1
                continue
            foreign_slots += self._schema_width_unguarded(name)
        return foreign_slots

    def _schema_width_unguarded(self, name: str) -> int:
        """Column count of dataset *name* from catalog metadata alone.

        Never materializes a foreign table: a ``Table`` payload already
        knows its width, a document list's width is the union of its
        record keys (what tabularizing it would produce), and anything
        else counts zero — non-tabular datasets never occupy joinable
        answer slots.  Cached per catalog epoch so repeated discovery
        requests pay one catalog walk, not one per request.
        """
        epoch = self.lake.epochs.epoch("aurum")  # bumped on any table change
        with self._schema_widths_lock:
            if epoch != self._schema_widths_epoch:
                self._schema_widths.clear()
                self._schema_widths_epoch = epoch
            width = self._schema_widths.get(name)
        if width is not None:
            return width
        try:
            payload = self.lake.dataset(name).payload
        except DataLakeError:
            width = 0  # racing removal: a vanished dataset takes no slots
        else:
            if isinstance(payload, Table):
                width = len(payload.columns)
            elif (isinstance(payload, list)
                    and all(isinstance(r, dict) for r in payload)):
                keys = set()
                for record in payload:
                    keys.update(record)
                width = len(keys)
            else:
                width = 0
        with self._schema_widths_lock:
            if epoch == self._schema_widths_epoch:
                self._schema_widths[name] = width
        return width

    def _rewrite_sql(self, tenant: str, query: str) -> str:
        """Qualify *query*'s table references into the tenant namespace.

        Token-level, using the SQL engine's own lexer: only identifiers
        in table position (right after ``FROM`` / ``JOIN``) are
        qualified, so a column that happens to share a dataset's name is
        left alone; string literals pass through verbatim.  Any
        identifier carrying the namespace separator is rejected before
        the lake sees it — the qualified form is a serving-tier
        internal, and accepting it would let a tenant name another
        tenant's datasets directly.
        """
        from repro.exploration.sql import tokenize_sql

        out: List[str] = []
        table_position = False
        for token in tokenize_sql(query):
            if token.startswith("'"):
                out.append(token)
                table_position = False
                continue
            if NAMESPACE_SEPARATOR in token:
                raise QueryError(
                    f"identifier {token!r} is not addressable: names "
                    f"containing {NAMESPACE_SEPARATOR!r} are reserved")
            if table_position:
                out.append(qualify(tenant, token))
            else:
                out.append(token)
            table_position = token.lower() in _TABLE_KEYWORDS
        return " ".join(out)

    # -- lifecycle / introspection ---------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("LakeServer is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-serving")
            return self._pool

    def close(self) -> None:
        """Stop accepting work and wait out in-flight requests."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "LakeServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def stats(self) -> Dict[str, Any]:
        """Admission, breaker and pool state — the operator dashboard."""
        return {
            "workers": self.workers,
            "closed": self._closed,
            "admission": self._admission.stats(),
            "breakers": self.breakers.snapshot(),
        }

    def stats_for(self, tenant: str) -> Dict[str, Any]:
        """The slice of :meth:`stats` *tenant* is allowed to observe.

        Its own admission counts and breaker plus tenant-neutral
        aggregates (pool shape, pending vs ceiling) — never the tenant
        roster or anyone else's counters, which would let tenants
        observe each other through the health op.
        """
        full = self.stats()
        own = full["admission"]["tenants"].get(tenant)
        breaker_key = f"tenant:{tenant}"
        return {
            "workers": full["workers"],
            "closed": full["closed"],
            "admission": {
                "max_pending": full["admission"]["max_pending"],
                "pending": full["admission"]["pending"],
                "tenants": {tenant: own} if own is not None else {},
            },
            "breakers": {key: value for key, value in full["breakers"].items()
                         if key == breaker_key},
        }
