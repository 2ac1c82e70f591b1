"""Request context propagation: one identity for everything a call causes.

The lake crosses thread boundaries — async maintenance runs on
:class:`~repro.runtime.scheduler.JobScheduler` workers, serving requests
with a deadline run on the server's worker pool — and a span or event
recorded on a worker thread is useless for accounting unless it still
knows *which* ``DataLake`` call it belongs to.  A :class:`RequestContext` is that
identity: a request id, an optional tenant tag, an optional deadline,
and free-form baggage.

The active context rides a :mod:`contextvars` variable, which follows
the logical call flow on one thread but does **not** cross into pool
workers or scheduler threads by itself.  Every thread-spawn site that
runs request work therefore hands the context over explicitly.
``tests/test_obs_request_attribution.py`` checks that scheduler jobs
keep the id of the request that submitted them, and
``tests/serving/test_server.py`` that a served request's spans keep its
tenant.  The hand-off:

- :func:`capture_context` at the submission site,
- :func:`bind_context` (or :func:`with_context`) around the work on the
  receiving thread.

A context also carries the random ``draw`` a span recorder applies its
share to, once per request.  Binding the context on another thread
carries the draw, so a request is recorded or skipped as a whole.
Every ``@traced`` call that starts a request mints a context, recorded
or not, so its events carry a request id and its deadline checkpoints
work; minting is a tuple construction and activation a small class, not
a generator.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import random
import time
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional

#: request ids are ``req-<pid>-<counter>``: unique within the process and
#: distinguishable across processes sharing a log sink
_IDS = itertools.count(1)
_ID_FORMAT = f"req-{os.getpid()}-%06d"

#: the per-request draw a recorder's share is applied to; a private
#: generator, so the lake's seeded generators never see these draws
_DRAWS = random.Random()

_NO_BAGGAGE: Mapping[str, Any] = MappingProxyType({})

_CURRENT: "contextvars.ContextVar[Optional[RequestContext]]" = contextvars.ContextVar(
    "repro_request_context", default=None)

_record = tuple.__new__


class RequestContext(NamedTuple):
    """Identity and budget of one logical request through the lake.

    An immutable record.  ``deadline`` is an *absolute*
    ``time.monotonic()`` instant (use :func:`new_context`'s ``timeout=``
    to derive one); ``baggage`` is free-form key/value metadata carried
    verbatim across every hop.

    ``draw`` is a uniform number in [0, 1) drawn once per request: a
    :class:`~repro.obs.spans.SpanRecorder` records the request when
    ``draw`` falls below the recorder's share, so a request is recorded
    or skipped as a whole on every thread that binds it.
    """

    request_id: str
    tenant: str = ""
    deadline: Optional[float] = None
    baggage: Mapping[str, Any] = _NO_BAGGAGE
    draw: float = 0.0

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (negative when past), or None."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"request_id": self.request_id}
        if self.tenant:
            out["tenant"] = self.tenant
        if self.deadline is not None:
            out["deadline_remaining_s"] = round(self.remaining() or 0.0, 6)
        if self.baggage:
            out["baggage"] = dict(self.baggage)
        return out


def new_context(
    tenant: str = "",
    request_id: Optional[str] = None,
    deadline: Optional[float] = None,
    timeout: Optional[float] = None,
    **baggage: Any,
) -> RequestContext:
    """Mint a fresh context (no activation); ``timeout`` sets the deadline.

    Minted while another context is active, the new one inherits that
    context's draw, so a nested request is recorded exactly when its
    parent is.
    """
    if timeout is not None:
        if timeout < 0:
            raise ValueError("timeout must be non-negative")
        deadline = time.monotonic() + timeout
    if request_id is None:
        request_id = _ID_FORMAT % next(_IDS)
    parent = _CURRENT.get()
    draw = _DRAWS.random() if parent is None else parent.draw
    return _record(RequestContext, (request_id, tenant, deadline,
                                    baggage or _NO_BAGGAGE, draw))


def current_context() -> Optional[RequestContext]:
    """The context active on this thread's logical flow, or None."""
    return _CURRENT.get()


def capture_context() -> Optional[RequestContext]:
    """Alias of :func:`current_context` naming the hand-off intent.

    Use at a thread-spawn site: ``ctx = capture_context()`` on the
    submitting thread, ``with bind_context(ctx):`` on the worker.
    """
    return _CURRENT.get()


class _Activation:
    """Makes one context active for a ``with`` block on this thread.

    The one activation behind :func:`request_context`,
    :func:`bind_context` and a ``@traced`` root: it sets the context
    variable on entry and restores the previous value on exit.
    """

    __slots__ = ("context", "_token")

    def __init__(self, context: Optional[RequestContext]):
        self.context = context

    def __enter__(self) -> Optional[RequestContext]:
        self._token = _CURRENT.set(self.context)
        return self.context

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False


def check_deadline(op: str = "") -> None:
    """Raise :class:`~repro.core.errors.DeadlineExceeded` if the active
    context's deadline has passed; no-op without a context or deadline.

    This is the deadline *checkpoint* the lake's entry points call
    (``DataLake._cached``, the serving dispatcher, a query-triggered
    index refresh) so a per-request timeout cuts work short instead of
    merely riding along in the baggage.
    """
    ctx = _CURRENT.get()
    if ctx is None or ctx.deadline is None:
        return
    remaining = ctx.deadline - time.monotonic()
    if remaining > 0:
        return
    # cold path only: the imports would be cyclic at module load
    # (core.lake -> repro.obs -> context -> core.errors -> core package)
    from repro.core.errors import DeadlineExceeded
    from repro.obs.events import emit
    from repro.obs.instrument import get_registry

    get_registry().counter("context.deadline_exceeded").inc()
    emit("context.deadline_exceeded", request_id=ctx.request_id,
         tenant=ctx.tenant, op=op, overrun_s=round(-remaining, 6))
    where = f" at {op}" if op else ""
    raise DeadlineExceeded(
        f"request {ctx.request_id} exceeded its deadline{where} "
        f"(over by {-remaining:.4f}s)")


def request_context(
    tenant: str = "",
    request_id: Optional[str] = None,
    deadline: Optional[float] = None,
    timeout: Optional[float] = None,
    **baggage: Any,
) -> _Activation:
    """Activate a fresh :class:`RequestContext` for the ``with`` body."""
    return _Activation(new_context(tenant, request_id, deadline, timeout,
                                   **baggage))


def bind_context(ctx: Optional[RequestContext]) -> _Activation:
    """Re-activate a captured context on the current (worker) thread.

    Binding ``None`` is an explicit "no originating request" and clears
    any context the worker happened to inherit — a job submitted outside
    a request must not be attributed to whatever ran last.
    """
    return _Activation(ctx)


def with_context(
    fn: Callable[..., Any],
    ctx: Optional[RequestContext] = None,
    *,
    capture: bool = True,
) -> Callable[..., Any]:
    """Wrap *fn* so it runs under *ctx* (captured now when not given).

    The hand-off helper for pool submissions::

        pool.submit(with_context(handle), request)
    """
    if ctx is None and capture:
        ctx = capture_context()
    bound = ctx

    def runner(*args: Any, **kwargs: Any) -> Any:
        with bind_context(bound):
            return fn(*args, **kwargs)

    runner.__name__ = getattr(fn, "__name__", "with_context")
    runner.__obs_context__ = bound
    return runner
