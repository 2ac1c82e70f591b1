"""Multi-tenant serving tier: the lake as shared infrastructure.

The survey frames a data lake as infrastructure serving many concurrent
consumers across its functional tiers; this package is the front-end
that makes our lake servable (see ``docs/SERVING.md``):

- :mod:`repro.serving.auth` — the token → tenant :class:`AuthRegistry`
  with optional expiry, and the tenant-namespace validation rules;
- :mod:`repro.serving.quotas` — declarative :class:`TenantQuota` (max
  in-flight, requests/sec token bucket, max result rows) enforced by the
  :class:`AdmissionController` *before* anything is queued;
- :mod:`repro.serving.server` — :class:`LakeServer`, dispatching typed
  requests (ingest / discover / discover_batch / sql / fetch / health)
  on the caller's thread, or on a bounded worker pool when the request
  has a deadline, per-tenant namespaces over one shared
  :class:`~repro.core.lake.DataLake`, per-tenant circuit breakers, and
  per-request :class:`~repro.obs.context.RequestContext` activation so
  every span, metric and event is tenant-attributed.

Two-tenant quickstart::

    from repro.serving import LakeServer, TenantQuota

    server = LakeServer()
    alice = server.connect(server.register_tenant("alice"))
    bob = server.connect(server.register_tenant(
        "bob", quota=TenantQuota(requests_per_sec=10)))
    alice.ingest("sales", {"region": ["EU"], "amount": [10]})
    bob.fetch("sales").raise_for_status()  # DatasetNotFound: isolated
"""

from repro.serving.auth import (
    NAMESPACE_SEPARATOR,
    AuthRegistry,
    Credential,
    validate_tenant,
)
from repro.serving.quotas import (
    AdmissionController,
    AdmissionTicket,
    TenantQuota,
    TokenBucket,
)
from repro.serving.server import (
    OPS,
    LakeServer,
    ServingRequest,
    ServingResponse,
    Session,
    in_namespace,
    qualify,
    strip_namespace,
)

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "AuthRegistry",
    "Credential",
    "LakeServer",
    "NAMESPACE_SEPARATOR",
    "OPS",
    "ServingRequest",
    "ServingResponse",
    "Session",
    "TenantQuota",
    "TokenBucket",
    "in_namespace",
    "qualify",
    "strip_namespace",
    "validate_tenant",
]
