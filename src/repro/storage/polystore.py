"""Polystore routing (survey Sec. 4.3) with breaker-guarded degraded mode.

Constance "stores the diverse raw data according to its original format:
relational (e.g., MySQL), document-based (e.g., MongoDB), and graph
databases (e.g., Neo4j)", falling back to HDFS for anything else, with the
option for users to override the placement.  :class:`Polystore` reproduces
that policy over our local backends and keeps a placement catalog so the
exploration tier can locate any dataset.

Resilience (see ``docs/FAULTS.md``): every cross-backend call funnels
through a per-backend :class:`~repro.faults.breaker.CircuitBreaker`
(``tests/storage/test_breaker_funnels.py`` checks this on every backend
by running each entry point), failed calls are retried per
the :class:`~repro.faults.breaker.ResilienceConfig` retry policy, and when
a primary backend stays down the polystore *degrades* instead of failing:

- a failed **store** is redirected to the object-store fallback bucket and
  its :class:`Placement` is marked ``degraded`` with the intended backend
  recorded, so a maintenance job can :meth:`repair` it later;
- a failed **fetch** is served from the dataset's fallback copy when one
  exists (written at failover time, or eagerly under
  ``ResilienceConfig(replicate="always")``).

Methods named ``*_unguarded`` are the sanctioned raw-access paths: the
fallback tier is the last resort and must be attempted even when a
breaker would reject the call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.dataset import Dataset, Table
from repro.core.errors import (
    BackendUnavailable,
    CircuitOpen,
    DatasetNotFound,
    QueryError,
    SchemaError,
    StorageError,
)
from repro.core.registry import Function, Method, SystemInfo, register_system
from repro.faults.breaker import HealthRegistry, ResilienceConfig
from repro.obs import annotate, emit, get_registry, traced
from repro.storage.document import DocumentStore
from repro.storage.graph import GraphStore
from repro.storage.object_store import ObjectStore, StoredObject
from repro.storage.relational import RelationalStore

#: exceptions that mean "the backend answered; the *data* is the problem" —
#: they pass through the breaker guard without counting as backend failures
_DATA_ERRORS = (DatasetNotFound, SchemaError, QueryError)


@dataclass(frozen=True)
class Placement:
    """Where one dataset lives inside the polystore.

    ``degraded`` placements landed in the object-store fallback because
    their ``intended_backend`` was unavailable at store time; they are the
    work-list of :meth:`Polystore.repair`.
    """

    dataset: str
    backend: str  # "relational" | "document" | "graph" | "objects"
    location: str  # table name / collection name / bucket-key
    degraded: bool = False
    intended_backend: Optional[str] = None


@register_system(SystemInfo(
    name="Constance (polystore storage)",
    functions=(Function.STORAGE_BACKEND,),
    methods=(Method.POLYSTORE,),
    paper_refs=("[61]", "[65]"),
    summary="Routes raw data to relational/document/graph stores by original format, "
            "with file-store fallback and user override.",
))
class Polystore:
    """Format-based dataset placement over heterogeneous backends."""

    #: default format -> backend policy (Constance's defaults, Sec. 4.3)
    DEFAULT_POLICY: Dict[str, str] = {
        "table": "relational",
        "csv": "relational",
        "tsv": "relational",
        "columnar": "relational",
        "rowbin": "relational",
        "json": "document",
        "jsonl": "document",
        "xml": "document",
        "graph": "graph",
        "text": "objects",
        "binary": "objects",
    }

    #: every backend the placement catalog may reference
    BACKENDS = frozenset({"relational", "document", "graph", "objects"})

    #: object-store bucket holding failover copies and replicas
    FALLBACK_BUCKET = "fallback"

    def __init__(
        self,
        relational: Optional[RelationalStore] = None,
        document: Optional[DocumentStore] = None,
        graph: Optional[GraphStore] = None,
        objects: Optional[ObjectStore] = None,
        health: Optional[HealthRegistry] = None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.relational = relational if relational is not None else RelationalStore()
        self.document = document if document is not None else DocumentStore()
        self.graph = graph if graph is not None else GraphStore()
        self.objects = objects if objects is not None else ObjectStore()
        if health is not None and resilience is None:
            resilience = health.config
        self._resilience = resilience or ResilienceConfig()
        self.health = health or HealthRegistry(self._resilience)
        self.objects.create_bucket("raw")
        self._placements: Dict[str, Placement] = {}
        registry = get_registry()
        self._m_failover_stores = registry.counter("storage.failover.stores")
        self._m_failover_fetches = registry.counter("storage.failover.fetches")
        self._m_repairs = registry.counter("storage.failover.repairs")

    # -- breaker guard ----------------------------------------------------------

    def _guarded(self, backend: str, operation: str, fn: Callable[[], Any]) -> Any:
        """Run one backend call under its breaker, with bounded retry.

        Data errors (:data:`_DATA_ERRORS`) pass through untouched and count
        as backend *successes*; anything else counts as a backend failure
        and surfaces as :class:`BackendUnavailable` once the retry budget
        is spent.  Raises :class:`CircuitOpen` without touching the backend
        while its circuit is open.
        """
        if not self._resilience.enabled:
            return fn()
        breaker = self.health.breaker(backend)
        retry = self._resilience.retry
        attempt = 0
        while True:
            attempt += 1
            if not breaker.allow():
                raise CircuitOpen(
                    f"backend {backend!r} circuit is open; {operation!r} rejected")
            try:
                result = fn()
            except _DATA_ERRORS:
                breaker.record_success()
                raise
            except Exception as exc:
                breaker.record_failure()
                if retry.retries(exc, attempt):
                    time.sleep(retry.delay(f"{backend}.{operation}", attempt))
                    continue
                raise BackendUnavailable(
                    f"backend {backend!r} failed during {operation!r} after "
                    f"{attempt} attempt(s): {exc}") from exc
            breaker.record_success()
            return result

    def guarded(self, backend: str, operation: str, fn: Callable[[], Any]) -> Any:
        """Public breaker guard for collaborators (the federation engine,
        ``DataLake.sql``)."""
        return self._guarded(backend, operation, fn)

    # -- placement ---------------------------------------------------------------

    def choose_backend(self, dataset: Dataset) -> str:
        """Apply the default routing policy to *dataset*."""
        if isinstance(dataset.payload, Table):
            return "relational"
        return self.DEFAULT_POLICY.get(dataset.format, "objects")

    @traced("storage.polystore.store", tier="storage", system="Constance",
            function="storage_backend")
    def store(self, dataset: Dataset, backend: Optional[str] = None) -> Placement:
        """Place *dataset*; *backend* overrides the policy (the UI override).

        When the chosen backend is unavailable the write fails over to the
        object-store fallback and the returned :class:`Placement` is marked
        ``degraded``.  A re-store that moves a dataset off the relational
        backend drops its old table there, so SQL cannot read it.  Returns
        the recorded :class:`Placement`.
        """
        chosen = backend or self.choose_backend(dataset)
        annotate(backend=chosen)
        if chosen not in self.BACKENDS:
            raise StorageError(f"unknown backend {chosen!r}")
        try:
            placement = self._store_on(chosen, dataset)
        except BackendUnavailable as exc:
            if chosen == "objects" or not self._resilience.enabled:
                raise
            placement = self._failover_store(dataset, chosen, exc)
        else:
            if chosen != "objects" and self._resilience.replicate == "always":
                self._replicate_unguarded(dataset, chosen)
        previous = self._placements.get(dataset.name)
        if (previous is not None and previous.backend == "relational"
                and chosen != "relational"):
            self._guarded("relational", "drop_table",
                          lambda: self.relational.drop_table(previous.location))
        self._placements[dataset.name] = placement
        return placement

    def _store_on(self, chosen: str, dataset: Dataset) -> Placement:
        """Write *dataset* to *chosen*; raises BackendUnavailable on outage."""
        if chosen == "relational":
            table = dataset.as_table()
            stored = Table(dataset.name, table.columns)
            self._guarded("relational", "create_table",
                          lambda: self.relational.create_table(stored))
            return Placement(dataset.name, "relational", dataset.name)
        if chosen == "document":
            documents = dataset.payload
            if isinstance(documents, dict):
                documents = [documents]
            if isinstance(documents, Table):
                documents = documents.to_records()
            if not isinstance(documents, list):
                raise StorageError(
                    f"dataset {dataset.name!r} cannot be stored as documents"
                )
            normalized = [d if isinstance(d, dict) else {"value": d}
                          for d in documents]
            self._guarded("document", "create_collection",
                          lambda: self.document.create_collection(dataset.name))
            self._guarded("document", "insert_many",
                          lambda: self.document.insert_many(dataset.name, normalized))
            return Placement(dataset.name, "document", dataset.name)
        if chosen == "graph":
            return Placement(dataset.name, "graph", dataset.name)
        # objects: the guard wraps the sanctioned raw-access helper so the
        # file tier still gets breaker bookkeeping on its primary path
        self._guarded("objects", "put",
                      lambda: self._put_object_unguarded("raw", dataset.name, dataset))
        return Placement(dataset.name, "objects", f"raw/{dataset.name}")

    def placement(self, dataset_name: str) -> Placement:
        try:
            return self._placements[dataset_name]
        except KeyError:
            raise DatasetNotFound(f"dataset {dataset_name!r} is not placed") from None

    def placements(self) -> List[Placement]:
        return [self._placements[name] for name in sorted(self._placements)]

    # -- retrieval -----------------------------------------------------------------

    @traced("storage.polystore.fetch", tier="storage", system="Constance",
            function="storage_backend")
    def fetch(self, dataset_name: str) -> Any:
        """Retrieve a dataset's payload from wherever it was placed.

        When the primary backend is unavailable and a fallback copy exists
        in the object store, the copy is served instead (counted on the
        ``storage.failover.fetches`` metric).  A dataset placed on the
        object store has no copy elsewhere, so its failure is raised.
        """
        placement = self.placement(dataset_name)
        annotate(backend=placement.backend)
        try:
            return self._fetch_from(placement)
        except DatasetNotFound as exc:
            raise DatasetNotFound(
                f"dataset {dataset_name!r}: lookup failed on backend "
                f"{placement.backend!r} at location {placement.location!r}: {exc}"
            ) from None
        except BackendUnavailable:
            if placement.backend == "objects":
                raise  # the fallback copy lives on the failing backend too
            replica = self._replica_unguarded(dataset_name)
            if replica is None:
                raise
            self._m_failover_fetches.inc()
            annotate(failover=True)
            emit("fetch.degraded", dataset=dataset_name,
                 backend=placement.backend)
            return replica.payload()

    def _fetch_from(self, placement: Placement) -> Any:
        if placement.backend == "relational":
            return self._guarded("relational", "table",
                                 lambda: self.relational.table(placement.location))
        if placement.backend == "document":
            docs = self._guarded("document", "all_documents",
                                 lambda: self.document.all_documents(placement.location))
            for doc in docs:
                doc.pop("_id", None)
            return docs
        if placement.backend == "objects":
            bucket, key = placement.location.split("/", 1)
            obj = self._guarded("objects", "get",
                                lambda: self.objects.get(bucket, key))
            return obj.payload()
        if placement.backend == "graph":
            return self.graph
        raise StorageError(f"unknown backend {placement.backend!r}")

    # -- degraded mode ----------------------------------------------------------

    def _put_object_unguarded(self, bucket: str, key: str, dataset: Dataset,
                              metadata: Optional[Dict[str, Any]] = None) -> StoredObject:
        """Raw object-store write (fallback tier: must work past breakers)."""
        payload = dataset.payload
        meta = dict(metadata or {})
        if isinstance(payload, bytes):
            return self.objects.put_bytes(bucket, key, payload, format="text",
                                          metadata=meta)
        if isinstance(payload, Table):
            # files keep their original (tabular) format in the file tier
            return self.objects.put(bucket, key, payload, format="csv",
                                    metadata=meta)
        if isinstance(payload, list):
            return self.objects.put(bucket, key, payload, format="jsonl",
                                    metadata=meta)
        text = payload if isinstance(payload, str) else str(payload)
        return self.objects.put(bucket, key, text, format="text", metadata=meta)

    def _replica_unguarded(self, dataset_name: str) -> Optional[StoredObject]:
        """The dataset's fallback copy, or None (raw access past breakers)."""
        if self.objects.exists(self.FALLBACK_BUCKET, dataset_name):
            return self.objects.get(self.FALLBACK_BUCKET, dataset_name)
        return None

    def _failover_store(self, dataset: Dataset, intended: str,
                        cause: BackendUnavailable) -> Placement:
        """Redirect a failed store to the fallback bucket, marked degraded."""
        self._m_failover_stores.inc()
        annotate(failover=intended, cause=type(cause).__name__)
        emit("store.degraded", dataset=dataset.name, intended=intended,
             cause=type(cause).__name__)
        self._put_object_unguarded(
            self.FALLBACK_BUCKET, dataset.name, dataset,
            metadata={"intended_backend": intended,
                      "dataset_format": dataset.format})
        return Placement(dataset.name, "objects",
                         f"{self.FALLBACK_BUCKET}/{dataset.name}",
                         degraded=True, intended_backend=intended)

    def _replicate_unguarded(self, dataset: Dataset, chosen: str) -> None:
        """Write-through replication (``replicate="always"``), best effort."""
        try:
            self._put_object_unguarded(
                self.FALLBACK_BUCKET, dataset.name, dataset,
                metadata={"intended_backend": chosen, "replica": True,
                          "dataset_format": dataset.format})
        except (StorageError, OSError, ValueError, TypeError):
            get_registry().counter("storage.replication_failures").inc()

    def degraded_placements(self) -> List[Placement]:
        """Placements that landed in the fallback tier, sorted by dataset."""
        return [p for p in self.placements() if p.degraded]

    def repair(self, dataset_name: str) -> Placement:
        """Re-place a degraded dataset on its intended backend.

        Raises :class:`BackendUnavailable` while the intended backend is
        still down (maintenance jobs retry per their
        :class:`~repro.runtime.jobs.RetryPolicy`); the fallback copy is
        retained as a replica after promotion.
        """
        placement = self.placement(dataset_name)
        if not placement.degraded:
            return placement
        replica = self._replica_unguarded(dataset_name)
        if replica is None:
            raise DatasetNotFound(
                f"dataset {dataset_name!r} has no fallback copy to repair from")
        intended = placement.intended_backend or "objects"
        dataset = Dataset(
            name=dataset_name, payload=replica.payload(),
            format=replica.metadata.get("dataset_format", replica.format))
        repaired = self._store_on(intended, dataset)
        self._placements[dataset_name] = repaired
        self._m_repairs.inc()
        return repaired

    # -- reporting ---------------------------------------------------------------

    def backend_summary(self) -> Dict[str, int]:
        """Dataset count per backend (the storage-tier view of Fig. 2)."""
        counts: Dict[str, int] = {}
        for placement in self._placements.values():
            counts[placement.backend] = counts.get(placement.backend, 0) + 1
        return counts

    def health_report(self) -> Dict[str, Any]:
        """Breaker states, degraded placements and failover counters."""
        degraded = self.degraded_placements()
        return {
            "healthy": self.health.healthy and not degraded,
            "breakers": self.health.snapshot(),
            "degraded_placements": [p.dataset for p in degraded],
            "failover": {
                "stores": self._m_failover_stores.value,
                "fetches": self._m_failover_fetches.value,
                "repairs": self._m_repairs.value,
            },
        }
