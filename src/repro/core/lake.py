"""The :class:`DataLake` facade — Fig. 2 of the survey as one object.

The survey's proposed architecture wires a storage tier to three function
tiers (ingestion, maintenance, exploration).  ``DataLake`` composes our
implementations of every tier behind one coherent API:

- **storage**: a :class:`~repro.storage.polystore.Polystore` places each
  raw dataset by its original format;
- **ingestion**: every ingest runs metadata extraction (GEMMS) and records
  the result in the metadata repository and the GOODS-style catalog;
- **maintenance**: discovery indexes, enrichment, cleaning and provenance
  are maintained over the ingested datasets;
- **exploration**: query-driven discovery and heterogeneous querying.

Tier subsystems are imported when a lake is built, not when this module
is, so the core package stays import-light and free of cycles.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.dataset import Dataset, Table
from repro.core.errors import DatasetNotFound, JobTimeout, SchemaError
from repro.obs import (Observability, check_deadline, current_context, emit,
                       get_event_log, get_recorder, get_registry, traced)


class DataLake:
    """A complete data lake: storage + ingestion + maintenance + exploration.

    The three discovery indexes (Aurum, keyword search and table union
    search) are persistent structures kept current with per-table deltas
    by :attr:`maintainer`; every discovery query reads them through it.
    Maintenance runs in one of two modes (see docs/RUNTIME.md):

    - **sync** (the default): metadata extraction and catalog
      registration run inline during ``ingest``, which marks the table
      dirty in the index maintainer.  Once Aurum has been built (by its
      first reader, which applies a bulk load in one pass), ``ingest``
      also applies Aurum's delta before it returns, so a discovery
      query finds Aurum current; the keyword and union indexes apply
      their pending deltas when a keyword or union query next reads
      them;
    - **async** (``async_maintenance=True``): ingest marks the table
      dirty, enqueues the sync path's post-store steps (metadata
      extraction, catalog registration, then Aurum's delta once Aurum
      has been built) as one ``maintain:<name>`` job on a
      :class:`~repro.runtime.scheduler.JobScheduler` and returns
      immediately — built for bulk loads; call :meth:`drain` (or any
      exploration query, which quiesces first) to reach a consistent
      view.  The indexes are applied as in sync mode: Aurum by its first
      reader and then by each write, the keyword and union indexes by
      their own queries.

    Discovery runs on the caller's thread (see docs/EXPLORATION.md).
    ``cache=`` is a bool: ``True`` (the default) gives the lake its own
    :class:`~repro.exploration.parallel.QueryCache`, which memoizes
    discovery/keyword answers keyed by (engine, normalized query, index
    epoch); ``False`` disables it.  Any other value, a ``QueryCache``
    instance among them, raises :class:`TypeError`: a cache key names no
    lake, so a cache shared by two lakes would serve each one the
    other's answers.

    ``polystore=`` supplies the storage tier (a default in-memory
    :class:`~repro.storage.polystore.Polystore` otherwise).

    The constructor builds every other part once, as a plain attribute:
    the catalog, provenance recorder, metadata repository, zone manager,
    governance tool, job scheduler, index maintainer and observability
    facade.  No part is built on first use, so threads making a fresh
    lake's first writes all reach the same parts.

    Every entry point is traced: a call that starts a request mints a
    :class:`~repro.obs.context.RequestContext`, and the process-wide
    :mod:`repro.obs` recorder records one such request in 64 (install
    ``SpanRecorder(registry=get_registry())`` to keep them all; see
    docs/OBSERVABILITY.md).  A sync lake starts no thread until a
    caller submits work to :attr:`runtime`, as :meth:`repair_degraded`
    does for each degraded placement: that starts the scheduler's
    workers.
    """

    def __init__(
        self,
        *,
        async_maintenance: bool = False,
        polystore: Optional["Polystore"] = None,
        cache: bool = True,
    ):
        from repro.core.zones import ZoneManager
        from repro.exploration.parallel import EpochClock, QueryCache
        from repro.modeling.gemms_model import MetadataRepository
        from repro.organization.goods_catalog import GoodsCatalog
        from repro.provenance.events import ProvenanceRecorder
        from repro.provenance.governance import GovernanceTool
        from repro.runtime.incremental import IncrementalIndexMaintainer
        from repro.runtime.scheduler import JobScheduler
        from repro.storage.polystore import Polystore

        if not isinstance(cache, bool):
            raise TypeError(f"cache= takes True or False, not {cache!r}")
        self.polystore = polystore if polystore is not None else Polystore()
        self.async_maintenance = async_maintenance
        self._datasets: Dict[str, Dataset] = {}
        self._epochs = EpochClock()
        self._query_cache = QueryCache() if cache else None
        #: the GOODS-style dataset catalog
        self.catalog = GoodsCatalog()
        #: the provenance recorder, shared by the zone and governance tools
        self.provenance = ProvenanceRecorder()
        #: the GEMMS metadata repository
        self.metadata_repository = MetadataRepository()
        #: the zone life-cycle manager
        self.zones = ZoneManager(recorder=self.provenance)
        #: the request/approval governance tool
        self.governance = GovernanceTool(recorder=self.provenance)
        #: the maintenance job scheduler; its workers start on the first submit
        self.runtime = JobScheduler()
        #: the incremental index maintainer, wired to the lake's epoch
        #: clock: every noted table change bumps the index epoch, which
        #: is what invalidates the query cache
        self.maintainer = IncrementalIndexMaintainer(on_change=self._bump_epoch)
        #: spans and metrics over this process's lake operations (repro.obs)
        self.observability = Observability()

    @classmethod
    def in_memory(cls) -> "DataLake":
        """Create a fully in-memory lake (the default configuration)."""
        return cls()

    # -- query-cache epoch ----------------------------------------------------

    @property
    def epochs(self):
        """The index :class:`~repro.exploration.parallel.EpochClock`."""
        return self._epochs

    @property
    def query_cache(self):
        """The lake-wide query cache, or ``None`` when disabled."""
        return self._query_cache

    def _bump_epoch(self, table_name: str) -> None:
        """A tabular change invalidates every discovery engine's answers."""
        self._epochs.bump()

    # -- ingestion tier -----------------------------------------------------------

    @traced("ingestion.lake.ingest", tier="ingestion", function="ingestion")
    def ingest(self, dataset: Dataset, extract_metadata: bool = True) -> Dataset:
        """Ingest a :class:`Dataset`: place it, extract metadata, catalog it.

        In sync mode, once Aurum has been built, the write then applies
        its Aurum delta (:meth:`~repro.runtime.incremental.IncrementalIndexMaintainer.after_write`):
        an apply that raises propagates from here with the dataset
        committed and the change still pending for the next reader, and
        a write whose request deadline has passed leaves the change to
        the next reader.  In async mode the dirty mark, and the epoch
        bump it fires, come first and stay on the caller's thread, so no
        cache hit serves a pre-write answer; metadata extraction,
        catalog registration and the Aurum delta then run, in that
        order, as one ``maintain:<name>`` job on :attr:`runtime`, and an
        apply that raises fails the job into its retry, which applies
        the change again without registering the write twice.
        :meth:`drain` is the barrier that waits for the jobs.
        """
        placement = self.polystore.store(dataset)
        replaced = dataset.name in self._datasets
        self._datasets[dataset.name] = dataset
        if self.async_maintenance:
            # marked before the job is queued, so its apply finds the change
            self._note_index_change(dataset, replaced)
            steps = [functools.partial(self._maintain, dataset, placement,
                                       extract_metadata),
                     self.maintainer.after_write]
            self.runtime.submit(
                self._run_steps, args=(steps,),
                name=f"maintain:{dataset.name}", tags={"dataset": dataset.name})
        else:
            self._maintain(dataset, placement, extract_metadata)
            self._note_index_change(dataset, replaced)
        emit("ingest.committed", dataset=dataset.name, format=dataset.format,
             backend=placement.backend, mode="async" if self.async_maintenance
             else "sync")
        if not self.async_maintenance:
            # after the commit event: an apply that raises leaves the
            # dataset committed and its change pending for the next reader
            self.maintainer.after_write()
        return dataset

    # -- maintenance work (run inline in sync mode, as one job in async) -----------

    def _maintain(self, dataset: Dataset, placement, extract_metadata: bool) -> None:
        """One write's maintenance: metadata extraction, then catalog
        registration, so the catalog entry describes the enriched
        dataset.  A retried job runs it whole again: the metadata
        repository and the catalog replace an entry by name."""
        if extract_metadata:
            self._extract_metadata(dataset)
        self._register_catalog(dataset, placement)

    @staticmethod
    def _run_steps(steps: List[Any]) -> None:
        """An async write's job: *steps* in order, each dropped once it
        has run, so a retry resumes at the step that raised."""
        while steps:
            steps[0]()
            del steps[0]

    def _extract_metadata(self, dataset: Dataset) -> None:
        from repro.ingestion.gemms import GemmsExtractor

        record = GemmsExtractor().extract(dataset)
        self.metadata_repository.add(record)
        dataset.properties.update(record.properties)

    def _register_catalog(self, dataset: Dataset, placement) -> None:
        with get_recorder().span("maintenance.catalog.register", tier="maintenance",
                                 system="GOODS", function="dataset_organization"):
            self.catalog.register(dataset, backend=placement.backend)
            self.provenance.record_ingest(dataset.name, source=dataset.source)

    def _note_index_change(self, dataset: Dataset, replaced: bool) -> None:
        """Mark the dataset's table dirty; the maintainer's ``on_change``
        bumps the epoch.  A non-tabular dataset is not indexed, but when
        it *replaced* a dataset of the same name, that name leaves the
        indexes."""
        try:
            table = dataset.as_table()
        except SchemaError:
            get_registry().counter("lake.index.skipped_nontabular").inc()
            if replaced:
                self.maintainer.note_removed(dataset.name)
            return
        self.maintainer.note(table)

    def _quiesce(self) -> None:
        """In async mode, wait out enqueued maintenance before querying.

        Gated on ``outstanding()`` — jobs still queued or running — not on
        ``len()``, which counts every job ever submitted and therefore
        stays truthy forever after the first ingest, turning every query
        on an idle lake into a traced wait.  The wait copies no job
        result.  It is bounded by the active request's deadline, and raises
        :class:`~repro.core.errors.DeadlineExceeded` when that passes
        first; without a deadline it waits for every job.
        """
        if self.async_maintenance and self.runtime.outstanding():
            ctx = current_context()
            try:
                self.runtime.wait_idle(
                    ctx.remaining() if ctx is not None else None)
            except JobTimeout:
                check_deadline("maintenance.quiesce")  # the deadline has passed
                raise

    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Barrier: wait for every job submitted to :attr:`runtime`;
        returns the results it keeps, those of its last ``queue_size``
        finished jobs.

        Returns ``{}`` on a lake whose runtime ran no job: a sync lake
        unless :meth:`repair_degraded` (or a caller) submitted jobs.
        Always returns — jobs that failed permanently are in
        ``lake.runtime.dead_letter()``.
        """
        return self.runtime.drain(timeout)

    def close(self) -> None:
        """Drain and stop the maintenance runtime."""
        self.runtime.wait_idle()
        self.runtime.close()

    def ingest_table(
        self,
        name: str,
        data: Mapping[str, Sequence[Any]],
        source: str = "",
    ) -> Dataset:
        """Convenience: ingest ``{column: values}`` as a tabular dataset."""
        table = Table.from_columns(name, data)
        return self.ingest(Dataset(name=name, payload=table, format="table", source=source))

    @traced("ingestion.lake.ingest_bytes", tier="ingestion", function="ingestion")
    def ingest_bytes(self, name: str, data: bytes, filename: str = "", source: str = "") -> Dataset:
        """Ingest raw bytes: detect format, parse, then ingest the payload."""
        from repro.storage.formats import decode, detect_format

        format = detect_format(data, filename or name)
        payload = decode(data, format, name=name)
        if format in ("csv", "tsv", "columnar", "rowbin"):
            format = "table"
        return self.ingest(Dataset(name=name, payload=payload, format=format, source=source))

    # -- dataset access ---------------------------------------------------------

    def dataset(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise DatasetNotFound(f"dataset {name!r} is not in the lake") from None

    def datasets(self) -> List[str]:
        return sorted(self._datasets)

    def table(self, name: str) -> Table:
        """The tabular view of a dataset (raises for non-tabular payloads)."""
        return self.dataset(name).as_table()

    def tables(self) -> List[Table]:
        """All tabularizable datasets as tables.

        Datasets without a tabular interpretation (free text, raw bytes) are
        skipped and counted on the ``lake.tables.skipped_nontabular``
        metric; any other failure propagates instead of being swallowed.
        """
        out = []
        skipped = 0
        for name in self.datasets():
            dataset = self._datasets[name]
            try:
                out.append(dataset.as_table())
            except SchemaError:
                skipped += 1
        if skipped:
            get_registry().counter("lake.tables.skipped_nontabular").inc(skipped)
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)

    # -- maintenance tier -----------------------------------------------------------

    @property
    def discovery(self):
        """The Aurum discovery engine, current as of this access: the
        maintainer's persistent engine with Aurum's pending deltas applied."""
        self._quiesce()
        return self.maintainer.engine()

    # -- the cache funnel ------------------------------------------------------
    #
    # Every engine query in this facade flows through _cached(): the epoch is
    # read first, then the compute runs against indexes at least that fresh,
    # so a cached entry can only ever be *newer* than its key promises.
    # tests/exploration/test_query_cache.py checks that a repeated call of
    # each discovery entry point is answered by a cache hit.

    def _cached(self, query, key=None):
        """Single epoch-checked entry point for every discovery answer.

        *key* is ``query.key()``, for a caller that already has it.  Also
        the lake-side deadline checkpoint: a request whose
        :class:`~repro.obs.context.RequestContext` deadline has already
        passed is cut short here with
        :class:`~repro.core.errors.DeadlineExceeded` instead of paying
        for an engine answer nobody is waiting for.
        """
        check_deadline(f"exploration.{query.engine}")
        cache = self._query_cache
        if cache is None:
            return self._run_discovery_uncached(query)
        return cache.fetch(query.engine, query.key() if key is None else key,
                           self._epochs.epoch(),
                           lambda: self._run_discovery_uncached(query))

    def _run_discovery_uncached(self, query):
        """The engine's answer to *query*, computed on the caller's thread
        from the maintainer's index for its kind."""
        self._quiesce()
        if query.kind == "union":
            engine = self.maintainer.union_index()
        elif query.kind == "keyword":
            engine = self.maintainer.searcher()
        else:
            engine = self.maintainer.engine()
        with self.maintainer.reading():
            if query.kind == "union":
                return engine.top_k(self.table(query.table), k=query.k,
                                    min_score=query.min_score)
            if query.kind == "keyword":
                return engine.search(query.keywords, k=query.k)
            if query.kind == "joinable":
                return engine.joinable(query.table, query.column, k=query.k)
            return engine.related_tables(query.table, k=query.k)

    @traced("exploration.lake.discover_joinable", tier="exploration",
            function="query_driven_discovery")
    def discover_joinable(self, table_name: str, column: str, k: int = 5):
        """Top-k columns joinable with ``table.column`` (Sec. 7.1 mode 1)."""
        from repro.exploration.parallel import DiscoveryQuery

        query = DiscoveryQuery(kind="joinable", table=table_name,
                               column=column, k=k)
        return self._cached(query)

    @traced("exploration.lake.discover_related", tier="exploration",
            function="query_driven_discovery")
    def discover_related(self, table_name: str, k: int = 5):
        """Top-k related tables for a whole query table."""
        from repro.exploration.parallel import DiscoveryQuery

        query = DiscoveryQuery(kind="related", table=table_name, k=k)
        return self._cached(query)

    @traced("exploration.lake.discover_union", tier="exploration",
            function="query_driven_discovery")
    def discover_union(self, table_name: str, k: int = 5,
                       min_score: float = 0.3):
        """Top-k unionable tables for *table_name* (Nargesian et al.)."""
        from repro.exploration.parallel import DiscoveryQuery

        query = DiscoveryQuery(kind="union", table=table_name, k=k,
                               min_score=min_score)
        return self._cached(query)

    @traced("exploration.lake.discover_batch", tier="exploration",
            function="query_driven_discovery")
    def discover_batch(self, queries: Sequence[Any]) -> List[Any]:
        """Run many discovery queries; results align with *queries*.

        Each element is a :class:`~repro.exploration.parallel.DiscoveryQuery`,
        a mapping of its fields, or a tuple like ``("joinable", table,
        column)`` / ``("keyword", "text")``.  The queries run in order on
        the caller's thread, each through the same cache funnel as its
        single-query method.
        """
        from repro.exploration.parallel import as_query

        specs = [as_query(spec) for spec in queries]  # reject bad specs first
        return [self._cached(query) for query in specs]

    # -- exploration tier --------------------------------------------------------------

    @traced("exploration.lake.sql", tier="exploration", function="heterogeneous_query")
    def sql(self, query: str) -> Table:
        """Run a SQL-subset query against the lake's relational backend.

        The query runs inside the polystore's relational breaker guard,
        with its retry policy: an open circuit raises
        :class:`~repro.core.errors.CircuitOpen` without touching the
        backend, and a backend failure past the retry budget raises
        :class:`~repro.core.errors.BackendUnavailable`.  Query, schema
        and not-found errors pass through as data errors.  SQL has no
        replica failover.
        """
        from repro.exploration.sql import SqlEngine

        engine = SqlEngine(self.polystore.relational)
        return self.polystore.guarded("relational", "sql",
                                      lambda: engine.execute(query))

    @traced("exploration.lake.keyword_search", tier="exploration",
            function="keyword_search")
    def keyword_search(self, keywords: str, k: int = 10):
        """Keyword search over schemata and values (Sec. 7.2, Constance)."""
        from repro.exploration.parallel import DiscoveryQuery, keyword_key
        from repro.ml.text import tokenize

        terms = tokenize(keywords)
        if not terms:
            return []  # term-free queries match nothing and are never cached
        query = DiscoveryQuery(kind="keyword", keywords=keywords, k=k)
        return self._cached(query, keyword_key(terms, k))

    # -- reporting ---------------------------------------------------------------------

    def flight_recorder(self, last: int = 100,
                        request_id: Optional[str] = None) -> str:
        """The newest *last* structured events as JSONL — the dump-on-error
        hook.  Slice to one request's causal history with ``request_id=``::

            try:
                lake.discover_related("sales")
            except Exception:
                print(lake.flight_recorder(last=50))
                raise
        """
        log = get_event_log()
        return log.export_jsonl(log.events(request_id=request_id, limit=last))

    def health(self) -> Dict[str, Any]:
        """Degraded-mode facade: breakers, failovers, dead letters, fsck.

        ``healthy`` is True only when every backend circuit is closed, no
        placement is degraded, no maintenance job is dead-lettered, and —
        for a persisted lake — ``lakefsck`` finds the on-disk root clean;
        the single flag a load balancer or operator dashboard polls.
        """
        report = self.polystore.health_report()
        dead = self.runtime.dead_letter()
        report["runtime"] = {
            "dead_letter": len(dead),
            "dead_jobs": [result.name for result in dead],
            "outstanding": self.runtime.outstanding(),
        }
        report["healthy"] = report["healthy"] and not dead
        root = getattr(self.polystore.objects, "root", None)
        if root is not None:
            from repro.durability.fsck import fsck_lake

            fsck_report = fsck_lake(root)
            report["durability"] = {
                "ok": fsck_report.ok,
                "issues": fsck_report.counts(),
                "residue": len(fsck_report.residue()),
                "corruption": len(fsck_report.corruption()),
            }
            report["healthy"] = report["healthy"] and fsck_report.ok
        return report

    def repair_degraded(self, wait: bool = True) -> List[str]:
        """Enqueue a repair job per degraded placement; returns job ids.

        Repairs run on the maintenance runtime with a patient
        :class:`~repro.runtime.jobs.RetryPolicy` (the intended backend may
        still be recovering).  For a persisted lake whose root fails
        ``lakefsck``, a ``fsck:gc`` job is also enqueued to sweep the
        crash residue (orphans, tmp leftovers, torn log tails) —
        corruption-class findings are left in place as evidence.  With
        ``wait=True`` the call drains the runtime before returning;
        failed repairs land in the dead-letter list, visible through
        :meth:`health`.
        """
        from repro.runtime.jobs import RetryPolicy

        retry = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.5)
        job_ids = [
            self.runtime.submit(
                self.polystore.repair, args=(placement.dataset,),
                name=f"repair:{placement.dataset}", retry=retry,
                tags={"dataset": placement.dataset,
                      "intended_backend": placement.intended_backend},
            )
            for placement in self.polystore.degraded_placements()
        ]
        root = getattr(self.polystore.objects, "root", None)
        if root is not None:
            from repro.durability.fsck import fsck_lake, gc_lake

            fsck_report = fsck_lake(root)
            if fsck_report.residue():
                job_ids.append(self.runtime.submit(
                    gc_lake, args=(root, fsck_report),
                    name="fsck:gc", retry=retry,
                    tags={"root": str(root),
                          "residue": str(len(fsck_report.residue()))},
                ))
        if not job_ids:
            return []
        if wait:
            self.runtime.wait_idle()
        return job_ids

    def server(self, **kwargs) -> Any:
        """A :class:`~repro.serving.server.LakeServer` front-end over this lake.

        Keyword arguments pass through to the server constructor
        (``workers=``, ``default_quota=``, ``default_timeout=``, ...);
        see docs/SERVING.md for the multi-tenant model.
        """
        from repro.serving.server import LakeServer

        return LakeServer(self, **kwargs)

    def architecture_report(self) -> Dict[str, Any]:
        """Live snapshot of the Fig. 2 architecture for this lake instance."""
        return {
            "storage": self.polystore.backend_summary(),
            "datasets": len(self),
            "catalog_entries": len(self.catalog),
            "provenance_events": len(self.provenance),
            "metadata_records": len(self.metadata_repository),
            "maintenance_jobs": self.runtime.stats(),
            "exploration": {
                "cache": (self._query_cache.stats()
                          if self._query_cache is not None else None),
                "epoch": self._epochs.epoch(),
            },
        }
