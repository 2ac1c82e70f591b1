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

Tier subsystems are imported lazily so the core package stays import-light
and free of cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.dataset import Dataset, Table
from repro.core.errors import DatasetNotFound, JobTimeout, SchemaError
from repro.obs import (Observability, check_deadline, current_context, emit,
                       get_event_log, get_recorder, get_registry, traced)


class DataLake:
    """A complete data lake: storage + ingestion + maintenance + exploration.

    The Aurum and keyword indexes are persistent structures kept current
    with per-table deltas by :attr:`maintainer`.  Maintenance runs in one
    of two modes (see docs/RUNTIME.md):

    - **sync** (the default): metadata extraction and catalog
      registration run inline during ``ingest``, which only marks the
      table dirty in the index maintainer; the next discovery or keyword
      query applies the pending deltas before it answers;
    - **async** (``async_maintenance=True``): ingest enqueues metadata
      extraction, catalog registration and index-delta jobs on a
      :class:`~repro.runtime.scheduler.JobScheduler` and returns
      immediately — built for bulk loads; call :meth:`drain` (or any
      exploration query, which quiesces first) to reach a consistent view.

    Discovery runs on the caller's thread (see docs/EXPLORATION.md).
    ``cache=`` sets the lake-wide
    :class:`~repro.exploration.parallel.QueryCache`: ``True`` (the
    default) memoizes discovery/keyword answers keyed by (engine,
    normalized query, index epoch); ``False`` disables it; a
    ``QueryCache`` instance is used as given (``QueryCache(max_entries=n)``
    bounds it, and one instance may be shared by several lakes).  Any
    other value raises :class:`TypeError`.

    ``polystore=`` supplies the storage tier (a default in-memory
    :class:`~repro.storage.polystore.Polystore` otherwise).

    Every entry point is traced: a call that starts a request mints a
    :class:`~repro.obs.context.RequestContext`, and the process-wide
    :mod:`repro.obs` recorder records one such request in 64 (install
    ``SpanRecorder(registry=get_registry())`` to keep them all).
    Nothing else in observability is on by default: start a
    :class:`~repro.obs.profiler.SamplingProfiler` or attach an
    :class:`~repro.obs.slo.SLOEngine` explicitly (see
    docs/OBSERVABILITY.md).
    """

    def __init__(
        self,
        *,
        async_maintenance: bool = False,
        polystore: Optional["Polystore"] = None,
        cache: Any = True,
    ):
        from repro.exploration.parallel import EpochClock, QueryCache
        from repro.storage.polystore import Polystore

        self.polystore = polystore if polystore is not None else Polystore()
        self.async_maintenance = async_maintenance
        self._datasets: Dict[str, Dataset] = {}
        self._catalog = None
        self._provenance = None
        self._metadata_repository = None
        self._runtime = None
        self._maintainer = None
        self._index_refresh_pending = False  # coalesces async refresh jobs
        self._index_flag_lock = threading.Lock()
        self._epochs = EpochClock()
        if isinstance(cache, QueryCache):
            self._query_cache: Optional[QueryCache] = cache
        elif isinstance(cache, bool):
            self._query_cache = QueryCache() if cache else None
        else:
            raise TypeError(
                f"cache= takes True, False or a QueryCache, not {cache!r}")
        # (epoch, index): published as one value so no reader pairs an
        # index with another build's epoch
        self._union: Tuple[int, Any] = (-1, None)
        self._union_lock = threading.Lock()

    @classmethod
    def in_memory(cls) -> "DataLake":
        """Create a fully in-memory lake (the default configuration)."""
        return cls()

    # -- lazy tier components -------------------------------------------------

    @property
    def catalog(self):
        """The GOODS-style dataset catalog (created on first access)."""
        if self._catalog is None:
            from repro.organization.goods_catalog import GoodsCatalog

            self._catalog = GoodsCatalog()
        return self._catalog

    @property
    def provenance(self):
        """The provenance recorder (created on first access)."""
        if self._provenance is None:
            from repro.provenance.events import ProvenanceRecorder

            self._provenance = ProvenanceRecorder()
        return self._provenance

    @property
    def metadata_repository(self):
        """The GEMMS metadata repository (created on first access)."""
        if self._metadata_repository is None:
            from repro.modeling.gemms_model import MetadataRepository

            self._metadata_repository = MetadataRepository()
        return self._metadata_repository

    @property
    def zones(self):
        """A zone life-cycle manager sharing this lake's provenance."""
        if getattr(self, "_zones", None) is None:
            from repro.core.zones import ZoneManager

            self._zones = ZoneManager(recorder=self.provenance)
        return self._zones

    @property
    def governance(self):
        """The request/approval governance tool, provenance-integrated."""
        if getattr(self, "_governance", None) is None:
            from repro.provenance.governance import GovernanceTool

            self._governance = GovernanceTool(recorder=self.provenance)
        return self._governance

    @property
    def runtime(self):
        """The maintenance job scheduler (created on first access)."""
        if self._runtime is None:
            from repro.runtime.scheduler import JobScheduler

            self._runtime = JobScheduler()
        return self._runtime

    @property
    def maintainer(self):
        """The incremental index maintainer (created on first access).

        Wired to the lake's epoch clock: every noted table change bumps
        the discovery-engine epochs, which is what invalidates the query
        cache (stale entries stop matching rather than being scanned for).
        """
        if self._maintainer is None:
            from repro.runtime.incremental import IncrementalIndexMaintainer

            self._maintainer = IncrementalIndexMaintainer(
                on_change=self._bump_engine_epochs)
        return self._maintainer

    # -- query-cache epochs ---------------------------------------------------

    @property
    def epochs(self):
        """The per-engine index :class:`~repro.exploration.parallel.EpochClock`."""
        return self._epochs

    @property
    def query_cache(self):
        """The lake-wide query cache, or ``None`` when disabled."""
        return self._query_cache

    def _bump_engine_epochs(self, table_name: str) -> None:
        """A tabular change invalidates all three discovery engines."""
        self._epochs.bump("aurum", "keyword", "union")

    # -- ingestion tier -----------------------------------------------------------

    @traced("ingestion.lake.ingest", tier="ingestion", function="ingestion")
    def ingest(self, dataset: Dataset, extract_metadata: bool = True) -> Dataset:
        """Ingest a :class:`Dataset`: place it, extract metadata, catalog it.

        In async mode the metadata/catalog/index work is enqueued on
        :attr:`runtime` instead of running inline; :meth:`drain` is the
        barrier that waits for it.
        """
        placement = self.polystore.store(dataset)
        replaced = dataset.name in self._datasets
        self._datasets[dataset.name] = dataset
        if self.async_maintenance:
            self._enqueue_maintenance(dataset, placement, extract_metadata, replaced)
        else:
            if extract_metadata:
                self._extract_metadata(dataset)
            self._register_catalog(dataset, placement)
            self._note_index_change(dataset, replaced)
        emit("ingest.committed", dataset=dataset.name, format=dataset.format,
             backend=placement.backend, mode="async" if self.async_maintenance
             else "sync")
        return dataset

    # -- maintenance work units (run inline in sync mode, as jobs in async) --------

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
        bumps the epochs.  A non-tabular dataset is not indexed, but when
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

    def _enqueue_maintenance(self, dataset: Dataset, placement,
                             extract_metadata: bool, replaced: bool) -> None:
        # materialize the shared tier components on the caller thread: the
        # lazy properties are not locked, and two worker-thread jobs racing
        # through first access would each build (and one would drop) a store
        self.catalog, self.provenance, self.metadata_repository
        runtime = self.runtime
        depends_on = []
        if extract_metadata:
            depends_on.append(runtime.submit(
                self._extract_metadata, args=(dataset,),
                name=f"metadata:{dataset.name}", tags={"dataset": dataset.name},
            ))
        # catalog entries describe the *enriched* dataset, so register after
        # metadata extraction — same ordering the sync path guarantees
        runtime.submit(
            self._register_catalog, args=(dataset, placement),
            name=f"catalog:{dataset.name}", depends_on=depends_on,
            tags={"dataset": dataset.name},
        )
        self._note_index_change(dataset, replaced)  # the dirty mark itself is cheap
        self._submit_index_refresh()

    def _submit_index_refresh(self) -> None:
        """Enqueue one index-delta job; pending refreshes coalesce."""
        with self._index_flag_lock:
            if self._index_refresh_pending:
                return
            self._index_refresh_pending = True
        self.runtime.submit(self._run_index_refresh, name="index:refresh")

    def _run_index_refresh(self) -> int:
        with self._index_flag_lock:
            self._index_refresh_pending = False
        return self.maintainer.refresh()

    def _quiesce(self) -> None:
        """In async mode, wait out enqueued maintenance before querying.

        Gated on ``outstanding()`` — jobs still queued or running — not on
        ``len()``, which counts every job ever submitted and therefore
        stays truthy forever after the first ingest, turning every query
        on an idle lake into a full drain (results-dict copy included).
        The wait is bounded by the active request's deadline, and raises
        :class:`~repro.core.errors.DeadlineExceeded` when that passes
        first; without a deadline it waits for every job.
        """
        if (self.async_maintenance and self._runtime is not None
                and self._runtime.outstanding()):
            ctx = current_context()
            try:
                self._runtime.drain(ctx.remaining() if ctx is not None else None)
            except JobTimeout:
                check_deadline("maintenance.quiesce")  # the deadline has passed
                raise

    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Barrier: wait for all enqueued maintenance jobs; returns results.

        A no-op returning ``{}`` in sync mode.  Always returns — jobs that
        failed permanently are in ``lake.runtime.dead_letter()``.
        """
        if self._runtime is None:
            return {}
        return self._runtime.drain(timeout)

    def close(self) -> None:
        """Drain and stop the maintenance runtime."""
        if self._runtime is not None:
            self._runtime.drain()
            self._runtime.close()

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
        maintainer's persistent engine with pending deltas applied."""
        self._quiesce()
        return self.maintainer.engine()

    def _union_search(self):
        """The lake's union-search index, rebuilt only when its epoch moves.

        A rebuild profiles every column of every table again, embedding
        each one's values, so it runs only after a tabular change.  The
        index is immutable once built, so maintenance is build-and-swap:
        readers of the previous index are unaffected.  The build runs
        outside any lock; publishing takes ``_union_lock`` and never
        replaces the index of a newer epoch with an older build.
        """
        self._quiesce()
        epoch = self._epochs.epoch("union")
        published_epoch, index = self._union
        if published_epoch >= epoch:
            return index
        from repro.discovery.table_union import TableUnionSearch

        with get_recorder().span("maintenance.union.index_build",
                                 tier="maintenance", system="TableUnionSearch",
                                 function="related_dataset_discovery"):
            index = TableUnionSearch()
            for table in self.tables():
                index.add_table(table)
        with self._union_lock:
            if self._union[0] < epoch:
                self._union = (epoch, index)
            return self._union[1]

    # -- the cache funnel ------------------------------------------------------
    #
    # Every engine query in this facade flows through _cached(): the epoch is
    # read first, then the compute runs against indexes at least that fresh,
    # so a cached entry can only ever be *newer* than its key promises.
    # tests/exploration/test_query_cache.py checks that a repeated call of
    # each discovery entry point is answered by a cache hit.

    def _cached(self, query):
        """Single epoch-checked entry point for every discovery answer.

        Also the lake-side deadline checkpoint: a request whose
        :class:`~repro.obs.context.RequestContext` deadline has already
        passed is cut short here with
        :class:`~repro.core.errors.DeadlineExceeded` instead of paying
        for an engine answer nobody is waiting for.
        """
        check_deadline(f"exploration.{query.engine}")
        cache = self._query_cache
        if cache is None:
            return self._run_discovery_uncached(query)
        return cache.fetch(query.engine, query.key(),
                           self._epochs.epoch(query.engine),
                           lambda: self._run_discovery_uncached(query))

    def _run_discovery_uncached(self, query):
        """The engine's answer to *query*, computed on the caller's thread."""
        if query.kind == "union":
            return self._union_search().top_k(
                self.table(query.table), k=query.k, min_score=query.min_score)
        if query.kind == "keyword":
            engine = self._keyword_searcher()
        else:
            engine = self.discovery
        with self.maintainer.reading():
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
        from repro.exploration.parallel import DiscoveryQuery
        from repro.ml.text import tokenize

        if not tokenize(keywords):
            return []  # term-free queries match nothing and are never cached
        query = DiscoveryQuery(kind="keyword", keywords=keywords, k=k)
        return self._cached(query)

    def _keyword_searcher(self):
        """The lake's keyword index: the maintainer's persistent,
        delta-maintained searcher, never rebuilt per query."""
        self._quiesce()
        return self.maintainer.searcher()

    # -- reporting ---------------------------------------------------------------------

    @property
    def observability(self) -> Observability:
        """Spans + metrics over this process's lake operations (repro.obs)."""
        if getattr(self, "_observability", None) is None:
            self._observability = Observability()
        return self._observability

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
        runtime_report: Dict[str, Any] = {"dead_letter": 0, "outstanding": 0}
        if self._runtime is not None:
            dead = self._runtime.dead_letter()
            runtime_report = {
                "dead_letter": len(dead),
                "dead_jobs": [result.name for result in dead],
                "outstanding": self._runtime.outstanding(),
            }
        report["runtime"] = runtime_report
        report["healthy"] = report["healthy"] and not runtime_report["dead_letter"]
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
            self.runtime.drain()
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
        report = {
            "storage": self.polystore.backend_summary(),
            "datasets": len(self),
            "catalog_entries": len(self.catalog),
            "provenance_events": len(self.provenance),
            "metadata_records": len(self.metadata_repository),
        }
        if self._runtime is not None:
            report["maintenance_jobs"] = self._runtime.stats()
        report["exploration"] = {
            "cache": (self._query_cache.stats()
                      if self._query_cache is not None else None),
            "epochs": self._epochs.snapshot(),
        }
        return report
