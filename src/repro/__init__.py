"""repro — a working reproduction of *Data Lakes: A Survey of Functions and Systems*.

The survey (Hai, Koutras, Quix, Jarke; TKDE / ICDE 2024 extended abstract)
proposes a function-oriented, three-tier data lake architecture and classifies
existing systems by *tier* (when a function is needed), *function* (what it
does) and *method* (how it is achieved).  This package turns that architecture
into an executable framework:

- :mod:`repro.core` -- the dataset model, the tier/function/method registry
  that drives the survey's Table 1, and the :class:`~repro.core.lake.DataLake`
  facade.
- :mod:`repro.storage` -- the storage tier: object store, format codecs,
  relational / document / graph stores, a polystore router and a lakehouse
  transaction log.
- :mod:`repro.ingestion`, :mod:`repro.modeling` -- the ingestion tier
  (metadata extraction and metadata modeling).
- :mod:`repro.organization`, :mod:`repro.discovery`,
  :mod:`repro.integration`, :mod:`repro.enrichment`, :mod:`repro.cleaning`,
  :mod:`repro.evolution`, :mod:`repro.provenance` -- the maintenance tier.
- :mod:`repro.exploration` -- the exploration tier (query-driven discovery
  and heterogeneous data querying).
- :mod:`repro.datagen` -- synthetic data lake workloads with ground truth,
  used by the test suite and the benchmark harness.
- :mod:`repro.obs` -- the observability layer: tracing spans over every
  hot path, a process-wide metrics registry, and JSON/Prometheus/ASCII
  exporters (see ``lake.observability`` and docs/OBSERVABILITY.md).
- :mod:`repro.runtime` -- the maintenance runtime: a background job
  scheduler with retries, backpressure and dead-letter semantics, plus
  incremental (delta-based) discovery-index upkeep (see
  ``lake.runtime``, ``DataLake(async_maintenance=True)`` and
  docs/RUNTIME.md).

Quickstart::

    from repro import DataLake

    lake = DataLake.in_memory()
    lake.ingest_table("sales", {"region": ["EU", "US"], "amount": [10, 20]})
    lake.ingest_table("regions", {"region": ["EU", "US"], "name": ["Europe", "America"]})
    hits = lake.discover_joinable("sales", "region", k=5)
"""

from repro.core.dataset import Column, Dataset, Table
from repro.core.lake import DataLake
from repro.core.registry import (
    Function,
    Method,
    SystemInfo,
    Tier,
    default_registry,
    register_system,
)
from repro.obs import Observability, traced
from repro.runtime import JobScheduler, RetryPolicy

__version__ = "1.0.0"

__all__ = [
    "Column",
    "DataLake",
    "Dataset",
    "Function",
    "JobScheduler",
    "Method",
    "Observability",
    "RetryPolicy",
    "SystemInfo",
    "Table",
    "Tier",
    "default_registry",
    "register_system",
    "traced",
    "__version__",
]
