"""The tier → function → method classification registry (survey Sec. 3.2).

The survey's central organizational contribution is a *three-level
classification* of data lake systems: by **tier** (when a function is
needed), **function** (what it is), and **method** (how it is achieved).
This module makes that classification executable: every implemented system
in this package registers a :class:`SystemInfo` describing its coordinates,
and the benchmark harness regenerates the survey's Table 1 directly from the
registry — the table is *live documentation* of what the framework provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple


class Tier(Enum):
    """When a function is needed in the data lake workflow (Fig. 2)."""

    STORAGE = "Storage"
    INGESTION = "Ingestion"
    MAINTENANCE = "Maintenance"
    EXPLORATION = "Exploration"


class Function(Enum):
    """What the function is — the 11 functions of the survey's Table 1.

    Storage is included as a pseudo-function so storage backends can also be
    registered and reported.
    """

    METADATA_EXTRACTION = "Metadata extraction"
    METADATA_MODELING = "Metadata modeling"
    DATASET_ORGANIZATION = "Dataset organization"
    RELATED_DATASET_DISCOVERY = "Related dataset discovery"
    DATA_INTEGRATION = "Data integration"
    METADATA_ENRICHMENT = "Metadata enrichment"
    DATA_CLEANING = "Data cleaning"
    SCHEMA_EVOLUTION = "Schema evolution"
    DATA_PROVENANCE = "Data provenance"
    QUERY_DRIVEN_DISCOVERY = "Query-driven data discovery"
    HETEROGENEOUS_QUERYING = "Heterogeneous data querying"
    STORAGE_BACKEND = "Storage backend"


#: The survey's Table 1 tier for each function.
FUNCTION_TIER: Dict[Function, Tier] = {
    Function.METADATA_EXTRACTION: Tier.INGESTION,
    Function.METADATA_MODELING: Tier.INGESTION,
    Function.DATASET_ORGANIZATION: Tier.MAINTENANCE,
    Function.RELATED_DATASET_DISCOVERY: Tier.MAINTENANCE,
    Function.DATA_INTEGRATION: Tier.MAINTENANCE,
    Function.METADATA_ENRICHMENT: Tier.MAINTENANCE,
    Function.DATA_CLEANING: Tier.MAINTENANCE,
    Function.SCHEMA_EVOLUTION: Tier.MAINTENANCE,
    Function.DATA_PROVENANCE: Tier.MAINTENANCE,
    Function.QUERY_DRIVEN_DISCOVERY: Tier.EXPLORATION,
    Function.HETEROGENEOUS_QUERYING: Tier.EXPLORATION,
    Function.STORAGE_BACKEND: Tier.STORAGE,
}


class Method(Enum):
    """How a function is achieved — the method level of the classification.

    These correspond to the sub-section groupings of Secs. 4-7 (e.g. the
    survey splits metadata modeling into generic models, data vault, and
    graph-based models; dataset organization into catalog, classification
    model and DAG based approaches).
    """

    # storage (Sec. 4)
    FILE_BASED = "File-based storage"
    SINGLE_STORE = "Single data store"
    POLYSTORE = "Polystore"
    LAKEHOUSE = "Lakehouse table format"
    # metadata modeling (Sec. 5.2)
    GENERIC_MODEL = "Generic metadata model"
    DATA_VAULT = "Data vault"
    GRAPH_MODEL = "Graph-based metadata model"
    # dataset organization (Sec. 6.1)
    CATALOG = "Catalog-based organization"
    CLASSIFICATION_MODEL = "Classification model based organization"
    DAG = "DAG-based organization"
    # related dataset discovery (Sec. 6.2)
    JOINABLE = "Discovery of joinable datasets"
    TASK_SPECIFIC = "Task-specific discovery for data science"
    SEMANTIC = "Discovery of semantically related datasets"
    SCALABLE = "Scalable related dataset discovery"
    # data cleaning (Sec. 6.5)
    CONSTRAINT_INFERENCE = "Constraint inference"
    VALIDATION_RULES = "Validation rule inference"
    # enrichment (Sec. 6.4)
    SEMANTIC_ENRICHMENT = "Semantic metadata enrichment"
    STRUCTURAL_ENRICHMENT = "Structural metadata enrichment"
    DESCRIPTIVE_ENRICHMENT = "Descriptive metadata enrichment"
    # generic / other
    PIPELINE = "End-to-end pipeline"
    FEDERATED = "Federated query processing"
    ALGORITHMIC = "Algorithmic"


@dataclass(frozen=True)
class SystemInfo:
    """Self-description of one implemented system.

    The fields mirror the columns of the survey's comparison tables:
    ``relatedness_criteria`` / ``similarity_metrics`` / ``technique`` feed
    Table 3, while ``dag_*`` fields feed Table 2.
    """

    name: str
    functions: Tuple[Function, ...]
    methods: Tuple[Method, ...] = ()
    paper_refs: Tuple[str, ...] = ()
    summary: str = ""
    relatedness_criteria: Tuple[str, ...] = ()
    similarity_metrics: Tuple[str, ...] = ()
    technique: str = ""
    dag_function: str = ""
    dag_node: str = ""
    dag_edge: str = ""
    dag_edge_direction: str = ""

    @property
    def tiers(self) -> Tuple[Tier, ...]:
        seen: List[Tier] = []
        for function in self.functions:
            tier = FUNCTION_TIER[function]
            if tier not in seen:
                seen.append(tier)
        return tuple(seen)


class SystemRegistry:
    """Registry of all implemented systems, queryable by tier and function."""

    def __init__(self) -> None:
        self._systems: Dict[str, SystemInfo] = {}
        self._classes: Dict[str, type] = {}

    def register(self, info: SystemInfo, cls: Optional[type] = None) -> None:
        """Register *info* (idempotent for identical re-registration)."""
        existing = self._systems.get(info.name)
        if existing is not None and existing != info:
            raise ValueError(f"conflicting registration for system {info.name!r}")
        self._systems[info.name] = info
        if cls is not None:
            self._classes[info.name] = cls

    def get(self, name: str) -> SystemInfo:
        return self._systems[name]

    def system_class(self, name: str) -> Optional[type]:
        return self._classes.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._systems

    def __len__(self) -> int:
        return len(self._systems)

    def all(self) -> List[SystemInfo]:
        return sorted(self._systems.values(), key=lambda s: s.name.lower())

    def by_function(self, function: Function) -> List[SystemInfo]:
        return [s for s in self.all() if function in s.functions]

    def by_tier(self, tier: Tier) -> List[SystemInfo]:
        return [s for s in self.all() if tier in s.tiers]

    def by_method(self, method: Method) -> List[SystemInfo]:
        return [s for s in self.all() if method in s.methods]

    def classification_table(self) -> List[Tuple[str, str, str]]:
        """Regenerate the survey's Table 1 as (tier, function, system) rows.

        Rows follow the survey's tier order (Ingestion, Maintenance,
        Exploration) and Table 1's function order.
        """
        rows: List[Tuple[str, str, str]] = []
        function_order = [
            Function.METADATA_EXTRACTION,
            Function.METADATA_MODELING,
            Function.DATASET_ORGANIZATION,
            Function.RELATED_DATASET_DISCOVERY,
            Function.DATA_INTEGRATION,
            Function.METADATA_ENRICHMENT,
            Function.DATA_CLEANING,
            Function.SCHEMA_EVOLUTION,
            Function.DATA_PROVENANCE,
            Function.QUERY_DRIVEN_DISCOVERY,
            Function.HETEROGENEOUS_QUERYING,
        ]
        for function in function_order:
            tier = FUNCTION_TIER[function]
            for info in self.by_function(function):
                rows.append((tier.value, function.value, info.name))
        return rows


#: Process-wide registry used by the ``@register_system`` decorator.
_DEFAULT_REGISTRY = SystemRegistry()


def default_registry() -> SystemRegistry:
    """Return the process-wide system registry.

    Each system module registers itself when imported, so the registry
    holds the systems imported so far.  Importing :mod:`repro.systems`
    populates it with every implemented system; the ``python -m repro``
    CLI and the Table 1-3 and architecture benchmarks do that.
    """
    return _DEFAULT_REGISTRY


def register_system(info: SystemInfo) -> Callable[[type], type]:
    """Class decorator registering the decorated system class under *info*."""

    def decorate(cls: type) -> type:
        _DEFAULT_REGISTRY.register(info, cls)
        cls.system_info = info  # type: ignore[attr-defined]
        return cls

    return decorate
