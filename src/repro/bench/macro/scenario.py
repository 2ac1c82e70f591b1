"""The macro-benchmark scenario DSL.

A :class:`Scenario` is a declarative workload spec in the DLBench mold:
*what data* goes into the lake (:class:`DataMix` — structured table
pools, evolving JSON collections, log files, free-text documents, all
from ``repro.datagen``), *what traffic* hits it (:class:`OpMix` weights
over ingest/discover/sql/fetch/federation, client count), *under what
conditions* (async maintenance, injected fault rate, a crash–restart
phase, an optional multi-tenant serving phase), and *what must hold*
(:class:`Gates` — the per-scenario bound on discovery answers; the
driver derives every other gate).

Scenarios are frozen, fully seeded, and round-trip through plain dicts
(:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict`), so the matrix
in :mod:`repro.bench.macro.matrix` is data, the CLI can load ad-hoc
specs, and the property-based equivalence suite can synthesize them.
:meth:`Scenario.scaled` shrinks a scenario for the tier-1 smoke tier
without changing its shape.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: the op kinds a schedule draws from, in weight order
OP_KINDS: Tuple[str, ...] = ("ingest", "discover", "sql", "fetch", "federation")


def _scale(value: int, fraction: float) -> int:
    """Scale a size knob, keeping zero at zero and nonzero at >= 1."""
    if value <= 0:
        return 0
    return max(1, int(value * fraction))


@dataclass(frozen=True)
class DataMix:
    """How much of each data shape the base corpus contains."""

    pools: int = 2                 # lakegen join pools (1 dim + facts each)
    tables_per_pool: int = 3
    rows_per_table: int = 40
    noise_tables: int = 1
    json_collections: int = 2      # evolving-document collections
    docs_per_collection: int = 6
    log_files: int = 1             # raw log text + DATAMARAN record tables
    log_lines: int = 60
    text_docs: int = 4             # free-text topic documents
    words_per_doc: int = 60

    def scaled(self, fraction: float) -> "DataMix":
        return DataMix(**{f.name: _scale(getattr(self, f.name), fraction)
                          for f in dataclasses.fields(self)})


@dataclass(frozen=True)
class OpMix:
    """Relative weights of the five op kinds in the client schedule."""

    ingest: int = 1
    discover: int = 3
    sql: int = 2
    fetch: int = 3
    federation: int = 1

    def weights(self) -> Tuple[int, ...]:
        return tuple(getattr(self, kind) for kind in OP_KINDS)


@dataclass(frozen=True)
class ServingMix:
    """The optional multi-tenant serving phase of a scenario.

    Its gates are derived from the mix, not set in :class:`Gates`:
    compliant availability always, and with an abusive tenant also the
    abuser's shedding and the compliant p95 ratio (see
    :func:`repro.bench.macro.driver.run_serving`).
    """

    tenants: int = 3
    clients_per_tenant: int = 2
    requests_per_client: int = 12
    abusive_tenant: bool = False   # tenant 0 floods far beyond its quota


@dataclass(frozen=True)
class Gates:
    """The one gate bound that differs between scenarios.

    Every scenario also gets the driver's fixed gates (availability,
    unhandled exceptions, discovery answers equal to the uncached serial
    reference, SQL row counts equal to their oracles) and the gates
    derived from its conditions (faults, crash–restart, serving).
    """

    min_discovery_answers: int = 0         # non-empty discovery results


@dataclass(frozen=True)
class Scenario:
    """One named macro-benchmark workload, fully declarative."""

    name: str
    description: str = ""
    seed: int = 17
    data: DataMix = DataMix()
    ops: int = 60                  # scheduled client ops (pre-split)
    clients: int = 4               # concurrent client threads
    op_mix: OpMix = OpMix()
    cache: bool = True
    async_maintenance: bool = False
    fault_rate: float = 0.0        # injected relational-fetch error rate
    crash_restart: bool = False    # run the crash–restart durability phase
    serving: Optional[ServingMix] = None
    gates: Gates = Gates()

    def scaled(self, fraction: float,
               max_ops: int = 24, max_clients: int = 2) -> "Scenario":
        """A smoke-sized copy: smaller corpus, fewer ops, fewer clients."""
        serving = self.serving
        if serving is not None:
            serving = dataclasses.replace(
                serving,
                tenants=min(serving.tenants, 2),
                clients_per_tenant=min(serving.clients_per_tenant, 2),
                requests_per_client=_scale(serving.requests_per_client,
                                           fraction * 2),
            )
        return dataclasses.replace(
            self,
            data=self.data.scaled(fraction),
            ops=min(self.ops, max_ops),
            clients=min(self.clients, max_clients),
            serving=serving,
        )

    # -- dict round-trip (the declarative surface) ------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        return out

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "Scenario":
        spec = dict(spec)
        if isinstance(spec.get("data"), dict):
            spec["data"] = DataMix(**spec["data"])
        if isinstance(spec.get("op_mix"), dict):
            spec["op_mix"] = OpMix(**spec["op_mix"])
        if isinstance(spec.get("serving"), dict):
            spec["serving"] = ServingMix(**spec["serving"])
        if isinstance(spec.get("gates"), dict):
            spec["gates"] = Gates(**spec["gates"])
        return cls(**spec)
