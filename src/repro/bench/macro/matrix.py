"""The named macro-benchmark scenario matrix.

Nine scenarios spanning the functions the survey says a lake must serve
*together*: the mixed baseline, structure-skewed variants covering the
ROADMAP's unsampled gaps (unstructured-text-heavy discovery,
document-store-heavy traffic), an async ingest flood, a discovery storm
over the query cache, an abusive-tenant serving mix, a fault-injected
chaos run, and a crash–restart durability scenario.  Every scenario
carries its own regression gates; :func:`run_matrix` evaluates them all
and wraps the reports in the shared ``BENCH_macro.json`` envelope.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from repro.bench.macro.driver import run_scenario
from repro.bench.macro.scenario import (DataMix, Gates, OpMix, Scenario,
                                        ServingMix)
from repro.bench.results import envelope

SCHEMA = "repro.bench/macro-v1"
SEED = 17

#: the canonical matrix — names are stable; BENCH_macro.json keys off them
MATRIX: Sequence[Scenario] = (
    Scenario(
        name="baseline_mixed",
        description="Every data shape, every op kind, moderate concurrency "
                    "— the trajectory every future speedup is measured on.",
        seed=SEED,
        gates=Gates(min_discovery_answers=1),
    ),
    Scenario(
        name="structured_heavy",
        description="Table-pool-dominated lake under SQL- and "
                    "discovery-heavy traffic.",
        seed=SEED + 1,
        data=DataMix(pools=4, tables_per_pool=4, rows_per_table=80,
                     json_collections=1, text_docs=2),
        ops=80,
        op_mix=OpMix(ingest=1, discover=3, sql=4, fetch=2, federation=2),
        gates=Gates(min_discovery_answers=2),
    ),
    Scenario(
        name="text_heavy",
        description="Unstructured-text-dominated lake: free-text topic "
                    "documents plus raw logs with DATAMARAN-extracted "
                    "record tables; discovery must answer from text-derived "
                    "structure and catalog metadata.",
        seed=SEED + 2,
        data=DataMix(pools=1, tables_per_pool=2, text_docs=12,
                     words_per_doc=80, log_files=2, log_lines=90,
                     json_collections=1),
        ops=70,
        op_mix=OpMix(ingest=1, discover=5, sql=1, fetch=3, federation=0),
        gates=Gates(min_discovery_answers=3),
    ),
    Scenario(
        name="document_heavy",
        description="Document-store-dominated lake: evolving JSON "
                    "collections are the main discovery and fetch targets.",
        seed=SEED + 3,
        data=DataMix(pools=1, tables_per_pool=2, json_collections=6,
                     docs_per_collection=10, text_docs=2),
        ops=70,
        op_mix=OpMix(ingest=1, discover=5, sql=1, fetch=4, federation=0),
        gates=Gates(min_discovery_answers=2),
    ),
    Scenario(
        name="ingest_flood_async",
        description="Ingest-dominated mix with async maintenance on — "
                    "drain-then-verify proves the deferred index work "
                    "converges to the serial answer.",
        seed=SEED + 4,
        ops=80,
        op_mix=OpMix(ingest=5, discover=2, sql=1, fetch=3, federation=1),
        async_maintenance=True,
        gates=Gates(min_discovery_answers=1),
    ),
    Scenario(
        name="discovery_storm",
        description="Discovery-dominated repeated queries from six "
                    "clients — the query-cache scenario.",
        seed=SEED + 5,
        ops=100,
        clients=6,
        op_mix=OpMix(ingest=0, discover=6, sql=1, fetch=2, federation=1),
        gates=Gates(min_discovery_answers=3),
    ),
    Scenario(
        name="serving_abuse",
        description="Multi-tenant serving phase with one abusive tenant "
                    "flooding past its quota; compliant tenants must keep "
                    "full availability and their p95 within 2x of an "
                    "abuse-free run, and the abuser must get shed.",
        seed=SEED + 6,
        serving=ServingMix(tenants=3, clients_per_tenant=2,
                           requests_per_client=12, abusive_tenant=True),
        gates=Gates(min_discovery_answers=1),
    ),
    Scenario(
        name="chaos_faults",
        description="Mixed traffic while the relational fetch path injects "
                    "faults: breakers, retries and replica failover must "
                    "hold availability at three nines.",
        seed=SEED + 7,
        ops=80,
        fault_rate=0.20,
        op_mix=OpMix(ingest=1, discover=3, sql=2, fetch=4, federation=2),
        gates=Gates(min_discovery_answers=1),
    ),
    Scenario(
        name="crash_restart",
        description="The mixed baseline plus a crash–restart durability "
                    "phase, the durability crash matrix: every reachable "
                    "crash point, mode and hit is fired and committed data "
                    "must stay visible after cold reload.",
        seed=SEED + 8,
        ops=40,
        crash_restart=True,
        gates=Gates(min_discovery_answers=1),
    ),
)


def scenario_names() -> Sequence[str]:
    return tuple(scenario.name for scenario in MATRIX)


def get_scenario(name: str) -> Scenario:
    for scenario in MATRIX:
        if scenario.name == name:
            return scenario
    raise KeyError(f"unknown macro scenario {name!r}; "
                   f"known: {', '.join(scenario_names())}")


def smoke_matrix(fraction: float = 0.3) -> Sequence[Scenario]:
    """The full matrix scaled to tier-1 smoke size (same shapes, same gates)."""
    return tuple(scenario.scaled(fraction) for scenario in MATRIX)


def run_matrix(scenarios: Optional[Iterable[Scenario]] = None) -> Dict[str, Any]:
    """Run every scenario and wrap the reports in the shared envelope."""
    reports = {scenario.name: run_scenario(scenario)
               for scenario in (MATRIX if scenarios is None else scenarios)}
    gates = {name: {"pass": report["passed"]}
             for name, report in sorted(reports.items())}
    return envelope(SCHEMA, {"scenarios": reports}, seed=SEED, gates=gates)
