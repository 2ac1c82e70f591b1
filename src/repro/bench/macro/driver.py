"""The macro-benchmark driver: run one scenario against a fresh lake.

The driver is the DLBench-style harness: it materializes a scenario's
mixed corpus (tables + JSON collections + logs + free text) from
``repro.datagen``, precomputes a fully seeded op schedule *with its
correctness oracles* (SQL row counts are computed from the payload
before the run), drives it from N concurrent clients against a fresh
:class:`~repro.core.lake.DataLake`, and then verifies the lake against
an independently built serial reference — discovery answers, catalog
search, SQL oracles, crash–restart visibility — before evaluating the
scenario's regression gates.

Everything the workload *does* is seeded (``random.Random``) and
hit-counted (crash points); only the measured latencies vary run to
run.  No wall-clock reads besides ``time.perf_counter`` — the
``bench-determinism`` lint rule enforces this.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.macro.scenario import OP_KINDS, Scenario, ServingMix
from repro.core.dataset import Dataset, Table
from repro.core.errors import DataLakeError
from repro.core.lake import DataLake
from repro.datagen import (EvolvingDocumentGenerator, LakeGenerator,
                           LogGenerator, TextCorpusGenerator)
from repro.durability.matrix import run_crash_matrix
from repro.exploration.federation import FederatedQueryEngine
from repro.faults import (FaultInjector, FaultSchedule, FaultSpec,
                          ResilienceConfig)
from repro.ingestion.datamaran import Datamaran
from repro.obs import get_registry
from repro.runtime.jobs import RetryPolicy
from repro.storage.polystore import Polystore
from repro.storage.relational import RelationalStore

#: client-side retry budget for ops on unguarded paths under injected faults
SQL_RETRIES = 3


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


# -- corpus ----------------------------------------------------------------


class Corpus:
    """The materialized base datasets of a scenario plus derived targets."""

    def __init__(self) -> None:
        self.datasets: List[Dataset] = []
        self.sql_tables: List[Table] = []        # relational-backed payloads
        self.discovery_names: List[str] = []     # tabular dataset names
        self.join_targets: List[Tuple[str, str]] = []  # (table, column)
        self.keyword_terms: List[str] = []
        self.text_topic_terms: Dict[str, Tuple[str, ...]] = {}
        self.text_topic_docs: Dict[str, List[str]] = {}

    def names(self) -> List[str]:
        return [dataset.name for dataset in self.datasets]


def build_corpus(scenario: Scenario) -> Corpus:
    """Materialize a scenario's :class:`DataMix` — deterministic per seed."""
    spec = scenario.data
    seed = scenario.seed
    corpus = Corpus()

    if spec.pools > 0:
        workload = LakeGenerator(seed).generate(
            num_pools=spec.pools,
            tables_per_pool=spec.tables_per_pool,
            rows_per_table=spec.rows_per_table,
            pool_size=max(20, spec.rows_per_table),
            noise_tables=spec.noise_tables,
        )
        for table in workload.tables:
            corpus.datasets.append(Dataset(table.name, table, format="table"))
            corpus.sql_tables.append(table)
            corpus.discovery_names.append(table.name)
            if table.columns:
                corpus.join_targets.append((table.name, table.columns[0].name))
                corpus.keyword_terms.append(table.columns[0].name)

    for index in range(spec.json_collections):
        generated = EvolvingDocumentGenerator(seed + 100 + index).generate(
            docs_per_epoch=spec.docs_per_collection)
        documents = [document for _, document in generated.documents]
        name = f"jsoncol_{index:02d}"
        corpus.datasets.append(Dataset(name, documents, format="json"))
        corpus.discovery_names.append(name)

    extractor = Datamaran()
    for index in range(spec.log_files):
        log = LogGenerator(seed + 200 + index).generate(num_lines=spec.log_lines)
        corpus.datasets.append(
            Dataset(f"logfile_{index:02d}", log.text, format="text"))
        for table in extractor.to_tables(log.text, f"logrec_{index:02d}"):
            corpus.datasets.append(Dataset(table.name, table, format="table"))
            corpus.discovery_names.append(table.name)

    if spec.text_docs > 0:
        text = TextCorpusGenerator(seed + 300).generate(
            num_docs=spec.text_docs, words_per_doc=spec.words_per_doc)
        for name in sorted(text.documents):
            corpus.datasets.append(
                Dataset(name, text.documents[name], format="text"))
            topic = text.topic_of[name]
            corpus.text_topic_terms[topic] = text.signature_terms(topic)
            corpus.text_topic_docs.setdefault(topic, []).append(name)

    return corpus


# -- op schedule with in-line oracles --------------------------------------


def _extra_dataset(index: int, seed: int) -> Dataset:
    """The *index*-th mid-run ingest payload — rebuildable anywhere."""
    rng = random.Random(seed * 7919 + index)
    name = f"extra_{index:03d}"
    table = Table.from_columns(name, {
        f"extra{index}_id": list(range(8)),
        "value": [rng.randrange(100) for _ in range(8)],
    })
    return Dataset(name, table, format="table")


def _sql_op(rng: random.Random, table: Table) -> Dict[str, Any]:
    """A SQL query over *table* plus its row-count oracle."""
    int_columns = [column for column in table.columns
                   if column.values
                   and all(isinstance(v, int) for v in column.values)]
    if int_columns:
        column = rng.choice(int_columns)
        threshold = sorted(column.values)[len(column.values) // 2]
        oracle = sum(1 for v in column.values if v >= threshold)
        query = (f"SELECT * FROM {table.name} "
                 f"WHERE {column.name} >= {threshold}")
    else:
        oracle = len(table)
        query = f"SELECT * FROM {table.name}"
    return {"query": query, "oracle": oracle}


def build_schedule(scenario: Scenario, corpus: Corpus) -> List[Tuple[str, Dict[str, Any]]]:
    """The seeded op list every run (and re-run) of a scenario executes."""
    rng = random.Random(scenario.seed * 104729 + 7)
    weights = scenario.op_mix.weights()
    population = [kind for kind, weight in zip(OP_KINDS, weights)
                  for _ in range(weight)]
    if not population:
        population = ["fetch"]
    keyword_pool = (corpus.keyword_terms
                    + [term for terms in corpus.text_topic_terms.values()
                       for term in terms])
    schedule: List[Tuple[str, Dict[str, Any]]] = []
    ingest_index = 0
    for _ in range(scenario.ops):
        kind = rng.choice(population)
        if kind == "ingest":
            schedule.append(("ingest", {"index": ingest_index}))
            ingest_index += 1
        elif kind == "discover" and corpus.discovery_names:
            roll = rng.randrange(3)
            if roll == 0 and corpus.join_targets:
                table, column = rng.choice(corpus.join_targets)
                schedule.append(("discover", {"query": ("joinable", table,
                                                        column, 5)}))
            elif roll == 1 and keyword_pool:
                schedule.append(("discover", {"query": ("keyword",
                                                        rng.choice(keyword_pool),
                                                        5)}))
            else:
                schedule.append(("discover", {"query": ("related",
                                                        rng.choice(corpus.discovery_names),
                                                        5)}))
        elif kind == "sql" and corpus.sql_tables:
            schedule.append(("sql", _sql_op(rng, rng.choice(corpus.sql_tables))))
        elif kind == "federation" and corpus.sql_tables:
            schedule.append(("federation", {}))
        else:
            names = corpus.names()
            schedule.append(("fetch", {"name": rng.choice(names)}))
    return schedule


# -- fault wiring ----------------------------------------------------------


def build_polystore(fault_rate: float, seed: int) -> Polystore:
    """A polystore injecting faults on the relational *fetch* path only.

    Stores stay clean so every dataset lands; fetches ride the guarded
    breaker/retry/failover path — the configuration chaos scenarios use
    to prove availability holds while real faults fire.
    """
    schedule = FaultSchedule()
    if fault_rate > 0.0:
        schedule.set("relational", "table", FaultSpec(error_rate=fault_rate))
    relational = FaultInjector(RelationalStore(), "relational", schedule,
                               seed=seed)
    config = ResilienceConfig(
        failure_threshold=5,
        reset_timeout=0.02,
        probe_budget=2,
        success_threshold=1,
        replicate="always" if fault_rate > 0.0 else "on-failure",
        retry=RetryPolicy(max_attempts=3, base_delay=0.0005, multiplier=2.0,
                          max_delay=0.01, jitter=0.0),
    )
    return Polystore(relational=relational, resilience=config)


# -- the client phase ------------------------------------------------------


class _ClientStats:
    """Mutable per-run tally shared by the client threads (lock-guarded)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency_ms: Dict[str, List[float]] = {k: [] for k in OP_KINDS}
        self.ok = 0
        self.handled = 0
        self.unhandled: List[str] = []
        self.discovery_answers = 0
        self.sql_mismatches: List[str] = []
        self.ingested_extras: List[int] = []


def _execute_op(lake: DataLake, engine: Optional[FederatedQueryEngine],
                kind: str, payload: Dict[str, Any], scenario: Scenario,
                stats: _ClientStats) -> None:
    attempts = SQL_RETRIES if (kind == "sql" and scenario.fault_rate > 0) else 1
    started = time.perf_counter()
    status = "handled"
    try:
        for attempt in range(attempts):
            try:
                if kind == "ingest":
                    lake.ingest(_extra_dataset(payload["index"], scenario.seed))
                    with stats.lock:
                        stats.ingested_extras.append(payload["index"])
                elif kind == "discover":
                    query = payload["query"]
                    if query[0] == "joinable":
                        answer = lake.discover_joinable(query[1], query[2],
                                                        k=query[3])
                    elif query[0] == "keyword":
                        answer = lake.keyword_search(query[1], k=query[2])
                    else:
                        answer = lake.discover_related(query[1], k=query[2])
                    if answer:
                        with stats.lock:
                            stats.discovery_answers += 1
                elif kind == "sql":
                    result = lake.sql(payload["query"])
                    if len(result) != payload["oracle"]:
                        with stats.lock:
                            stats.sql_mismatches.append(
                                f"{payload['query']!r}: got {len(result)}, "
                                f"want {payload['oracle']}")
                elif kind == "federation":
                    assert engine is not None
                    engine.query(payload["patterns"], partial=True)
                else:
                    lake.polystore.fetch(payload["name"])
                status = "ok"
                break
            except DataLakeError:
                if attempt + 1 >= attempts:
                    raise
    except DataLakeError:
        status = "handled"
    except Exception as exc:  # lakelint: disable=bare-except,exception-hygiene — the zero-unhandled acceptance gate: recorded in the report and asserted empty
        status = "unhandled"
        with stats.lock:
            stats.unhandled.append(f"{kind}: {type(exc).__name__}: {exc}")
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    with stats.lock:
        stats.latency_ms[kind].append(elapsed_ms)
        if status == "ok":
            stats.ok += 1
        elif status == "handled":
            stats.handled += 1


def _run_clients(lake: DataLake, engine: Optional[FederatedQueryEngine],
                 scenario: Scenario,
                 schedule: Sequence[Tuple[str, Dict[str, Any]]]) -> Tuple[_ClientStats, float]:
    stats = _ClientStats()
    clients = max(1, scenario.clients)
    barrier = threading.Barrier(clients + 1)

    def client(offset: int) -> None:
        barrier.wait()
        for kind, payload in list(schedule)[offset::clients]:
            _execute_op(lake, engine, kind, payload, scenario, stats)

    threads = [threading.Thread(target=client, args=(offset,), daemon=True)
               for offset in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return stats, elapsed


# -- post-run verification against a serial reference ----------------------


def _verification_queries(corpus: Corpus) -> List[Tuple[str, ...]]:
    queries: List[Tuple[str, ...]] = []
    for name in sorted(corpus.discovery_names)[:4]:
        queries.append(("related", name))
    for table, column in sorted(corpus.join_targets)[:2]:
        queries.append(("joinable", table, column))
    for term in sorted(set(corpus.keyword_terms))[:2]:
        queries.append(("keyword", term))
    return queries


def _answer(lake: DataLake, query: Tuple[str, ...]) -> Any:
    if query[0] == "related":
        return lake.discover_related(query[1], k=5)
    if query[0] == "joinable":
        return lake.discover_joinable(query[1], query[2], k=5)
    return lake.keyword_search(query[1], k=5)


def _verify_against_reference(lake: DataLake, scenario: Scenario,
                              corpus: Corpus,
                              ingested_extras: Sequence[int]) -> Dict[str, Any]:
    """Replay a fixed query set on the lake and a fresh serial reference.

    The reference ingests an independently generated but seed-identical
    corpus (plus the extras the run committed) with ``cache=False`` — the
    uncached serial ground truth.  Discovery is partition-invariant, so
    answers must match element for element.
    """
    reference = DataLake(cache=False)
    try:
        for dataset in build_corpus(scenario).datasets:
            reference.ingest(dataset)
        for index in sorted(set(ingested_extras)):
            reference.ingest(_extra_dataset(index, scenario.seed))
        queries = _verification_queries(corpus)
        mismatches: List[str] = []
        answers = 0
        for query in queries:
            mine = _answer(lake, query)
            theirs = _answer(reference, query)
            if mine != theirs:
                mismatches.append(" ".join(str(part) for part in query))
            if theirs:
                answers += 1
        catalog_checks = 0
        catalog_hits = 0
        for topic in sorted(corpus.text_topic_terms):
            terms = " ".join(corpus.text_topic_terms[topic])
            mine = lake.catalog.search(terms, k=5)
            theirs = reference.catalog.search(terms, k=5)
            catalog_checks += 1
            if mine != theirs:
                mismatches.append(f"catalog {topic}")
            expected = set(corpus.text_topic_docs[topic])
            if expected & set(mine):
                catalog_hits += 1
        return {
            "queries": len(queries),
            "catalog_queries": catalog_checks,
            "mismatches": mismatches,
            "match": not mismatches,
            "non_empty_answers": answers + catalog_hits,
        }
    finally:
        reference.close()


# -- serving phase ---------------------------------------------------------

#: the tenant that floods, when the serving mix has an abusive tenant
ABUSER = "tenant0"

#: rounds per side; the abuse-free and the abusive side alternate which
#: goes first, each round on a fresh server over the same lake
SERVING_ROUNDS = 10

#: share of compliant requests that must be served, on both sides
COMPLIANT_AVAILABILITY = 1.0

#: the abuser's requests must be shed more often than this
ABUSER_SHED_FRACTION = 0.5

#: bound on the compliant reads' median per-round p95 under abuse, over
#: the same median without the abuser's clients
MAX_P95_RATIO = 2.0

#: share of a scenario's scheduled ops that must succeed
MIN_AVAILABILITY = 0.99

#: exceptions outside the lake's typed errors that a scenario may raise
MAX_UNHANDLED = 0

#: what each client ingests, and the table the abuser floods
_SERVED_TABLE = {"id": list(range(6)), "value": [1, 1, 2, 3, 5, 8]}


def _serving_round(lake: DataLake, mix: ServingMix, flood: bool,
                   ) -> Tuple[Dict[str, Counter], List[float]]:
    """One round on a fresh server over *lake*: each tenant's outcome
    counts, and the latency in ms of every compliant read.

    Each compliant client ingests its own table, then reads it.  With
    *flood*, the abuser's clients fetch the abuser's table far past its
    quota.  The abuser ingests that table before any client starts, so
    each of its fetches is served or shed, never failed.
    """
    from repro.serving.quotas import TenantQuota

    abuser = ABUSER if mix.abusive_tenant else None
    server = lake.server(max_pending=128)
    try:
        sessions = {}
        for index in range(mix.tenants):
            tenant = f"tenant{index}"
            if tenant == abuser:
                quota = TenantQuota(max_in_flight=2, requests_per_sec=50.0,
                                    burst=4)
            else:
                quota = TenantQuota(max_in_flight=8, requests_per_sec=500.0,
                                    burst=64)
            sessions[tenant] = server.connect(
                server.register_tenant(tenant, quota=quota))
        if abuser is not None:
            sessions[abuser].ingest("flood", _SERVED_TABLE).raise_for_status()

        # (tenant, index, responses, read ms): each thread fills its own lists
        clients = [(tenant, index, [], [])
                   for tenant in sessions if flood or tenant != abuser
                   for index in range(mix.clients_per_tenant)]
        barrier = threading.Barrier(len(clients) + 1)

        def client(tenant: str, index: int, responses: List[Any],
                   read_ms: List[float]) -> None:
            session = sessions[tenant]
            barrier.wait()
            if tenant == abuser:
                for _ in range(5 * mix.requests_per_client):
                    responses.append(session.fetch("flood"))
                return
            own = f"own_{index}"
            responses.append(session.ingest(own, _SERVED_TABLE))
            for request_index in range(mix.requests_per_client):
                started = time.perf_counter()
                if request_index % 3 == 2:
                    response = session.discover(kind="related", table=own, k=3)
                else:
                    response = session.fetch(own)
                read_ms.append((time.perf_counter() - started) * 1000.0)
                responses.append(response)

        threads = [threading.Thread(target=client, args=args, daemon=True)
                   for args in clients]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
    finally:
        server.close()

    outcomes = {tenant: Counter(ok=0, shed=0, failed=0) for tenant in sessions}
    latencies: List[float] = []
    for tenant, _, responses, read_ms in clients:
        outcomes[tenant].update(
            "ok" if response.ok else "shed" if response.shed else "failed"
            for response in responses)
        latencies.extend(read_ms)
    return outcomes, latencies


def run_serving(lake: DataLake, mix: ServingMix) -> Dict[str, Any]:
    """The multi-tenant phase: compliant tenants, with and without abuse.

    Runs :data:`SERVING_ROUNDS` rounds of the "baseline" side (the
    compliant clients alone) and, with an abusive tenant, as many of the
    "abusive" side (the same clients while the abuser floods).  Reports
    the compliant outcomes per side, each round's p95 over the compliant
    reads, and the abuser's outcomes with the delta of its
    ``serving.throttled`` counter; :func:`_serving_gates` judges them.
    No request carries a deadline, so each admitted request runs on its
    client's thread and the server's worker pool runs none.
    """
    sides = ("baseline", "abusive") if mix.abusive_tenant else ("baseline",)
    compliant = {side: Counter(ok=0, shed=0, failed=0) for side in sides}
    p95_ms: Dict[str, List[float]] = {side: [] for side in sides}
    abuser = Counter(ok=0, shed=0, failed=0)
    throttled = get_registry().counter("serving.throttled", tenant=ABUSER)
    throttled_before = throttled.value
    for round_index in range(SERVING_ROUNDS):
        for side in (sides if round_index % 2 == 0 else sides[::-1]):
            outcomes, read_ms = _serving_round(lake, mix,
                                               flood=side == "abusive")
            if mix.abusive_tenant:
                abuser.update(outcomes.pop(ABUSER))
            for tally in outcomes.values():
                compliant[side].update(tally)
            p95_ms[side].append(round(_percentile(read_ms, 0.95), 4))
    return {
        "tenants": mix.tenants,
        "rounds": SERVING_ROUNDS,
        "compliant": {side: dict(tally) for side, tally in compliant.items()},
        "p95_ms": p95_ms,
        "abuser": ({**abuser,
                    "throttled": int(throttled.value - throttled_before)}
                   if mix.abusive_tenant else None),
    }


def _serving_gates(serving: Dict[str, Any]) -> Dict[str, Any]:
    """Gates derived from the serving mix: no compliant request shed or
    failed on any side; with an abuser, most of its requests shed through
    the typed path and counted, and the compliant p95 ratio bounded."""
    availability = {side: (tally["ok"] / sum(tally.values())
                           if sum(tally.values()) else 1.0)
                    for side, tally in serving["compliant"].items()}
    gates: Dict[str, Any] = {"compliant_availability": {
        "pass": all(value >= COMPLIANT_AVAILABILITY
                    for value in availability.values()),
        "value": availability,
        "min": COMPLIANT_AVAILABILITY,
    }}
    abuser = serving["abuser"]
    if abuser is None:
        return gates
    requests = abuser["ok"] + abuser["shed"] + abuser["failed"]
    shed_fraction = abuser["shed"] / requests if requests else 0.0
    gates["abuser_shed"] = {
        "pass": (shed_fraction > ABUSER_SHED_FRACTION
                 and abuser["failed"] == 0
                 and abuser["throttled"] == abuser["shed"]),
        "shed_fraction": round(shed_fraction, 4),
        **abuser,
    }
    medians = {side: round(statistics.median(values), 4)
               for side, values in serving["p95_ms"].items()}
    ratio = (medians["abusive"] / medians["baseline"]
             if medians["baseline"] else None)
    gates["compliant_p95_ratio"] = {
        "pass": ratio is not None and ratio <= MAX_P95_RATIO,
        "value": None if ratio is None else round(ratio, 3),
        "max": MAX_P95_RATIO,
        "median_p95_ms": medians,
    }
    return gates


# -- the scenario runner ---------------------------------------------------


def _evaluate_gates(scenario: Scenario, stats: Dict[str, Any]) -> Dict[str, Any]:
    spec = scenario.gates
    gates: Dict[str, Any] = {}
    gates["availability"] = {
        "pass": stats["availability"] >= MIN_AVAILABILITY,
        "value": stats["availability"],
        "min": MIN_AVAILABILITY,
    }
    gates["unhandled"] = {
        "pass": len(stats["unhandled_errors"]) <= MAX_UNHANDLED,
        "count": len(stats["unhandled_errors"]),
        "max": MAX_UNHANDLED,
    }
    gates["discovery_match"] = {
        "pass": stats["verification"]["match"],
        "mismatches": stats["verification"]["mismatches"],
    }
    gates["sql_oracle"] = {
        "pass": not stats["sql_mismatches"],
        "mismatches": stats["sql_mismatches"],
    }
    if spec.min_discovery_answers > 0:
        answers = (stats["discovery_answers"]
                   + stats["verification"]["non_empty_answers"])
        gates["discovery_answers"] = {
            "pass": answers >= spec.min_discovery_answers,
            "value": answers,
            "min": spec.min_discovery_answers,
        }
    if scenario.crash_restart:
        crash = stats["crash_restart"]
        gates["committed_visible"] = {
            "pass": crash["committed_visible"],
            "failures": crash["failures"],
            "unreached_points": crash["unreached_points"],
        }
    if scenario.serving is not None:
        gates.update(_serving_gates(stats["serving"]))
    faults = stats["faults"]
    if scenario.fault_rate > 0:
        # a chaos run whose injector never fired proves nothing
        gates["faults_fired"] = {"pass": bool(faults["injected"]),
                                 "injected": faults["injected"]}
    else:
        # without injected faults the resilience machinery stays idle
        gates["clean_health"] = {
            "pass": not (faults["injected"] or faults["breaker_transitions"]
                         or faults["degraded_placements"]),
            **faults,
        }
    return gates


def run_scenario(scenario: Scenario) -> Dict[str, Any]:
    """Run one scenario end to end; returns its report with gates."""
    corpus = build_corpus(scenario)
    schedule = build_schedule(scenario, corpus)
    polystore = build_polystore(scenario.fault_rate, scenario.seed)
    lake = DataLake(polystore=polystore,
                    cache=scenario.cache,
                    async_maintenance=scenario.async_maintenance)
    try:
        ingest_started = time.perf_counter()
        for dataset in corpus.datasets:
            lake.ingest(dataset)
        lake.drain()
        ingest_elapsed = time.perf_counter() - ingest_started

        engine: Optional[FederatedQueryEngine] = None
        federation_patterns: List[Tuple[str, str, str]] = []
        if corpus.sql_tables:
            profile_table = corpus.sql_tables[0]
            columns = profile_table.column_names[:2]
            engine = FederatedQueryEngine(lake.polystore)
            engine.profile_from_placement(
                profile_table.name,
                {column: column for column in columns})
            federation_patterns = [("?r", column, f"?v{index}")
                                   for index, column in enumerate(columns)]
        for kind, payload in schedule:
            if kind == "federation":
                payload["patterns"] = federation_patterns

        client_stats, elapsed = _run_clients(lake, engine, scenario, schedule)
        lake.drain()

        verification = _verify_against_reference(
            lake, scenario, corpus, client_stats.ingested_extras)

        total_ops = len(schedule)
        cache_stats = (lake.query_cache.stats()
                       if lake.query_cache is not None else None)
        stats: Dict[str, Any] = {
            "datasets": len(corpus.datasets),
            "ops": total_ops,
            "clients": scenario.clients,
            "ingest_s": round(ingest_elapsed, 4),
            "elapsed_s": round(elapsed, 4),
            "throughput_ops_per_s": round(total_ops / elapsed, 2) if elapsed else 0.0,
            "availability": (client_stats.ok / total_ops) if total_ops else 1.0,
            "handled_errors": client_stats.handled,
            "unhandled_errors": client_stats.unhandled,
            "discovery_answers": client_stats.discovery_answers,
            "sql_mismatches": client_stats.sql_mismatches,
            "cache_hit_rate": (round(cache_stats["hit_rate"], 4)
                               if cache_stats else None),
            "latency_ms": {
                kind: {"p50": round(_percentile(values, 0.50), 4),
                       "p95": round(_percentile(values, 0.95), 4),
                       "count": len(values)}
                for kind, values in client_stats.latency_ms.items() if values
            },
            "verification": verification,
            "health_degraded": lake.polystore.health.degraded(),
        }
        if scenario.crash_restart:
            # the durability crash matrix: every reachable (point, mode,
            # hit) of its workload, checked against its recovery
            # invariants after a cold reload
            matrix = run_crash_matrix()
            stats["crash_restart"] = {
                "scenarios": matrix["scenarios"],
                "failures": matrix["failures"],
                "unreached_points": matrix["unreached_points"],
                "committed_visible": not (matrix["failures"]
                                          or matrix["unreached_points"]),
            }
        if scenario.serving is not None:
            stats["serving"] = run_serving(lake, scenario.serving)
        stats["faults"] = {
            "injected": polystore.relational.injected_counts(),
            "breaker_transitions": len(polystore.health.transitions()),
            "degraded_placements": len(polystore.degraded_placements()),
        }
    finally:
        lake.close()

    gates = _evaluate_gates(scenario, stats)
    passed = all(gate["pass"] for gate in gates.values())
    return {
        "scenario": scenario.to_dict(),
        "stats": stats,
        "gates": gates,
        "passed": passed,
    }
