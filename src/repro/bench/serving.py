"""Shared workload for the multi-tenant serving benchmark.

One seeded scenario: a :class:`~repro.serving.server.LakeServer` in
front of a small shared lake, loaded by closed-loop client threads —
three *compliant* tenants with generous quotas issuing a seeded mix of
fetch / SQL / discovery requests, plus one *abuser* tenant with a tiny
quota flooding the server far past its rate limit.  Two runs measure
the identical compliant workload:

- **baseline** — compliant tenants only (the abuse-free reference);
- **abusive** — the same compliant clients plus the abuser flood.

The report carries sustained throughput and p50/p95/p99 latency per
run, per-tenant breakdowns, and the **fairness gate** the benchmark
asserts:

- the abuser is actually shed (``serving.throttled{tenant=abuser}`` is
  nonzero and most of its offered load is rejected);
- compliant tenants never see a rejection (availability 1.0 — admission
  control absorbs the abuse, it does not spread it);
- the compliant p95 under abuse stays within ``FAIRNESS_P95_RATIO``
  (2x) of the abuse-free baseline.

Latencies are measured client-side with ``perf_counter`` around each
``serve`` round trip.  No request carries a deadline, so each admitted
request runs on its client's thread and the server's worker pool runs
none: a request queues only at admission (its tenant's in-flight cap,
the server's pending ceiling), and what the abuser contends for with
it, admission and the interpreter lock, is inside the measurement.
Used by ``benchmarks/test_bench_serving.py``, which writes
``BENCH_serving.json``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.lake import DataLake
from repro.obs import get_registry
from repro.serving import AuthRegistry, LakeServer, Session, TenantQuota

SEED = 47

#: three compliant tenants x 34 clients = 102 concurrent clients, plus abuse
COMPLIANT_TENANTS: Tuple[str, ...] = ("acme", "globex", "initech")
CLIENTS_PER_TENANT = 34
REQUESTS_PER_CLIENT = 6
ABUSER = "abuser"
ABUSER_CLIENTS = 8
ABUSER_REQUESTS = 30

#: compliant quotas are generous — the gate is that abuse, not quota noise,
#: is the only thing that may shed anyone
COMPLIANT_QUOTA = TenantQuota(max_in_flight=64, requests_per_sec=100_000.0,
                              max_result_rows=10_000)
ABUSER_QUOTA = TenantQuota(max_in_flight=2, requests_per_sec=20.0, burst=5,
                           max_result_rows=100)

#: the fairness gate: compliant p95 under abuse vs the abuse-free baseline
FAIRNESS_P95_RATIO = 2.0

TABLE_ROWS = 40


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (0 for an empty series)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def seed_tenant_data(session: Session, rng: random.Random) -> None:
    """Give one tenant a small joinable schema to query against."""
    regions = [f"r{rng.randrange(8)}" for _ in range(TABLE_ROWS)]
    session.ingest("sales", {
        "region": regions,
        "amount": [rng.randrange(1000) for _ in range(TABLE_ROWS)],
    }).raise_for_status()
    session.ingest("customers", {
        "region": regions,
        "tier": [rng.choice(["gold", "silver", "bronze"])
                 for _ in range(TABLE_ROWS)],
    }).raise_for_status()
    session.ingest("orders", {
        "region": regions,
        "qty": [rng.randrange(50) for _ in range(TABLE_ROWS)],
    }).raise_for_status()


def build_server(tenants: Sequence[str], *, abuser: bool, seed: int = SEED,
                 ) -> Tuple[LakeServer, Dict[str, Session]]:
    """A fresh lake + server with every tenant registered and seeded."""
    rng = random.Random(seed)
    server = LakeServer(DataLake.in_memory(), auth=AuthRegistry(),
                        max_pending=512)
    sessions: Dict[str, Session] = {}
    for tenant in tenants:
        token = server.register_tenant(tenant, quota=COMPLIANT_QUOTA)
        sessions[tenant] = server.connect(token)
        seed_tenant_data(sessions[tenant], rng)
    if abuser:
        token = server.register_tenant(ABUSER, quota=ABUSER_QUOTA)
        sessions[ABUSER] = server.connect(token)
        seed_tenant_data(sessions[ABUSER], rng)
    return server, sessions


def _compliant_ops(rng: random.Random) -> List[Tuple[str, ...]]:
    """One client's seeded request mix (op name + arguments)."""
    ops: List[Tuple[str, ...]] = []
    for _ in range(REQUESTS_PER_CLIENT):
        roll = rng.random()
        if roll < 0.35:
            ops.append(("fetch", rng.choice(["sales", "customers", "orders"])))
        elif roll < 0.65:
            ops.append(("sql",
                        "SELECT region, amount FROM sales WHERE amount > "
                        f"{rng.randrange(500)}"))
        elif roll < 0.85:
            ops.append(("related", rng.choice(["sales", "customers"])))
        else:
            ops.append(("keyword", rng.choice(["region", "tier", "qty"])))
    return ops


class ClientResult:
    """One client thread's tally (thread-local until joined)."""

    def __init__(self, tenant: str):
        self.tenant = tenant
        self.latencies_ms: List[float] = []
        self.ok = 0
        self.shed = 0
        self.failed = 0

    def record(self, response, elapsed_ms: float) -> None:
        self.latencies_ms.append(elapsed_ms)
        if response.ok:
            self.ok += 1
        elif response.shed:
            self.shed += 1
        else:
            self.failed += 1


def _issue(session: Session, op: Tuple[str, ...]):
    if op[0] == "fetch":
        return session.fetch(op[1])
    if op[0] == "sql":
        return session.sql(op[1])
    if op[0] == "related":
        return session.discover("related", table=op[1], k=3)
    return session.discover("keyword", keywords=op[1], k=3)


def _compliant_client(session: Session, ops: Sequence[Tuple[str, ...]],
                      barrier: threading.Barrier,
                      result: ClientResult) -> None:
    barrier.wait()
    for op in ops:
        started = time.perf_counter()
        response = _issue(session, op)
        result.record(response, (time.perf_counter() - started) * 1000.0)


def _abuser_client(session: Session, barrier: threading.Barrier,
                   result: ClientResult) -> None:
    """Flood far past the abuser quota; a tiny pause keeps the flood from
    degenerating into a pure GIL spin (the shed path returns in-line)."""
    barrier.wait()
    for _ in range(ABUSER_REQUESTS):
        started = time.perf_counter()
        response = session.fetch("sales")
        result.record(response, (time.perf_counter() - started) * 1000.0)
        time.sleep(0.0005)


def run_load(server: LakeServer, sessions: Dict[str, Session],
             seed: int, *, abuser: bool) -> Dict[str, Any]:
    """Drive the full client fleet once; returns the measured run report."""
    rng = random.Random(seed)
    results: List[ClientResult] = []
    threads: List[threading.Thread] = []
    total_clients = (len(COMPLIANT_TENANTS) * CLIENTS_PER_TENANT
                     + (ABUSER_CLIENTS if abuser else 0))
    barrier = threading.Barrier(total_clients + 1)

    for tenant in COMPLIANT_TENANTS:
        for _ in range(CLIENTS_PER_TENANT):
            result = ClientResult(tenant)
            results.append(result)
            threads.append(threading.Thread(
                target=_compliant_client,
                args=(sessions[tenant], _compliant_ops(rng), barrier, result),
                daemon=True))
    if abuser:
        for _ in range(ABUSER_CLIENTS):
            result = ClientResult(ABUSER)
            results.append(result)
            threads.append(threading.Thread(
                target=_abuser_client, args=(sessions[ABUSER], barrier, result),
                daemon=True))

    for thread in threads:
        thread.start()
    barrier.wait()  # release the whole fleet at once
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    per_tenant: Dict[str, Dict[str, Any]] = {}
    for result in results:
        bucket = per_tenant.setdefault(result.tenant, {
            "requests": 0, "ok": 0, "shed": 0, "failed": 0,
            "latencies_ms": []})
        bucket["requests"] += len(result.latencies_ms)
        bucket["ok"] += result.ok
        bucket["shed"] += result.shed
        bucket["failed"] += result.failed
        bucket["latencies_ms"].extend(result.latencies_ms)

    compliant_ms: List[float] = []
    for tenant in COMPLIANT_TENANTS:
        compliant_ms.extend(per_tenant[tenant]["latencies_ms"])
    for tenant, bucket in per_tenant.items():
        series = bucket.pop("latencies_ms")
        bucket["p50_ms"] = round(percentile(series, 0.50), 3)
        bucket["p95_ms"] = round(percentile(series, 0.95), 3)
        bucket["p99_ms"] = round(percentile(series, 0.99), 3)
        bucket["availability"] = (
            round((bucket["ok"] + bucket["shed"]) / bucket["requests"], 4)
            if bucket["requests"] else 1.0)

    total_ok = sum(bucket["ok"] for bucket in per_tenant.values())
    compliant = {
        "requests": len(compliant_ms),
        "ok": sum(per_tenant[t]["ok"] for t in COMPLIANT_TENANTS),
        "shed": sum(per_tenant[t]["shed"] for t in COMPLIANT_TENANTS),
        "failed": sum(per_tenant[t]["failed"] for t in COMPLIANT_TENANTS),
        "p50_ms": round(percentile(compliant_ms, 0.50), 3),
        "p95_ms": round(percentile(compliant_ms, 0.95), 3),
        "p99_ms": round(percentile(compliant_ms, 0.99), 3),
    }
    compliant["availability"] = (
        round(compliant["ok"] / compliant["requests"], 4)
        if compliant["requests"] else 1.0)
    return {
        "clients": total_clients,
        "seconds": round(elapsed, 4),
        "qps": round(total_ok / elapsed, 2) if elapsed else 0.0,
        "compliant": compliant,
        "per_tenant": per_tenant,
    }


def build_artifact(report: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a :func:`run_bench` report in the shared ``BENCH_*`` envelope."""
    from repro.bench.results import envelope

    payload = dict(report)
    seed = payload.pop("seed")
    return envelope("repro.serving/bench-v1", payload, seed=seed,
                    gates={"fairness": payload["fairness"]})


def run_bench(seed: int = SEED) -> Dict[str, Any]:
    """Baseline vs abusive run of the identical compliant workload."""
    baseline_server, baseline_sessions = build_server(
        COMPLIANT_TENANTS, abuser=False, seed=seed)
    with baseline_server:
        baseline = run_load(baseline_server, baseline_sessions, seed,
                            abuser=False)

    throttled_before = get_registry().counter(
        "serving.throttled", tenant=ABUSER).value
    abusive_server, abusive_sessions = build_server(
        COMPLIANT_TENANTS, abuser=True, seed=seed)
    with abusive_server:
        abusive = run_load(abusive_server, abusive_sessions, seed, abuser=True)
    abuser_throttled = int(get_registry().counter(
        "serving.throttled", tenant=ABUSER).value - throttled_before)

    baseline_p95 = baseline["compliant"]["p95_ms"]
    abusive_p95 = abusive["compliant"]["p95_ms"]
    p95_ratio = (round(abusive_p95 / baseline_p95, 3)
                 if baseline_p95 else float("inf"))
    abuser_stats = abusive["per_tenant"][ABUSER]
    fairness = {
        "p95_ratio": p95_ratio,
        "max_p95_ratio": FAIRNESS_P95_RATIO,
        "abuser_throttled": abuser_throttled,
        "abuser_shed_fraction": (
            round(abuser_stats["shed"] / abuser_stats["requests"], 4)
            if abuser_stats["requests"] else 0.0),
        "compliant_availability": abusive["compliant"]["availability"],
    }
    fairness["pass"] = bool(
        fairness["abuser_throttled"] > 0
        and fairness["compliant_availability"] == 1.0
        and p95_ratio <= FAIRNESS_P95_RATIO)
    return {
        "seed": seed,
        "tenants": list(COMPLIANT_TENANTS) + [ABUSER],
        "compliant_clients": len(COMPLIANT_TENANTS) * CLIENTS_PER_TENANT,
        "abuser_clients": ABUSER_CLIENTS,
        "baseline": baseline,
        "abusive": abusive,
        "fairness": fairness,
    }
