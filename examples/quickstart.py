"""Quickstart: build a data lake, ingest raw data, discover, query.

Walks the survey's three tiers end to end on a small retail scenario:
ingestion (with automatic metadata extraction), maintenance (related
dataset discovery, provenance) and exploration (SQL and keyword search),
then a chaos demo: fault injection, circuit breakers and degraded-mode
storage (see docs/FAULTS.md).

Run:  python examples/quickstart.py
"""

from repro import DataLake
from repro.core.dataset import Dataset
from repro.obs import SpanRecorder, get_registry, set_recorder


def main() -> None:
    # the process recorder keeps one request in 64: keep every span instead
    set_recorder(SpanRecorder(registry=get_registry()))
    lake = DataLake.in_memory()

    # -- ingestion tier: raw data in its original formats -------------------
    lake.ingest_table("customers", {
        "customer_id": ["c1", "c2", "c3", "c4"],
        "name": ["Ann", "Bob", "Cid", "Dee"],
        "city": ["berlin", "paris", "berlin", "rome"],
    }, source="crm-export")
    lake.ingest_table("orders", {
        "order_id": ["o1", "o2", "o3", "o4", "o5"],
        "customer_id": ["c1", "c1", "c3", "c4", "c2"],
        "amount": [120, 80, 42, 310, 65],
    }, source="webshop")
    lake.ingest_bytes(
        "clickstream",
        b'{"session": "s1", "page": "/home"}\n{"session": "s2", "page": "/cart"}\n',
        filename="clicks.jsonl", source="cdn-logs",
    )

    print("== architecture report (Fig. 2, live) ==")
    for key, value in lake.architecture_report().items():
        print(f"  {key}: {value}")

    # metadata was extracted at ingest (GEMMS)
    record = lake.metadata_repository.get("orders")
    print("\n== extracted metadata for 'orders' ==")
    print(f"  columns: {record.properties['column_names']}")
    print(f"  types:   {record.properties['column_types']}")

    # -- maintenance tier: related dataset discovery -------------------------
    print("\n== joinable with orders.customer_id (Aurum) ==")
    for (table, column), similarity in lake.discover_joinable("orders", "customer_id"):
        print(f"  {table}.{column}  (similarity {similarity:.2f})")

    print("\n== provenance of 'orders' ==")
    for event in lake.provenance.events_about("orders"):
        print(f"  {event.activity} by {event.actor} (inputs={list(event.inputs)})")

    # -- exploration tier: SQL and keyword search -----------------------------
    print("\n== SQL: revenue per customer city ==")
    result = lake.sql(
        "SELECT name, city, amount FROM orders "
        "JOIN customers ON orders.customer_id = customers.customer_id "
        "ORDER BY amount DESC LIMIT 3"
    )
    for row in result.rows():
        print(f"  {row}")

    print("\n== keyword search: 'berlin' ==")
    for hit in lake.keyword_search("berlin"):
        print(f"  {hit.table} (score {hit.score}) values={hit.matched_values}")

    # -- observability: where did the time go? -------------------------------
    print("\n== trace of everything above (repro.obs) ==")
    print(lake.observability.span_tree())
    print()
    print(lake.observability.render_report())

    # -- maintenance runtime: bulk ingest, then drain ------------------------
    # For bulk loads, maintenance (metadata, catalog, index upkeep) can run
    # as background jobs instead of inline; drain() is the barrier.
    bulk = DataLake(async_maintenance=True)
    for month in ("jan", "feb", "mar", "apr", "may", "jun"):
        bulk.ingest_table(f"sales_{month}", {
            "order_id": [f"{month}-{i}" for i in range(25)],
            "customer_id": [f"c{i % 9}" for i in range(25)],
            "amount": [10 + i for i in range(25)],
        }, source=f"erp-{month}")
    results = bulk.drain()

    print("\n== bulk ingest via the maintenance runtime ==")
    stats = bulk.runtime.stats()
    print(f"  jobs run: {stats['jobs']} (by state: {stats['by_state']})")
    print(f"  cataloged: {len(bulk.catalog)} datasets, "
          f"all ok: {all(r.ok for r in results.values())}")
    for (table, column), similarity in bulk.discover_joinable(
            "sales_jan", "customer_id", k=2):
        print(f"  joinable after drain: {table}.{column} "
              f"(similarity {similarity:.2f})")
    bulk.close()

    # -- chaos demo: fault injection, breakers, degraded mode ----------------
    # Wrap a backend in a seeded FaultInjector, kill it outright, and watch
    # the lake stay available: writes fail over to the object-store fallback
    # tier, health() reports the degraded placements, and once the "outage"
    # ends repair_degraded() moves the data back where it belongs.
    from repro.faults import FaultInjector, FaultSchedule, FaultSpec, ResilienceConfig
    from repro.storage.polystore import Polystore
    from repro.storage.relational import RelationalStore

    schedule = FaultSchedule().set("relational", "*", FaultSpec(error_rate=1.0))
    chaos = DataLake(polystore=Polystore(
        relational=FaultInjector(RelationalStore(), "relational", schedule, seed=7),
        resilience=ResilienceConfig(failure_threshold=2, reset_timeout=0.0),
    ))
    chaos.ingest_table("chaos_orders", {
        "order_id": ["x1", "x2"], "amount": [10, 20],
    }, source="chaos-demo")

    print("\n== chaos demo: relational backend down ==")
    report = chaos.health()
    print(f"  healthy: {report['healthy']}")
    print(f"  degraded placements: {report['degraded_placements']}")
    print(f"  survived the outage: {chaos.polystore.fetch('chaos_orders').name!r} "
          "served from the fallback tier")

    schedule.set("relational", "*", FaultSpec())   # outage over
    chaos.repair_degraded()
    for _ in range(2):                             # probe traffic closes the breaker
        chaos.polystore.fetch("chaos_orders")
    report = chaos.health()
    print(f"  after repair_degraded(): healthy={report['healthy']}, "
          f"placement back on "
          f"{chaos.polystore.placement('chaos_orders').backend!r}")
    chaos.close()


if __name__ == "__main__":
    main()
