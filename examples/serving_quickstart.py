"""Serving quickstart: one lake, two tenants, quotas and typed shedding.

Spins up a :class:`~repro.serving.server.LakeServer` over an in-memory
lake, registers two tenants (one generous, one tightly rate-limited),
and walks the multi-tenant story end to end: namespace isolation (both
tenants own a private ``sales``), cross-tenant denial that is
indistinguishable from absence, SQL and discovery scoped to the
caller's namespace, a quota flood answered with typed ``Throttled``
responses, and the per-tenant serving stats an operator would watch
(see docs/SERVING.md).

Run:  python examples/serving_quickstart.py
"""

from repro import DataLake
from repro.serving import AuthRegistry, LakeServer, TenantQuota


def main() -> None:
    lake = DataLake.in_memory()
    server = LakeServer(lake, auth=AuthRegistry())

    # -- two tenants, two quotas ---------------------------------------------
    acme_token = server.register_tenant("acme", quota=TenantQuota(
        max_in_flight=8, requests_per_sec=1000.0))
    beta_token = server.register_tenant("beta", quota=TenantQuota(
        max_in_flight=2, requests_per_sec=5.0, burst=3, max_result_rows=2))

    acme = server.connect(acme_token)
    beta = server.connect(beta_token)

    # -- each tenant ingests into its own namespace --------------------------
    acme.ingest("sales", {
        "region": ["EU", "US", "APAC"],
        "amount": [120, 80, 310],
    }).raise_for_status()
    acme.ingest("customers", {
        "region": ["EU", "US"],
        "tier": ["gold", "silver"],
    }).raise_for_status()
    beta.ingest("sales", {  # same name, different tenant, different data
        "region": ["LATAM", "EU", "US", "APAC"],
        "amount": [999, 1, 2, 3],
    }).raise_for_status()

    print("== shared lake, prefixed namespaces ==")
    print(f"  datasets in the lake: {sorted(lake.datasets())}")

    # -- reads are scoped to the caller --------------------------------------
    print("\n== acme's view of 'sales' ==")
    print(f"  {acme.fetch('sales').raise_for_status().value['columns']}")
    beta_view = beta.fetch("sales").raise_for_status().value
    print("== beta's view of 'sales' ==")
    print(f"  {beta_view['columns']}")
    print(f"  rows capped at quota.max_result_rows: rows={beta_view['rows']} "
          f"truncated={beta_view['truncated']}")

    denied = beta.fetch("customers")  # acme's dataset: absence == denial
    print("\n== beta fetching acme's 'customers' ==")
    print(f"  ok={denied.ok} error_type={denied.error_type}")

    # -- SQL and discovery stay inside the namespace -------------------------
    result = acme.sql("SELECT region, amount FROM sales WHERE amount > 100")
    print("\n== acme SQL: big sales ==")
    for row in result.raise_for_status().value["rows"]:
        print(f"  {row}")

    related = acme.discover("related", "sales", k=3).raise_for_status()
    print("\n== acme discovery: related to 'sales' ==")
    for name, score in related.value:
        print(f"  {name} (score {score:.2f})")

    # -- a flood meets admission control -------------------------------------
    print("\n== beta floods past its 5 req/s quota ==")
    outcomes = [beta.fetch("sales") for _ in range(10)]
    served = sum(1 for r in outcomes if r.ok)
    shed = sum(1 for r in outcomes if r.shed)
    print(f"  served={served} shed={shed} "
          f"(typed {sorted({r.error_type for r in outcomes if r.shed})})")

    # -- the operator's view -------------------------------------------------
    print("\n== serving stats ==")
    stats = server.stats()
    for tenant, entry in stats["admission"]["tenants"].items():
        print(f"  {tenant}: admitted={entry['admitted']} "
              f"rejected={entry['rejected']} "
              f"(quota {entry['requests_per_sec']:.0f}/s, "
              f"in-flight cap {entry['max_in_flight']})")
    health = acme.health().raise_for_status().value
    print(f"  lake healthy: {health['healthy']}")

    server.close()


if __name__ == "__main__":
    main()
