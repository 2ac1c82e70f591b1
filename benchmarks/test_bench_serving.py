"""[serving] Multi-tenant fairness under an abusive co-tenant.

A :class:`~repro.serving.server.LakeServer` serves 102 closed-loop
compliant clients across three tenants issuing a seeded fetch / SQL /
discovery mix, measured twice: alone (the abuse-free baseline) and with
an abuser tenant's 8 clients flooding far past their tiny quota.  The
claims to reproduce:

- **the abuser is shed, not served** — admission control rejects most
  of the flood with typed responses, and the labeled
  ``serving.throttled{tenant=abuser}`` counter records every rejection;
- **abuse does not spread** — compliant tenants keep availability 1.0
  (not one request rejected) and their p95 latency stays within 2x of
  the abuse-free baseline;
- **the tier still moves** — sustained throughput stays positive in
  both runs (qps and tail latencies land in the artifact).

Results land in ``BENCH_serving.json``.
"""

import json
import pathlib

from repro.bench.results import write_bench_json
from repro.bench.serving import (
    ABUSER_CLIENTS,
    CLIENTS_PER_TENANT,
    COMPLIANT_TENANTS,
    FAIRNESS_P95_RATIO,
    SEED,
    build_artifact,
    run_bench,
)
from repro.bench.reporting import render_table, report_experiment

from conftest import add_report

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_serving.json"


def test_bench_serving_fairness(benchmark):
    report = benchmark.pedantic(run_bench, iterations=1, rounds=1)

    baseline, abusive = report["baseline"], report["abusive"]
    fairness = report["fairness"]
    abuser = abusive["per_tenant"]["abuser"]
    rendered = render_table(
        f"Serving fairness: {report['compliant_clients']} compliant clients "
        f"/ {len(COMPLIANT_TENANTS)} tenants + {report['abuser_clients']} "
        f"abuser clients (seed {report['seed']})",
        ["run", "qps", "p50 ms", "p95 ms", "p99 ms", "availability"],
        [
            ["baseline (no abuser)", baseline["qps"],
             baseline["compliant"]["p50_ms"], baseline["compliant"]["p95_ms"],
             baseline["compliant"]["p99_ms"],
             f"{baseline['compliant']['availability']:.4f}"],
            ["abusive (compliant view)", abusive["qps"],
             abusive["compliant"]["p50_ms"], abusive["compliant"]["p95_ms"],
             abusive["compliant"]["p99_ms"],
             f"{abusive['compliant']['availability']:.4f}"],
            ["abusive (abuser view)", "-", abuser["p50_ms"], abuser["p95_ms"],
             abuser["p99_ms"],
             f"shed {fairness['abuser_shed_fraction']:.0%}"],
        ],
    )
    rendered += "\n" + report_experiment(
        "serving",
        f"abuser throttled (counter > 0), compliant availability 1.0, "
        f"compliant p95 within {FAIRNESS_P95_RATIO:.0f}x of baseline",
        f"throttled={fairness['abuser_throttled']}, "
        f"availability={fairness['compliant_availability']}, "
        f"p95 ratio x{fairness['p95_ratio']:.2f}",
    )
    add_report("BENCH_serving", rendered)
    write_bench_json("serving", build_artifact(report))

    # -- acceptance -----------------------------------------------------------
    assert report["seed"] == SEED
    assert report["compliant_clients"] == (
        len(COMPLIANT_TENANTS) * CLIENTS_PER_TENANT) >= 100
    assert report["abuser_clients"] == ABUSER_CLIENTS
    assert len(COMPLIANT_TENANTS) >= 3

    # the abuser is shed through the typed path and the labeled counter saw it
    assert fairness["abuser_throttled"] > 0
    assert fairness["abuser_shed_fraction"] > 0.5
    assert abuser["failed"] == 0, "abuse must shed typed, not error"

    # abuse does not spread to compliant tenants
    assert fairness["compliant_availability"] == 1.0
    assert abusive["compliant"]["failed"] == 0
    assert abusive["compliant"]["shed"] == 0
    assert fairness["p95_ratio"] <= FAIRNESS_P95_RATIO
    assert fairness["pass"] is True

    # the tier still moves under abuse
    assert baseline["qps"] > 0 and abusive["qps"] > 0
