"""[runtime] Maintenance cost under an interleaved ingest/discovery workload.

DLBench-style scenario: 200 tables arrive one at a time while users keep
querying the lake (keyword search every 5 ingests, join discovery every
10).  Three maintenance strategies answer the same workload:

- **inline full-rebuild** — the baseline: every query point builds a
  fresh ``Aurum`` and ``KeywordSearch`` from ``lake.tables()``;
- **incremental (sync, default)** — persistent indexes, per-table deltas
  applied by the write once Aurum is built, and by the next keyword
  query for keyword postings;
- **async** — each ingest's maintenance enqueued as one job on the
  background job runtime, ``drain()`` as the final barrier.

The claim to reproduce: dirty-set deltas turn the quadratic
rebuild-per-query cost into near-linear upkeep — incremental maintenance
must be >= 5x faster than inline full-rebuild end to end, with identical
answers.  Results land in ``BENCH_runtime.json`` with the async job p95.
"""

import json
import pathlib
import time

from repro import DataLake
from repro.bench.reporting import render_table, report_experiment
from repro.bench.results import envelope, write_bench_json
from repro.discovery.aurum import Aurum
from repro.exploration.keyword import KeywordSearch
from repro.obs import get_registry, reset as obs_reset

from conftest import add_report

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_runtime.json"

TABLES = 200
ROWS = 10
KEYWORD_EVERY = 5
DISCOVERY_EVERY = 10
CITIES = ("berlin", "paris", "rome", "london")


def payload(i):
    """Small table sharing a customer_id domain so join edges exist."""
    return {
        "row_id": [f"t{i}-{r}" for r in range(ROWS)],
        "customer_id": [f"c{(i + r) % 40}" for r in range(ROWS)],
        "city": [CITIES[(i + r) % len(CITIES)] for r in range(ROWS)],
    }


def rebuilt_keyword(lake, keywords, k):
    """Baseline keyword query: a fresh index over every table."""
    searcher = KeywordSearch()
    for table in lake.tables():
        searcher.add_table(table)
    return searcher.search(keywords, k=k)


def rebuilt_joinable(lake, table, column, k):
    """Baseline join discovery: a fresh Aurum engine over every table."""
    engine = Aurum()
    for indexed in lake.tables():
        engine.add_table(indexed)
    engine.build()
    return engine.joinable(table, column, k=k)


def run_workload(lake, keyword=DataLake.keyword_search,
                 joinable=DataLake.discover_joinable):
    """Interleave ingest with keyword + join-discovery queries.

    Returns (seconds, answers) so strategies can be checked for equality.
    """
    answers = []
    started = time.perf_counter()
    for i in range(TABLES):
        lake.ingest_table(f"table_{i}", payload(i), source=f"feed-{i}")
        if i % KEYWORD_EVERY == KEYWORD_EVERY - 1:
            answers.append(keyword(lake, "berlin", k=5))
        if i % DISCOVERY_EVERY == DISCOVERY_EVERY - 1:
            answers.append(joinable(lake, f"table_{i}", "customer_id", k=3))
    lake.drain()
    lake.close()
    return time.perf_counter() - started, answers


def run_all_modes():
    obs_reset()  # the job histogram is process-wide: count this run's jobs only
    runs = {
        "inline_full_rebuild": run_workload(
            DataLake(), keyword=rebuilt_keyword, joinable=rebuilt_joinable),
        "incremental_sync": run_workload(DataLake()),
        "async_runtime": run_workload(DataLake(async_maintenance=True)),
    }
    job_latency = get_registry().histogram("runtime.job_ms").summary()
    return runs, job_latency


def test_bench_runtime_incremental_vs_full_rebuild(benchmark):
    runs, job_latency = benchmark.pedantic(run_all_modes, iterations=1, rounds=1)
    timings = {mode: seconds for mode, (seconds, _) in runs.items()}
    answers = {mode: answers for mode, (_, answers) in runs.items()}

    inline = timings["inline_full_rebuild"]
    speedups = {mode: inline / seconds for mode, seconds in timings.items()}
    rendered = render_table(
        "Maintenance runtime: interleaved ingest/discovery over "
        f"{TABLES} tables",
        ["strategy", "total (s)", "speedup vs inline"],
        [[mode, f"{seconds:.2f}", f"{speedups[mode]:.1f}x"]
         for mode, seconds in timings.items()],
    )
    rendered += "\n" + report_experiment(
        "runtime",
        "incremental index deltas beat rebuild-per-query maintenance",
        f"incremental {speedups['incremental_sync']:.1f}x, async "
        f"{speedups['async_runtime']:.1f}x vs inline; async job p95 "
        f"{job_latency['p95']:.2f}ms over {job_latency['count']:.0f} jobs",
    )
    add_report("runtime_maintenance", rendered)

    write_bench_json("runtime", envelope(
        "repro.runtime/bench-v1",
        {
            "workload": {
                "tables": TABLES,
                "rows_per_table": ROWS,
                "keyword_query_every": KEYWORD_EVERY,
                "discovery_query_every": DISCOVERY_EVERY,
            },
            "total_seconds": {k: round(v, 4) for k, v in timings.items()},
            "speedup_vs_inline": {k: round(v, 2) for k, v in speedups.items()},
            "async_job_latency_ms": job_latency,
        },
        gates={
            "incremental_speedup": {
                "pass": speedups["incremental_sync"] >= 5.0,
                "value": round(speedups["incremental_sync"], 2),
                "min": 5.0,
            },
        },
    ))

    # acceptance: incremental maintenance is at least 5x the inline path,
    # and every strategy answers every query identically
    assert speedups["incremental_sync"] >= 5.0
    assert answers["incremental_sync"] == answers["inline_full_rebuild"]
    assert answers["async_runtime"] == answers["inline_full_rebuild"]
    # async keeps the query path correct (drain happened) and jobs flowed
    assert job_latency["count"] == TABLES  # one maintain job per ingest, run once
