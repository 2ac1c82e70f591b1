"""[bench-obs-overhead] Instrumentation must be nearly free.

The observability layer claims "negligible overhead", checked on two
paths against the no-op recorder (:func:`repro.obs.disable`):

- ingesting a synthetic lake with a recorder that keeps every span must
  be < 10% slower, where each span covers milliseconds of work;
- a warm cache hit, the cheapest answer the lake gives, where the
  per-call cost of instrumentation is most of the call, must cost less
  than :data:`HIT_RATIO_BOUND` times the no-op recorder's.

Modes are interleaved, GC is parked during the timed region, and the
medians of several repeats are compared, so scheduler/allocator noise
from the rest of the benchmark session doesn't produce false
regressions.
"""

import gc
import statistics
import time

from repro import DataLake
from repro.bench.reporting import render_table, report_experiment
from repro.obs import (SpanRecorder, disable, enable, get_registry, reset,
                       set_recorder)

from conftest import add_report

NUM_TABLES = 16
NUM_ROWS = 800
REPEATS = 7

HIT_PAIRS = 9
HITS = 20_000
#: default recorder / no-op recorder, medians of warm-hit batches.  On a
#: 2-CPU host, six sessions read 1.89-2.07 while the cache counted and
#: emitted per lookup and every request was recorded, and five read
#: 1.48-1.51 once the request root decides; the bound sits between.
HIT_RATIO_BOUND = 1.70


def ingest_workload() -> float:
    """Build one synthetic lake; returns elapsed seconds."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        lake = DataLake.in_memory()
        for t in range(NUM_TABLES):
            lake.ingest_table(f"table_{t}", {
                "id": [f"{t}-{r}" for r in range(NUM_ROWS)],
                "key": [f"k{r % 40}" for r in range(NUM_ROWS)],
                "value": [float(r * t % 97) for r in range(NUM_ROWS)],
                "label": [f"cat-{r % 7}" for r in range(NUM_ROWS)],
            }, source=f"gen-{t}")
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_obs_overhead_under_ten_percent():
    timings = {"enabled": [], "disabled": []}
    # the enabled arm keeps every span, so the gate bounds what a recorded
    # span costs (traced runs, a recorder installed with set_recorder)
    default = set_recorder(SpanRecorder(registry=get_registry()))
    try:
        ingest_workload()  # warmup: lazy imports + allocator steady state
        for _ in range(REPEATS):
            enable()
            reset()
            timings["enabled"].append(ingest_workload())
            disable()
            timings["disabled"].append(ingest_workload())
    finally:
        set_recorder(default)

    best_on = statistics.median(timings["enabled"])
    best_off = statistics.median(timings["disabled"])
    overhead = best_on / best_off - 1.0

    add_report("obs_overhead", "\n".join([
        render_table(
            "observability overhead (synthetic ingest)",
            ["recorder", "best_ms", "mean_ms"],
            [
                ["enabled", round(best_on * 1000, 2),
                 round(sum(timings["enabled"]) / REPEATS * 1000, 2)],
                ["no-op", round(best_off * 1000, 2),
                 round(sum(timings["disabled"]) / REPEATS * 1000, 2)],
            ],
        ),
        report_experiment(
            "bench-obs-overhead",
            "instrumentation adds negligible overhead",
            f"span recorder overhead on ingest: {overhead * 100:+.2f}% (limit +10%)",
        ),
    ]))
    assert overhead < 0.10, (
        f"instrumented ingest is {overhead * 100:.1f}% slower than the no-op "
        f"recorder (limit 10%): enabled={best_on * 1000:.2f}ms "
        f"disabled={best_off * 1000:.2f}ms"
    )


def warm_hits(lake: DataLake) -> float:
    """Time HITS warm ``discover_related`` cache hits; returns seconds."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(HITS):
            lake.discover_related("table_0", k=3)
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_warm_cache_hit_overhead():
    lake = DataLake.in_memory()
    timings = {"enabled": [], "disabled": []}
    try:
        for t in range(4):
            lake.ingest_table(f"table_{t}", {
                "key": [f"k{r % 40}" for r in range(60)],
                "label": [f"cat-{(r + t) % 7}" for r in range(60)],
            })
        lake.discover_related("table_0", k=3)  # fills the cache
        hits = lake.query_cache.stats()["hits"]
        for _ in range(HIT_PAIRS):
            enable()
            reset()
            timings["enabled"].append(warm_hits(lake))
            disable()
            timings["disabled"].append(warm_hits(lake))
        assert lake.query_cache.stats()["hits"] == hits + 2 * HIT_PAIRS * HITS
    finally:
        enable()
        lake.close()

    on_us = statistics.median(timings["enabled"]) / HITS * 1e6
    off_us = statistics.median(timings["disabled"]) / HITS * 1e6
    ratio = on_us / off_us
    add_report("obs_hit_overhead", report_experiment(
        "bench-obs-hit-overhead",
        "instrumentation adds negligible overhead",
        f"warm cache hit: default recorder {on_us:.2f} us, no-op recorder "
        f"{off_us:.2f} us, ratio {ratio:.2f} (limit {HIT_RATIO_BOUND})"))
    assert ratio < HIT_RATIO_BOUND, (
        f"a warm cache hit costs {ratio:.2f}x the no-op recorder's "
        f"(limit {HIT_RATIO_BOUND}): default {on_us:.2f} us, no-op {off_us:.2f} us")
