"""[bench-obs-overhead] Instrumentation must be nearly free.

The observability layer claims "negligible overhead", checked on two
paths against the no-op recorder (:func:`repro.obs.disable`):

- ingesting a synthetic lake with a recorder that keeps every span must
  be < 10% slower, where each span covers milliseconds of work;
- a warm cache hit, the cheapest answer the lake gives, where the
  per-call cost of instrumentation is most of the call, must cost less
  than :data:`HIT_RATIO_BOUND` times the no-op recorder's.

Each gate times the two recorders in pairs, and the arm that runs first
alternates from pair to pair; GC is parked during the timed region, and
the gate reads the median of the per-pair ratios.  A slow spell of the
host then slows both runs of a pair instead of one arm's median, and
running first or second favours neither arm, so noise from the rest of
the benchmark session doesn't produce false regressions.
"""

import gc
import statistics
import time
from typing import Callable, Dict, List

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
#: default recorder / no-op recorder on warm-hit batches, median over
#: pairs.  On a 2-CPU host, six sessions read 1.89-2.07 while the cache
#: counted and emitted per lookup and every request was recorded, and
#: five read 1.48-1.51 once the request root decides; the bound sits
#: between.
HIT_RATIO_BOUND = 1.70


def alternating_pairs(pairs: int, run: Callable[[], float]) -> Dict[str, List[float]]:
    """Time *run* *pairs* times under each of the recording and the no-op
    recorder, the arm that runs first alternating from pair to pair;
    returns each arm's timings in pair order.  Every run starts from a
    fresh observability window."""
    timings: Dict[str, List[float]] = {"enabled": [], "disabled": []}
    try:
        for pair in range(pairs):
            order = (("enabled", "disabled") if pair % 2 == 0
                     else ("disabled", "enabled"))
            for arm in order:
                reset()
                if arm == "enabled":
                    enable()
                else:
                    disable()
                timings[arm].append(run())
    finally:
        enable()
    return timings


def median_ratio(timings: Dict[str, List[float]]) -> float:
    """The median over pairs of the recording run's time over the no-op's."""
    return statistics.median(
        on / off for on, off in zip(timings["enabled"], timings["disabled"]))


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
    # the enabled arm keeps every span, so the gate bounds what a recorded
    # span costs (traced runs, a recorder installed with set_recorder)
    default = set_recorder(SpanRecorder(registry=get_registry()))
    try:
        ingest_workload()  # warmup: lazy imports + allocator steady state
        timings = alternating_pairs(REPEATS, ingest_workload)
    finally:
        set_recorder(default)

    median_on = statistics.median(timings["enabled"])
    median_off = statistics.median(timings["disabled"])
    overhead = median_ratio(timings) - 1.0

    add_report("obs_overhead", "\n".join([
        render_table(
            "observability overhead (synthetic ingest)",
            ["recorder", "median_ms", "mean_ms"],
            [
                ["enabled", round(median_on * 1000, 2),
                 round(sum(timings["enabled"]) / REPEATS * 1000, 2)],
                ["no-op", round(median_off * 1000, 2),
                 round(sum(timings["disabled"]) / REPEATS * 1000, 2)],
            ],
        ),
        report_experiment(
            "bench-obs-overhead",
            "instrumentation adds negligible overhead",
            f"span recorder overhead on ingest: {overhead * 100:+.2f}% "
            f"(median of {REPEATS} pairs; limit +10%)",
        ),
    ]))
    assert overhead < 0.10, (
        f"instrumented ingest is {overhead * 100:.1f}% slower than the no-op "
        f"recorder in the median pair (limit 10%): "
        f"enabled={median_on * 1000:.2f}ms disabled={median_off * 1000:.2f}ms"
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
    try:
        for t in range(4):
            lake.ingest_table(f"table_{t}", {
                "key": [f"k{r % 40}" for r in range(60)],
                "label": [f"cat-{(r + t) % 7}" for r in range(60)],
            })
        lake.discover_related("table_0", k=3)  # fills the cache
        hits = lake.query_cache.stats()["hits"]
        timings = alternating_pairs(HIT_PAIRS, lambda: warm_hits(lake))
        assert lake.query_cache.stats()["hits"] == hits + 2 * HIT_PAIRS * HITS
    finally:
        lake.close()

    on_us = statistics.median(timings["enabled"]) / HITS * 1e6
    off_us = statistics.median(timings["disabled"]) / HITS * 1e6
    ratio = median_ratio(timings)
    add_report("obs_hit_overhead", report_experiment(
        "bench-obs-hit-overhead",
        "instrumentation adds negligible overhead",
        f"warm cache hit: default recorder {on_us:.2f} us, no-op recorder "
        f"{off_us:.2f} us, ratio {ratio:.2f} (median of {HIT_PAIRS} pairs; "
        f"limit {HIT_RATIO_BOUND})"))
    assert ratio < HIT_RATIO_BOUND, (
        f"a warm cache hit costs {ratio:.2f}x the no-op recorder's in the "
        f"median pair (limit {HIT_RATIO_BOUND}): default {on_us:.2f} us, "
        f"no-op {off_us:.2f} us")
