"""[primitives] The safety primitives must stay cheap.

Two primitives sit on hot paths, so their own cost is gated:

- **atomic writes** — the tmp → rename publish protocol (fsync off, the
  implementation's own cost) stays within 2x of a bare ``write_bytes``;
  the fsync'd cost is reported as the hardware's durability price;
- **the circuit breaker** — a fetch through the guarded polystore costs
  less than 1.25x the same fetch with resilience disabled.

Cold-reload recovery time per commit of the lakehouse log is reported,
not gated.  Results land in ``BENCH_primitives.json``.
"""

import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.bench.reporting import render_table, report_experiment
from repro.bench.results import envelope, write_bench_json
from repro.core.dataset import Dataset, Table
from repro.durability.atomic import atomic_write_bytes
from repro.faults import ResilienceConfig
from repro.storage.lakehouse import LakehouseTable
from repro.storage.object_store import ObjectStore
from repro.storage.polystore import Polystore

from conftest import add_report

SEED = 47
ATOMIC_FILES, ATOMIC_PAYLOAD_BYTES, ATOMIC_ROUNDS = 150, 65536, 5
LOG_LENGTHS, ROWS_PER_COMMIT = (5, 25, 100), 20
BREAKER_DATASETS, BREAKER_FETCHES = 50, 2000

MAX_ATOMIC_RATIO = 2.0
MAX_BREAKER_RATIO = 1.25


def measure_atomic_writes():
    """Bare vs atomic (fsync off) vs atomic (fsync on), per-write interleaved.

    Each payload is written by every variant back to back, and the ratio
    is the median of per-round ratios: writeback stalls on a shared disk
    swing latency by orders of magnitude, and interleaving spreads each
    stall across all variants.  ``os.sync`` drains dirty pages before
    each round so no round inherits another's backlog.
    """
    pattern = bytes(range(256))
    payloads = [(pattern[index % 256:] + pattern[:index % 256])
                * (ATOMIC_PAYLOAD_BYTES // 256)
                for index in range(ATOMIC_FILES)]
    variants = (
        ("bare", lambda path, data: path.write_bytes(data)),
        ("atomic", lambda path, data: atomic_write_bytes(path, data,
                                                         fsync=False)),
        ("atomic_fsync", lambda path, data: atomic_write_bytes(path, data,
                                                               fsync=True)),
    )
    totals = {name: [] for name, _ in variants}
    with tempfile.TemporaryDirectory(prefix="bench-atomic-") as tmp:
        for round_index in range(ATOMIC_ROUNDS):
            dirs = {name: Path(tmp) / f"{name}-{round_index}"
                    for name, _ in variants}
            for directory in dirs.values():
                directory.mkdir()
            os.sync()
            elapsed = dict.fromkeys(dirs, 0.0)
            for index, data in enumerate(payloads):
                for name, writer in variants:
                    started = time.perf_counter()
                    writer(dirs[name] / f"file-{index:05d}.bin", data)
                    elapsed[name] += time.perf_counter() - started
            for name in totals:
                totals[name].append(elapsed[name])

    def ratio(name):
        return round(statistics.median(
            a / b for a, b in zip(totals[name], totals["bare"])), 3)

    return {
        "files": ATOMIC_FILES,
        "payload_bytes": ATOMIC_PAYLOAD_BYTES,
        "rounds": ATOMIC_ROUNDS,
        **{f"{name}_ms_per_write": round(
            statistics.median(series) / ATOMIC_FILES * 1000.0, 4)
           for name, series in totals.items()},
        "overhead_ratio": ratio("atomic"),
        "fsync_overhead_ratio": ratio("atomic_fsync"),
    }


def measure_recovery():
    """Cold-reload (journal replay) time as the transaction log grows."""
    out = {}
    for commits in LOG_LENGTHS:
        with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmp:
            root = Path(tmp) / "lake"
            table = LakehouseTable("bench", ObjectStore(root, fsync=False))
            for commit in range(commits):
                table.append([{"id": commit * ROWS_PER_COMMIT + row,
                               "value": row * 3}
                              for row in range(ROWS_PER_COMMIT)])
            started = time.perf_counter()
            reloaded = LakehouseTable("bench", ObjectStore(root, fsync=False))
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            out[str(commits)] = {
                "commits": commits,
                "replayed": reloaded.recovery_report["replayed"],
                "recovery_ms": round(elapsed_ms, 3),
                "recovery_ms_per_commit": round(elapsed_ms / commits, 4),
            }
    return out


def measure_breaker():
    """Per-fetch cost with the breaker guard on vs off, healthy backend."""
    def ms_per_fetch(resilience):
        polystore = Polystore(resilience=resilience)
        names = []
        for index in range(BREAKER_DATASETS):
            name = f"ds_{index:03d}"
            polystore.store(Dataset(name, Table.from_rows(
                name, ["id", "value"],
                [[row, (index * 31 + row) % 97] for row in range(5)]),
                format="table"))
            names.append(name)
        started = time.perf_counter()
        for fetch in range(BREAKER_FETCHES):
            polystore.fetch(names[fetch % BREAKER_DATASETS])
        return (time.perf_counter() - started) * 1000.0 / BREAKER_FETCHES

    raw_ms = ms_per_fetch(ResilienceConfig(enabled=False))
    guarded_ms = ms_per_fetch(None)  # the default config: guard active
    return {
        "raw_ms_per_fetch": round(raw_ms, 6),
        "guarded_ms_per_fetch": round(guarded_ms, 6),
        "overhead_ratio": round(guarded_ms / raw_ms, 4),
    }


def test_bench_primitives():
    atomic = measure_atomic_writes()
    recovery = measure_recovery()
    breaker = measure_breaker()

    rendered = render_table(
        "Primitive costs (ratios against the unguarded baseline)",
        ["primitive", "measured", "gate"],
        [
            ["atomic write (no fsync) vs bare",
             f"x{atomic['overhead_ratio']}", f"<= {MAX_ATOMIC_RATIO}"],
            ["atomic write (fsync) vs bare",
             f"x{atomic['fsync_overhead_ratio']}", "reported"],
            ["breaker-guarded fetch vs raw",
             f"x{breaker['overhead_ratio']}", f"< {MAX_BREAKER_RATIO}"],
        ] + [
            [f"recovery, {entry['commits']} commits",
             f"{entry['recovery_ms_per_commit']} ms/commit", "reported"]
            for entry in recovery.values()
        ],
    )
    rendered += "\n" + report_experiment(
        "primitives",
        "atomic writes <= 2x bare, breaker guard < 1.25x",
        f"atomic x{atomic['overhead_ratio']}, breaker "
        f"x{breaker['overhead_ratio']}",
    )
    add_report("BENCH_primitives", rendered)
    gates = {
        "atomic_write_overhead": {
            "pass": atomic["overhead_ratio"] <= MAX_ATOMIC_RATIO,
            "ratio": atomic["overhead_ratio"], "max": MAX_ATOMIC_RATIO},
        "breaker_overhead": {
            "pass": breaker["overhead_ratio"] < MAX_BREAKER_RATIO,
            "ratio": breaker["overhead_ratio"], "max": MAX_BREAKER_RATIO},
    }
    write_bench_json("primitives", envelope(
        "repro.bench/primitives-v1",
        {"atomic_write": atomic, "recovery": recovery, "breaker": breaker},
        seed=SEED, gates=gates))

    assert atomic["bare_ms_per_write"] > 0
    for key, entry in recovery.items():
        assert entry["replayed"] == entry["commits"] == int(key)
        assert entry["recovery_ms"] > 0
    failing = {name: gate for name, gate in gates.items() if not gate["pass"]}
    assert not failing, failing
