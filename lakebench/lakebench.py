"""lakebench: the repository benchmark — four seeded closed-loop workloads.

Run every workload, each in a fresh interpreter, one after another::

    python3 lakebench/lakebench.py [--seed N] [--seconds S] [--trace 0|1]

or one workload in this process::

    python3 lakebench/lakebench.py --workload read_mostly --seed 3 --trace 0

Each run prints ``workload metric value unit`` lines (percentiles with
their sample count), then its checks, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once traced and reports the per-layer metrics, writing the
spans to ``lakebench/out/``.  The exit code is nonzero when a check
fails.  See ``lakebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
WORKLOAD_TIMEOUT_S = 600


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; the median is interpolated."""
    if not values:
        return 0.0
    if fraction == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class Report:
    """Metric lines, check results and the closing JSON of one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.lines: List[str] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str,
               samples: Optional[int] = None, reported: bool = True) -> None:
        suffix = f" (n={samples})" if samples is not None else ""
        self.lines.append(f"{self.workload} {name} {value!r} {unit}{suffix}")
        if reported:
            self.metrics[name] = {"value": value, "unit": unit}

    def info(self, name: str, text: str) -> None:
        self.lines.append(f"{self.workload} {name} {text}")

    def check(self, name: str, problems: Sequence[str]) -> None:
        self.info(f"check.{name}", "ok" if not problems else "FAILED")
        for problem in problems[:5]:
            self.lines.append(f"  {problem}")
        self.failures.extend(f"{name}: {problem}" for problem in problems)

    @property
    def correct(self) -> bool:
        return not self.failures

    def emit(self) -> None:
        for line in self.lines:
            print(line)
        print(json.dumps({"correct": self.correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": self.metrics}))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_log(report: Report, log: Any, prefix: str = "") -> None:
    report.check(prefix + "oracles", log.mismatches)
    report.check(prefix + "errors", log.errors)


def _check_recorded(report: Report, inputs: Any, digest: str, seed: int,
                    seconds: float, scale: float) -> None:
    """At the recorded seed, length and scale, inputs and answers are fixed."""
    with open(EXPECTED, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if (seed, seconds, scale) != (recorded["seed"], recorded["seconds"],
                                  recorded["scale"]):
        return
    expected = recorded["workloads"].get(report.workload, {})
    problems = []
    for name, got in (("fingerprint", inputs.fingerprint()), ("digest", digest)):
        if expected.get(name) != got:
            problems.append(f"{name} {got} != recorded {expected.get(name)}")
    report.check("recorded", problems)


def _end_to_end(report: Report, log: Any, setup_s: List[float],
                ingest_ms: List[float]) -> None:
    import workloads

    latency = log.latency_ms
    discover = [value for kind in workloads.DISCOVER_KINDS
                for value in latency.get(kind, [])]
    sql = latency.get("sql", [])
    fetch = latency.get("fetch", [])
    report.metric("setup_s", percentile(setup_s, 0.5), "s", len(setup_s))
    report.metric("throughput_ops_s",
                  log.attempted / log.elapsed_s if log.elapsed_s else 0.0, "1/s",
                  log.attempted)
    report.metric("discover_p50_ms", percentile(discover, 0.5), "ms", len(discover))
    report.metric("discover_p90_ms", percentile(discover, 0.9), "ms", len(discover))
    report.metric("sql_p50_ms", percentile(sql, 0.5), "ms", len(sql))
    report.metric("fetch_p50_ms", percentile(fetch, 0.5), "ms", len(fetch))
    report.metric("peak_rss_mb", _peak_rss_mb(), "MB")
    # workload-specific metrics: printed, and shown by compare.py without a
    # verdict, since BENCHMARK.json fixes no bound for them
    report.metric("bulk_ingest_p50_ms", percentile(ingest_ms, 0.5), "ms",
                  len(ingest_ms), reported=False)
    kinds = [kind for kind in workloads.DISCOVER_KINDS if latency.get(kind)]
    for kind in kinds if len(kinds) > 1 else ():  # one kind: discover_p50_ms
        report.metric(f"{kind}_p50_ms", percentile(latency[kind], 0.5), "ms",
                      len(latency[kind]), reported=False)
    for name, values in (("write", latency.get("write", [])),
                         ("fresh", log.fresh_ms)):
        if values:
            report.metric(f"{name}_p50_ms", percentile(values, 0.5), "ms",
                          len(values), reported=False)
            report.metric(f"{name}_p90_ms", percentile(values, 0.9), "ms",
                          len(values), reported=False)
    report.metric("error_rate", log.failed / max(log.attempted, 1), "ratio",
                  log.attempted, reported=False)


def _untraced(report: Report, inputs: Any) -> str:
    import workloads

    setup_s: List[float] = []
    ingest_ms: List[float] = []
    state = None
    for _ in range(workloads.setups(inputs.workload)):
        if state is not None:
            state.close()
            state = None
        gc.collect()
        state, seconds = workloads.setup(inputs, ingest_ms)
        setup_s.append(seconds)
    try:
        log = workloads.measure(state, inputs)
    finally:
        state.close()
    report.attempted, report.failed = log.attempted, log.failed
    _end_to_end(report, log, setup_s, ingest_ms)
    if log.host_factors:
        report.metric("host_factor", statistics.median(log.host_factors), "ratio",
                      reported=False)
    _check_log(report, log)
    return log.digest()


def _traced(report: Report, inputs: Any) -> str:
    import tracing
    import workloads

    state, _ = workloads.setup(inputs, [])
    try:
        plain = workloads.measure(state, inputs)
    finally:
        state.close()
    gc.collect()
    with tracing.installed():
        with tracing.recording() as prepared:
            state, _ = workloads.setup(inputs, [])
        try:
            with tracing.recording() as recorder:
                log = workloads.measure(state, inputs, traced=True)
        finally:
            state.close()
    report.attempted, report.failed = log.attempted, log.failed
    setup = tracing.flatten(prepared.roots())
    measured = tracing.flatten(recorder.roots())
    columns = sum(len(op.args["dataset"].as_table().columns)
                  for op in inputs.ops if op.kind == "write"
                  and op.args["dataset"].format in ("table", "json"))
    unions = sum(1 for op in inputs.ops if op.kind == "union")
    overhead = log.elapsed_s / plain.elapsed_s - 1.0
    for name, (value, unit) in tracing.per_layer(setup, measured, columns, unions,
                                                 overhead).items():
        report.metric(name, value, unit)
    for kinds in (("related", "joinable", "keyword", "union"), ("sql", "fetch"),
                  ("write", "related")):
        label = "+".join(kinds)
        for layer, share in tracing.layer_shares(measured, kinds).items():
            report.metric(f"share.{label}.{layer}", share, "ratio", reported=False)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{report.workload}.jsonl"
    tracing.write_trace({"setup": setup, "measure": measured}, path)
    spans = sum(len(nodes) for phase in (setup, measured) for nodes in phase.values())
    report.info("trace_file", f"{path.relative_to(ROOT)} ({spans} spans)")
    _check_log(report, plain, "untraced.")
    _check_log(report, log, "traced.")
    report.check("traced_digest", [] if log.digest() == plain.digest() else [
        f"traced {log.digest()} != untraced {plain.digest()}"])
    return log.digest()


def run_workload(workload: str, seed: int, seconds: float, scale: float,
                 trace: bool) -> Report:
    """Generate, set up, measure and check one workload in this process."""
    import workloads

    report = Report(workload)
    inputs = workloads.generate(workload, seed, seconds, scale)
    report.info("sizes", json.dumps(inputs.sizes, sort_keys=True))
    report.info("repeat_share", f"{inputs.repeat_share():.4f}")
    report.info("fingerprint", inputs.fingerprint())
    digest = _traced(report, inputs) if trace else _untraced(report, inputs)
    report.info("digest", digest)
    _check_recorded(report, inputs, digest, seed, seconds, scale)
    return report


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, one after another."""
    import workloads

    failed: List[str] = []
    for workload in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--scale", str(args.scale),
                   "--trace", str(args.trace)]
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=WORKLOAD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"{workload} ran past {WORKLOAD_TIMEOUT_S}s and was stopped")
            failed.append(workload)
            continue
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            result = {}
        for line in lines[:-1] if result else lines:
            print(line)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not result.get("correct"):
            failed.append(workload)
    print("lakebench " + ("all checks passed" if not failed
                          else "checks FAILED: " + " ".join(failed)))
    return 1 if failed else 0


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="nominal length of the measured phase")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies corpus sizes and op counts (tests)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: report the per-layer metrics")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"lakebench: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.workload is None:
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"lakebench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for every thread of the run, so that the host-speed probe
        # times the CPU the lake's work runs on (the two CPUs of a shared VM
        # slow down independently)
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    report = run_workload(args.workload, args.seed, args.seconds, args.scale,
                          bool(args.trace))
    report.emit()
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
