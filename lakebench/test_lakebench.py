"""Tests of the lakebench harness: ``python -m pytest lakebench -q``.

They sit outside tier 1's ``testpaths`` and run every workload at
``--scale 0.05``, untraced and traced.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import hostspeed  # noqa: E402
import lakebench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.obs import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = 0.05


def _schedule(inputs):
    return [(op.kind, op.client, repr(sorted(op.args.items()))) for op in inputs.ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = workloads.generate(workload, 5, 10, SMALL)
    again = workloads.generate(workload, 5, 10, SMALL)
    other = workloads.generate(workload, 6, 10, SMALL)
    assert _schedule(first) == _schedule(again)
    assert first.fingerprint() == again.fingerprint()
    assert first.fingerprint() != other.fingerprint()
    assert _schedule(first) != _schedule(other)


def _span(name, start, end, parent=None, tier=None, **tags):
    span = Span(name, tier=tier, tags=tags)
    span.start, span.duration_ms = start, (end - start) * 1000.0
    if parent is not None:
        parent.children.append(span)
    return span


def _self_s(nodes):
    return {node.span.name: pytest.approx(node.self_s) for node in nodes}


def test_self_time_subtracts_nested_children():
    op = _span("op.related", 0.0, 10.0, tier="bench", op=0)
    query = _span("exploration.lake.discover_related", 1.0, 9.0, op)
    _span("maintenance.runtime.refresh", 2.0, 5.0, query)
    related = _span("exploration.aurum.related_tables", 6.0, 8.0, query)
    _span("maintenance.aurum.build", 6.5, 7.0, related)
    nodes = tracing.flatten([op])[0]
    assert _self_s(nodes) == {
        "op.related": 2.0, "exploration.lake.discover_related": 3.0,
        "maintenance.runtime.refresh": 3.0, "exploration.aurum.related_tables": 1.5,
        "maintenance.aurum.build": 0.5}
    assert [node.layer for node in nodes] == [
        "bench", "core.lake", "runtime", "discovery.aurum", "discovery.aurum"]
    assert nodes[2].ancestors == ("op.related", "DataLake.discover_related")


def test_self_time_adopts_the_worker_root_of_a_served_request():
    op = _span("op.sql", 0.0, 10.0, tier="bench", op=7)
    serve = _span("LakeServer.serve", 0.5, 9.5, op, tier="serving",
                  worker_request="req-1")
    _span("AdmissionController.admit", 0.6, 1.0, serve, tier="serving")
    # the worker's root for this request, and one for a request of set-up
    worker = _span("serving.request", 2.0, 8.0, tier="serving")
    worker.request_id = "req-1"
    _span("exploration.lake.sql", 2.5, 7.5, worker)
    other = _span("serving.request", 3.0, 4.0, tier="serving")
    other.request_id = "req-2"
    ops = tracing.flatten([op, worker, other])
    assert _self_s(ops[7]) == {
        "op.sql": 1.0, "LakeServer.serve": 9.0 - 0.4 - 6.0,
        "AdmissionController.admit": 0.4, "serving.request": 1.0,
        "exploration.lake.sql": 5.0}
    assert [node.span for node in ops[None]] == [other]


def test_covered_merges_overlapping_children():
    parent = _span("p", 0.0, 10.0)
    children = [_span("c", start, end) for start, end in ((1.0, 4.0), (3.0, 6.0),
                                                          (8.0, 12.0))]
    assert tracing.covered(parent, children) == pytest.approx(7.0)


def test_installed_spans_nest_under_program_spans_and_are_restored():
    from repro.core.lake import DataLake
    from repro.obs import get_recorder

    originals = {(module, cls, method): getattr(
        getattr(__import__(module, fromlist=[cls]), cls), method)
        for module, cls, method, _, _ in tracing.WRAPPED}
    live = get_recorder()
    with tracing.installed(), tracing.recording() as recorder:
        lake = DataLake()
        try:
            lake.ingest_table("sales", {"region": ["EU", "US"], "amount": [10, 20]})
            assert len(lake.sql("SELECT * FROM sales WHERE amount >= 15")) == 1
        finally:
            lake.close()
    nodes = [node for op_nodes in tracing.flatten(recorder.roots()).values()
             for node in op_nodes]
    execute = [node for node in nodes if node.method == "SqlEngine.execute"]
    assert len(execute) == 1 and execute[0].span.counters["value"] == 1.0
    assert "DataLake.sql" in execute[0].ancestors
    assert get_recorder() is live
    for (module, cls, method), original in originals.items():
        assert getattr(getattr(__import__(module, fromlist=[cls]), cls),
                       method) is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_workload_passes_its_checks_at_small_scale(workload, trace):
    report = lakebench.run_workload(workload, 4, 10, SMALL, trace)
    assert report.correct, report.failures
    assert report.failed == 0 and report.attempted > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(report.metrics) == {metric["name"] for metric in wanted}
    for metric in wanted:
        assert report.metrics[metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(report.metrics[name]["value"] > 0 for name in report.metrics)


def test_benchmark_json_matches_the_harness():
    assert SPEC["run_seconds"] == lakebench.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_lint_bench_determinism_finds_nothing():
    from repro.analysis.rules.determinism import BenchDeterminismRule
    from repro.analysis.walker import parse_module

    rule = BenchDeterminismRule(scope=("/lakebench/",))
    findings = []
    for path in sorted(BENCH.glob("*.py")):
        module = parse_module(path, path.relative_to(ROOT).as_posix())
        assert rule.in_scope(module.rel)
        findings.extend(rule.check_module(module))
    assert findings == []


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "lakebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "lakebench/lakebench.py", "--workload", "read_mostly",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7]
    faster = [value * 0.8 for value in parent]
    slower = [value * 1.3 for value in parent]
    noisy = [60.0, 150.0, 90.0, 130.0, 70.0, 140.0, 80.0, 120.0, 100.0, 110.0]
    assert compare.verdict(parent, faster, 0.1, False)[0] == "improved"
    assert compare.verdict(parent, slower, 0.1, False)[0] == "regressed"
    assert compare.verdict(parent, noisy, 0.1, False)[0] == "unresolved"
    assert compare.verdict(parent, list(parent), 0.1, False)[0] == "unchanged"
    assert compare.verdict([0.0] * 3, [0.0, 0.01, 0.0], 0.0, False)[0] == "regressed"


def _saved(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return compare.parse(path)


def test_compare_reads_saved_output(tmp_path):
    run = _saved(tmp_path, "run.txt", [
        "read_mostly sizes {\"ops\": 3}",
        "read_mostly discover_p50_ms 0.05 ms (n=100)",
        "read_mostly check.oracles ok",
        '{"correct": true}'])
    assert run == {("read_mostly", "discover_p50_ms"): 0.05}
    out = io.StringIO()
    assert compare.compare([run], [run], out) == 0
    assert "unchanged" in out.getvalue()


def test_compare_gives_no_verdict_without_a_bound(tmp_path):
    parent = _saved(tmp_path, "parent.txt", ["ingest_churn fresh_p50_ms 10.0 ms (n=9)",
                                             "ingest_churn error_rate 0.0 ratio (n=9)"])
    change = _saved(tmp_path, "change.txt", ["ingest_churn fresh_p50_ms 99.0 ms (n=9)",
                                             "ingest_churn error_rate 0.1 ratio (n=9)"])
    out = io.StringIO()
    assert compare.compare([parent], [change], out) == 1
    verdicts, no_verdict = out.getvalue().split("(no verdict)")
    assert "error_rate" in verdicts and "regressed" in verdicts
    assert "fresh_p50_ms" in no_verdict and "fresh_p50_ms" not in verdicts


def test_host_speed_divides_each_slice_by_its_probes():
    speed = hostspeed.HostSpeed()
    assert speed.tick() == 0
    speed.finish()
    assert len(speed.walls) >= 1 and len(speed.probes) == len(speed.walls) + 1
    reference = hostspeed.REFERENCE_PROBE_S
    speed.probes = [reference, reference, 3 * reference]
    speed.walls = [1.0, 2.0]
    assert [speed.factor(0), speed.factor(1)] == pytest.approx([1.0, 2.0])
    assert speed.normalized(0.5, 1) == pytest.approx(0.25)
    assert speed.elapsed_s() == pytest.approx(1.0 + 1.0)
    assert speed.median_factor() == pytest.approx(2.0)
