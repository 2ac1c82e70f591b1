"""Benchmark-harness glue.

Benchmarks regenerate the survey's tables/figures and validate its
comparative claims.  Rendered artifacts are collected here and printed in
the terminal summary (so they appear even though pytest captures stdout),
and written to ``benchmarks/results/`` for inspection.

``repro.analysis`` rides along: the session end runs the lakelint engine
over ``src``/``benchmarks``/``tools`` and writes its JSON report as
``BENCH_lint.json`` next to the other ``BENCH_*`` artifacts, so every
benchmark run records static-analysis health alongside perf.
"""

import pathlib

from repro.bench.results import envelope, write_bench_json, write_result_text

_REPORTS = []
_REPO_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_LINT_PATH = _REPO_ROOT / "BENCH_lint.json"
_LINT_PATHS = ("src", "benchmarks", "tools")
_LINT_SUMMARY = []


def add_report(name: str, text: str) -> None:
    """Register a rendered artifact for the terminal summary + results dir."""
    _REPORTS.append((name, text))
    write_result_text(name, text, results_dir=_RESULTS_DIR)


def _write_lint_artifact():
    """Run lakelint over the default trees and persist the JSON report.

    The report also carries ``lock_graph``: the whole-program lock-order
    graph's size, cycle count and wall time, so every bench session
    records concurrency-analysis health next to lint and perf.
    """
    try:
        from repro.analysis import LintEngine, default_rules

        result = LintEngine(default_rules()).run(
            [_REPO_ROOT / p for p in _LINT_PATHS], root=_REPO_ROOT)
    except Exception as exc:
        print(f"lakelint artifact skipped: {exc}")
        return
    payload = result.to_dict()
    lock_note = ""
    try:
        from repro.analysis.project import analyze_repo_locks

        _analysis, lock_stats = analyze_repo_locks(_REPO_ROOT, paths=("src",))
        payload["lock_graph"] = lock_stats
        lock_note = (f"; lock graph: {lock_stats['locks']} locks, "
                     f"{lock_stats['edges']} edges, "
                     f"{lock_stats['cycles']} cycles")
    except Exception as exc:
        print(f"lock-graph stats skipped: {exc}")
    write_bench_json("lint", envelope(
        "repro.analysis/lint-v1", payload,
        gates={"clean": {"pass": result.clean,
                         "findings": len(result.findings)}}))
    state = "clean" if result.clean else f"{len(result.findings)} finding(s)"
    _LINT_SUMMARY.append(
        f"wrote {_LINT_PATH.name}: {state} across {result.files_scanned} "
        f"files, {len(result.rules)} rules" + lock_note)


def pytest_sessionfinish(session, exitstatus):
    _write_lint_artifact()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINT_SUMMARY:
        terminalreporter.section("lakelint")
        for line in _LINT_SUMMARY:
            terminalreporter.write_line(line)
    if not _REPORTS:
        return
    terminalreporter.section("reproduced paper artifacts")
    for name, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)
