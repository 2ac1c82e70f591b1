"""coverage task: line coverage for targeted modules, no external deps.

Run from the repository root::

    python repro_build.py coverage                  # default targets + tests
    python tools/coverage_task.py --json            # machine-readable report
    python tools/coverage_task.py --floor 0.85      # exit 1 below the floor
    python tools/coverage_task.py \\
        --targets src/repro/exploration/parallel.py --tests tests/exploration

When ``pytest-cov`` is installed the task delegates to it.  This
container (and CI parity with it) has no coverage tooling, so the
default backend is a stdlib tracer: ``sys.settrace`` +
``threading.settrace`` record executed lines while the selected tests
run in-process, and the executable-line universe comes from the
compiled code objects themselves (``co_lines()`` over every nested
code object) — so the denominator is exactly the set of lines the
tracer could ever report.

Exit codes: 0 = measured (and floor met, if given), 1 = floor missed
or tests failed, 2 = usage error.
"""

import argparse
import contextlib
import json
import pathlib
import sys
import threading

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

DEFAULT_TARGETS = (
    "src/repro/exploration/parallel.py",
    "src/repro/obs/context.py",
    "src/repro/obs/events.py",
    "src/repro/serving/auth.py",
    "src/repro/serving/quotas.py",
    "src/repro/serving/server.py",
)
DEFAULT_TESTS = (
    "tests/exploration/test_query_cache.py",
    "tests/test_deadline_enforcement.py",
    "tests/exploration/test_parallel_equivalence.py",
    "tests/test_obs_context.py",
    "tests/test_obs_events.py",
    "tests/serving/test_auth.py",
    "tests/serving/test_quotas.py",
    "tests/serving/test_server.py",
)


def executable_lines(path):
    """Line numbers that can appear in a trace: the code-object line table."""
    source = path.read_text()
    lines = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line > 0)
        pending.extend(const for const in code.co_consts
                       if hasattr(const, "co_lines"))
    return lines


def _run_tests_traced(test_paths, target_files, covered):
    """Run pytest in-process with a line tracer scoped to the targets."""
    import pytest

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in target_files:
            return None  # never pay per-line cost outside the targets
        if event == "line":
            covered[filename].add(frame.f_lineno)
        return tracer

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        exit_code = pytest.main(["-q", "-p", "no:cacheprovider",
                                 *test_paths])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(exit_code)


def measure(targets, tests):
    """Measure line coverage of *targets* while running *tests*.

    Returns ``(report, tests_exit_code)``; the report maps each target's
    repo-relative path to executable/covered/missing/coverage, plus a
    ``total`` rollup and the backend that produced it.
    """
    resolved = {}
    for target in targets:
        path = (REPO_ROOT / target).resolve()
        if not path.is_file():
            raise FileNotFoundError(f"coverage target not found: {target}")
        resolved[str(path)] = path

    covered = {name: set() for name in resolved}
    exit_code = _run_tests_traced(
        [str(REPO_ROOT / t) for t in tests], set(resolved), covered)

    report = {"backend": "settrace", "tests": list(tests), "targets": {}}
    total_exec = total_hit = 0
    for name, path in sorted(resolved.items()):
        universe = executable_lines(path)
        hit = covered[name] & universe
        missing = sorted(universe - hit)
        rel = str(path.relative_to(REPO_ROOT))
        report["targets"][rel] = {
            "executable": len(universe),
            "covered": len(hit),
            "coverage": round(len(hit) / len(universe), 4) if universe else 1.0,
            "missing": missing,
        }
        total_exec += len(universe)
        total_hit += len(hit)
    report["total"] = {
        "executable": total_exec,
        "covered": total_hit,
        "coverage": round(total_hit / total_exec, 4) if total_exec else 1.0,
    }
    return report, exit_code


def _pytest_cov_available():
    try:
        import pytest_cov  # noqa: F401
        return True
    except ImportError:
        return False


def _delegate_to_pytest_cov(targets, tests):
    """Prefer the real tool when the environment has it."""
    import pytest

    cov_args = []
    for target in targets:
        module = (str(pathlib.Path(target).with_suffix(""))
                  .replace("src/", "", 1).replace("/", "."))
        cov_args.append(f"--cov={module}")
    return int(pytest.main(["-q", *cov_args, "--cov-report=term-missing",
                            *[str(REPO_ROOT / t) for t in tests]]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--targets", default=",".join(DEFAULT_TARGETS),
                        help="comma-separated repo-relative source files")
    parser.add_argument("--tests", default=",".join(DEFAULT_TESTS),
                        help="comma-separated test paths to run")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout")
    parser.add_argument("--floor", type=float, default=None,
                        help="fail (exit 1) if total coverage is below this")
    parser.add_argument("--force-settrace", action="store_true",
                        help="use the stdlib backend even if pytest-cov exists")
    args = parser.parse_args(argv)

    targets = [t.strip() for t in args.targets.split(",") if t.strip()]
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    if not targets or not tests:
        parser.error("--targets and --tests must be non-empty")

    if _pytest_cov_available() and not args.force_settrace and not args.json:
        return _delegate_to_pytest_cov(targets, tests)

    try:
        if args.json:
            # keep stdout pure JSON: the traced pytest run talks to stderr
            with contextlib.redirect_stdout(sys.stderr):
                report, tests_exit = measure(targets, tests)
        else:
            report, tests_exit = measure(targets, tests)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for rel, entry in report["targets"].items():
            print(f"{rel}: {entry['covered']}/{entry['executable']} lines "
                  f"({entry['coverage']:.1%})")
        total = report["total"]
        print(f"TOTAL: {total['covered']}/{total['executable']} "
              f"({total['coverage']:.1%})")

    if tests_exit != 0:
        print("error: test run failed under the tracer", file=sys.stderr)
        return 1
    if args.floor is not None and report["total"]["coverage"] < args.floor:
        print(f"error: coverage {report['total']['coverage']:.1%} below "
              f"floor {args.floor:.1%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
