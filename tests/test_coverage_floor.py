"""Tier-1 coverage floors for the query cache, obs core, and serving.

Runs the repo's dependency-free coverage task (``tools/coverage_task.py``,
stdlib settrace backend) over the fast unit suites and holds
``repro/exploration/parallel.py`` (the discovery query cache), the
observability core modules (context, events), and the
serving tier (auth, quotas, server) to a line-coverage floor.  The suites measure 95%+ today; the
floor leaves margin so refactors don't flap, while still catching a
dead degradation branch or an untested knob.
"""

import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TARGET = "src/repro/exploration/parallel.py"
OBS_TARGETS = (
    "src/repro/obs/context.py",
    "src/repro/obs/events.py",
)
OBS_TESTS = (
    "tests/test_deadline_enforcement.py",
    "tests/test_obs_context.py",
    "tests/test_obs_events.py",
)
SERVING_TARGETS = (
    "src/repro/serving/auth.py",
    "src/repro/serving/quotas.py",
    "src/repro/serving/server.py",
)
SERVING_TESTS = (
    "tests/serving/test_auth.py",
    "tests/serving/test_quotas.py",
    "tests/serving/test_server.py",
)
FLOOR = 0.90


@pytest.fixture(scope="module")
def coverage_report():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "coverage_task.py"),
         "--json", "--force-settrace",
         "--targets", TARGET,
         "--tests", "tests/exploration/test_query_cache.py"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (
        f"coverage task failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout)


def test_parallel_module_meets_floor(coverage_report):
    entry = coverage_report["targets"][TARGET]
    assert entry["executable"] > 100, "tracer saw an implausibly small module"
    assert entry["coverage"] >= FLOOR, (
        f"coverage {entry['coverage']:.1%} fell below the {FLOOR:.0%} floor; "
        f"missing lines: {entry['missing']}")


@pytest.fixture(scope="module")
def obs_coverage_report():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "coverage_task.py"),
         "--json", "--force-settrace",
         "--targets", ",".join(OBS_TARGETS),
         "--tests", ",".join(OBS_TESTS)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (
        f"coverage task failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout)


@pytest.mark.parametrize("target", OBS_TARGETS)
def test_obs_modules_meet_floor(obs_coverage_report, target):
    entry = obs_coverage_report["targets"][target]
    assert entry["executable"] > 50, "tracer saw an implausibly small module"
    assert entry["coverage"] >= FLOOR, (
        f"{target} coverage {entry['coverage']:.1%} fell below the "
        f"{FLOOR:.0%} floor; missing lines: {entry['missing']}")


@pytest.fixture(scope="module")
def serving_coverage_report():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "coverage_task.py"),
         "--json", "--force-settrace",
         "--targets", ",".join(SERVING_TARGETS),
         "--tests", ",".join(SERVING_TESTS)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (
        f"coverage task failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout)


@pytest.mark.parametrize("target", SERVING_TARGETS)
def test_serving_modules_meet_floor(serving_coverage_report, target):
    entry = serving_coverage_report["targets"][target]
    assert entry["executable"] > 50, "tracer saw an implausibly small module"
    assert entry["coverage"] >= FLOOR, (
        f"{target} coverage {entry['coverage']:.1%} fell below the "
        f"{FLOOR:.0%} floor; missing lines: {entry['missing']}")


def test_report_shape_is_stable(coverage_report):
    assert coverage_report["backend"] in ("settrace", "pytest-cov")
    total = coverage_report["total"]
    assert total["covered"] <= total["executable"]
    assert 0.0 <= total["coverage"] <= 1.0
