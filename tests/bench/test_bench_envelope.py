"""Cross-benchmark schema gate: every BENCH_*.json shares one envelope.

The committed artifacts are the repo's regression trajectory; this
tier-1 test loads each one and validates the shared envelope —
``schema`` id, ``seed``, a well-formed ``gates`` block, ``results``,
and no wall-clock-derived keys anywhere — so a benchmark that drifts
from the shape (or starts embedding timestamps into committed files)
fails the suite rather than silently forking the format.
"""

import json

from repro.bench.results import (REPO_ROOT, gates_passed, validate_envelope)

#: exactly the artifacts the benchmark session regenerates: a committed
#: BENCH_*.json that nothing writes any more is stale and fails here
EXPECTED_ARTIFACTS = {
    "BENCH_lint.json",
    "BENCH_macro.json",
    "BENCH_primitives.json",
    "BENCH_runtime.json",
}


def _artifacts():
    return sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_all_expected_artifacts_exist():
    names = {path.name for path in _artifacts()}
    assert names == EXPECTED_ARTIFACTS, {
        "missing": sorted(EXPECTED_ARTIFACTS - names),
        "unexpected": sorted(names - EXPECTED_ARTIFACTS)}


def test_every_bench_artifact_shares_the_envelope():
    problems = {}
    for path in _artifacts():
        doc = json.loads(path.read_text())
        issues = validate_envelope(doc)
        if issues:
            problems[path.name] = issues
    assert problems == {}, problems


def test_every_committed_gate_is_green():
    failing = {}
    for path in _artifacts():
        doc = json.loads(path.read_text())
        if not gates_passed(doc):
            failing[path.name] = sorted(doc.get("gates", {}))
    assert failing == {}, failing


def test_macro_artifact_is_the_canonical_trajectory():
    doc = json.loads((REPO_ROOT / "BENCH_macro.json").read_text())
    assert doc["schema"] == "repro.bench/macro-v1"
    scenarios = doc["results"]["scenarios"]
    assert len(scenarios) >= 8
    for name, report in scenarios.items():
        assert report["gates"], name
        assert report["passed"] is True, name
        assert name in doc["gates"]
