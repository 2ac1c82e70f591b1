"""Tier-1 smoke tier of the macro-benchmark matrix.

Every named scenario runs at smoke scale (same shapes, same op mix, same
gates — smaller corpus, fewer ops, fewer clients) so the full DLBench
surface is exercised on every test run in well under a minute.  The
scaled runs must pass the exact gates the full-size matrix enforces:
availability, zero unhandled exceptions, discovery answers equal to a
fresh serial reference, SQL oracles, crash-restart visibility,
abusive-tenant shedding, and the compliant p95 under abuse.
"""

import dataclasses
import importlib.util
import json
import pathlib
import sys

import pytest

from repro.bench.macro import (MATRIX, Scenario, ServingMix, get_scenario,
                               run_matrix, run_scenario, scenario_names,
                               smoke_matrix)
from repro.bench.macro.driver import _evaluate_gates
from repro.bench.results import validate_envelope

SMOKE = {scenario.name: scenario for scenario in smoke_matrix()}

#: one smoke report per scenario, computed once and shared by the asserts
_REPORTS = {}


def _report(name):
    if name not in _REPORTS:
        _REPORTS[name] = run_scenario(SMOKE[name])
    return _REPORTS[name]


def test_matrix_names_are_stable_and_cover_the_brief():
    names = scenario_names()
    assert len(names) >= 8
    assert len(set(names)) == len(names)
    # the ROADMAP-gap scenarios the issue calls out by shape
    for required in ("text_heavy", "document_heavy", "serving_abuse",
                     "chaos_faults", "crash_restart"):
        assert required in names


def test_get_scenario_rejects_unknown_names():
    assert get_scenario("baseline_mixed") is MATRIX[0]
    with pytest.raises(KeyError):
        get_scenario("no_such_scenario")


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_scenario_passes_its_gates(name):
    report = _report(name)
    failing = {gate: verdict for gate, verdict in report["gates"].items()
               if not verdict["pass"]}
    assert report["passed"], failing
    assert report["stats"]["unhandled_errors"] == []


def test_text_and_document_scenarios_do_real_discovery():
    for name in ("text_heavy", "document_heavy"):
        stats = _report(name)["stats"]
        answers = (stats["discovery_answers"]
                   + stats["verification"]["non_empty_answers"])
        assert answers > 0, name


def test_serving_abuse_sheds_the_abuser_not_the_compliant():
    report = _report("serving_abuse")
    serving, gates = report["stats"]["serving"], report["gates"]
    # no compliant request shed or failed, with or without the abuser
    for side in ("baseline", "abusive"):
        assert serving["compliant"][side]["ok"] > 0, side
        assert serving["compliant"][side]["shed"] == 0, side
        assert serving["compliant"][side]["failed"] == 0, side
    # the abuser is shed through the typed path, and the counter saw each
    abuser = serving["abuser"]
    assert gates["abuser_shed"]["shed_fraction"] > 0.5
    assert abuser["failed"] == 0
    assert abuser["throttled"] == abuser["shed"]
    # abuse does not spread: median per-round p95 over 10 rounds per side
    assert serving["rounds"] == 10
    assert {side: len(p95) for side, p95 in serving["p95_ms"].items()} == {
        "baseline": 10, "abusive": 10}
    assert gates["compliant_p95_ratio"]["value"] <= 2.0


def test_chaos_scenario_holds_availability_under_faults():
    report = _report("chaos_faults")
    assert report["stats"]["availability"] >= 0.99
    assert report["stats"]["unhandled_errors"] == []
    assert report["gates"]["faults_fired"]["pass"]
    assert "clean_health" not in report["gates"]


def test_crash_restart_keeps_committed_data_visible():
    crash = _report("crash_restart")["stats"]["crash_restart"]
    assert crash["scenarios"] > 0
    assert crash["committed_visible"], crash["failures"]


def test_reports_carry_the_measured_surface():
    report = _report("baseline_mixed")
    stats = report["stats"]
    assert stats["ops"] == SMOKE["baseline_mixed"].ops
    assert stats["latency_ms"]  # per-kind p50/p95 were collected
    for kind, summary in stats["latency_ms"].items():
        assert summary["count"] > 0, kind
        assert summary["p95"] >= summary["p50"] >= 0.0
    assert stats["verification"]["match"]
    assert report["scenario"]["name"] == "baseline_mixed"
    assert report["gates"]["clean_health"]["pass"]


def test_run_matrix_wraps_reports_in_the_shared_envelope():
    doc = run_matrix([SMOKE["baseline_mixed"]])
    assert validate_envelope(doc) == []
    assert set(doc["results"]["scenarios"]) == {"baseline_mixed"}
    assert doc["gates"]["baseline_mixed"]["pass"] is True


def _derived(scenario, injected=None, transitions=0, degraded=0,
             serving=None, crash=None):
    """Gate verdicts for synthetic stats (verification and SQL passing)."""
    stats = {"availability": 1.0, "unhandled_errors": [],
             "verification": {"match": True, "mismatches": [],
                              "non_empty_answers": 0},
             "sql_mismatches": [],
             "faults": {"injected": injected or {},
                        "breaker_transitions": transitions,
                        "degraded_placements": degraded},
             "serving": serving, "crash_restart": crash}
    return {name: gate["pass"]
            for name, gate in _evaluate_gates(scenario, stats).items()}


#: the verdicts every synthetic scenario gets
FIXED = {"availability": True, "unhandled": True, "discovery_match": True,
         "sql_oracle": True}


def _serving(ratio=1.0, compliant_shed=0, abuser_failed=0, abuser_shed=40,
             throttled=None):
    """Synthetic serving-phase stats: 10 rounds per side."""
    return {
        "compliant": {"baseline": {"ok": 50, "shed": 0, "failed": 0},
                      "abusive": {"ok": 50 - compliant_shed,
                                  "shed": compliant_shed, "failed": 0}},
        "p95_ms": {"baseline": [0.2] * 10, "abusive": [0.2 * ratio] * 10},
        "abuser": {"ok": 4, "shed": abuser_shed, "failed": abuser_failed,
                   "throttled": abuser_shed if throttled is None else throttled},
    }


def test_derived_gates_fail_when_they_should():
    clean = Scenario(name="synthetic")
    chaos = dataclasses.replace(clean, fault_rate=0.2)

    assert _derived(clean) == {**FIXED, "clean_health": True}
    for noise in ({"injected": {"table": 1}}, {"transitions": 2},
                  {"degraded": 1}):
        assert _derived(clean, **noise)["clean_health"] is False, noise

    assert _derived(chaos)["faults_fired"] is False
    fired = _derived(chaos, injected={"table": 5}, transitions=3, degraded=1)
    assert fired["faults_fired"] is True and "clean_health" not in fired

    abusive = dataclasses.replace(clean, serving=ServingMix(abusive_tenant=True))
    assert _derived(abusive, serving=_serving()) == {
        **FIXED, "clean_health": True, "compliant_availability": True,
        "abuser_shed": True, "compliant_p95_ratio": True}
    for breach, gate in (({"ratio": 2.5}, "compliant_p95_ratio"),
                         ({"compliant_shed": 1}, "compliant_availability"),
                         ({"abuser_failed": 1}, "abuser_shed"),
                         ({"abuser_shed": 0}, "abuser_shed"),
                         ({"throttled": 39}, "abuser_shed")):
        verdicts = _derived(abusive, serving=_serving(**breach))
        assert verdicts[gate] is False, breach
        assert sum(not verdict for verdict in verdicts.values()) == 1, breach

    compliant_only = dataclasses.replace(clean, serving=ServingMix())
    alone = _serving()
    alone.update(compliant={"baseline": alone["compliant"]["baseline"]},
                 p95_ms={"baseline": alone["p95_ms"]["baseline"]}, abuser=None)
    assert _derived(compliant_only, serving=alone) == {
        **FIXED, "clean_health": True, "compliant_availability": True}

    crashed = dataclasses.replace(clean, crash_restart=True)
    green = {"scenarios": 132, "failures": [], "unreached_points": [],
             "committed_visible": True}
    assert _derived(crashed, crash=green) == {
        **FIXED, "clean_health": True, "committed_visible": True}
    red = {**green, "unreached_points": ["lakehouse.commit.ack"],
           "committed_visible": False}
    verdicts = _derived(crashed, crash=red)
    assert verdicts["committed_visible"] is False
    assert sum(not verdict for verdict in verdicts.values()) == 1
    assert "committed_visible" not in _derived(clean, crash=red)


def test_cli_smoke_scenario_runs_the_tier_one_shape(monkeypatch, capsys):
    root = pathlib.Path(__file__).resolve().parents[2]
    monkeypatch.setattr(sys, "path", list(sys.path))  # the CLI prepends src/
    spec = importlib.util.spec_from_file_location(
        "_macro_bench_cli", root / "tools" / "macro_bench.py")
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)

    assert cli.main(["--smoke", "--scenario", "serving_abuse",
                     "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports["serving_abuse"]["scenario"] == SMOKE["serving_abuse"].to_dict()
