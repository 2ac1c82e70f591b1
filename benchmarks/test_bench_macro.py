"""[macro] The DLBench-style macro-benchmark: the full scenario matrix.

One mixed workload per scenario — structured table pools, evolving JSON
collections, raw logs with DATAMARAN-extracted record tables, and
free-text topic documents, all generated by ``repro.datagen`` — driven
by concurrent clients over a weighted ingest / discover / SQL / fetch /
federation op mix, with async maintenance, injected faults, a
crash–restart durability phase, and an abusive-tenant serving phase
where the scenario calls for them.

Every scenario carries regression gates (availability, zero unhandled
exceptions, discovery answers equal to a fresh serial reference, SQL
row counts equal to precomputed oracles, committed data visible after
crash-restart) and the whole matrix lands in ``BENCH_macro.json`` — the
repo's single end-to-end performance trajectory.  Regenerate outside
pytest with ``python repro_build.py macro-bench``.
"""

from repro.bench.macro import MATRIX, run_matrix
from repro.bench.reporting import render_table, report_experiment
from repro.bench.results import gates_passed, write_bench_json

from conftest import add_report


def test_bench_macro_matrix(benchmark):
    doc = benchmark.pedantic(run_matrix, iterations=1, rounds=1)
    scenarios = doc["results"]["scenarios"]

    rows = []
    for name in sorted(scenarios):
        stats = scenarios[name]["stats"]
        rows.append([
            name,
            stats["ops"],
            stats["clients"],
            f"{stats['availability']:.4f}",
            f"{stats['throughput_ops_per_s']:.0f}",
            (f"{stats['cache_hit_rate']:.2f}"
             if stats["cache_hit_rate"] is not None else "-"),
            stats["discovery_answers"],
            "pass" if scenarios[name]["passed"] else "FAIL",
        ])
    rendered = render_table(
        f"Macro-benchmark matrix: {len(scenarios)} mixed-workload scenarios "
        f"(seed {doc['seed']})",
        ["scenario", "ops", "clients", "avail", "ops/s", "cache",
         "answers", "gates"],
        rows,
    )
    chaos = scenarios["chaos_faults"]["stats"]
    chaos_rate = scenarios["chaos_faults"]["scenario"]["fault_rate"]
    rendered += "\n" + report_experiment(
        "macro",
        "one regression-gated trajectory over every lake function at once",
        f"{len(scenarios)} scenarios all gates green; chaos availability "
        f"{chaos['availability']:.4f} at {chaos_rate:.0%} injected faults",
    )
    add_report("BENCH_macro", rendered)
    write_bench_json("macro", doc)

    # -- acceptance: the matrix covers the survey's breadth -------------------
    assert len(scenarios) >= 8
    assert set(scenarios) == {scenario.name for scenario in MATRIX}

    # -- acceptance: every scenario's own gates are green ---------------------
    failing = {name: [gate for gate, verdict in report["gates"].items()
                      if not verdict["pass"]]
               for name, report in scenarios.items() if not report["passed"]}
    assert not failing, failing
    assert gates_passed(doc)

    # -- acceptance: the chaos run held availability with zero unhandled ------
    assert chaos["availability"] >= 0.99
    assert chaos["unhandled_errors"] == []

    # -- acceptance: text- and document-heavy scenarios did real discovery ----
    for name in ("text_heavy", "document_heavy"):
        stats = scenarios[name]["stats"]
        answers = (stats["discovery_answers"]
                   + stats["verification"]["non_empty_answers"])
        assert answers > 0, name

    # -- acceptance: committed data survived every reachable crash point ------
    crash = scenarios["crash_restart"]["stats"]["crash_restart"]
    assert crash["committed_visible"], crash["failures"]
    assert crash["scenarios"] > 0
