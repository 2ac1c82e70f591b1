"""Scenario equivalence: one client, no faults must equal the serial lake.

Extends the cache equivalence suite to the macro-benchmark DSL: for *any*
small scenario spec (hypothesis over seed and data mix) with a single
client and no injected faults, the cached lake the driver builds answers
every discovery query bit-identically to an uncached
``DataLake(cache=False)`` over the same seeded corpus — element for
element, score for score.  The driver's own post-run verification gate
must agree.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.macro import Scenario, build_corpus, run_scenario
from repro.bench.macro.scenario import DataMix, Gates
from repro.core.lake import DataLake


def _small_spec(seed, pools, json_collections, text_docs):
    """A macro scenario spec via the dict surface (exercises from_dict)."""
    return Scenario.from_dict({
        "name": "prop",
        "description": "property-synthesized scenario",
        "seed": seed,
        "data": {
            "pools": pools,
            "tables_per_pool": 2,
            "rows_per_table": 12,
            "noise_tables": 1,
            "json_collections": json_collections,
            "docs_per_collection": 3,
            "log_files": 1,
            "log_lines": 25,
            "text_docs": text_docs,
            "words_per_doc": 24,
        },
        "ops": 12,
        "clients": 1,            # the serial-equivalence precondition
        "op_mix": {"ingest": 1, "discover": 3, "sql": 1, "fetch": 2,
                   "federation": 0},
        "cache": True,
        "fault_rate": 0.0,       # the other precondition
        "gates": {"min_discovery_answers": 0},
    })


def _ingest_corpus(lake, scenario):
    for dataset in build_corpus(scenario).datasets:
        lake.ingest(dataset)
    return lake


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       pools=st.integers(min_value=1, max_value=2),
       json_collections=st.integers(min_value=0, max_value=2),
       text_docs=st.integers(min_value=0, max_value=4))
def test_scenario_lake_matches_serial_reference(seed, pools, json_collections,
                                                text_docs):
    scenario = _small_spec(seed, pools, json_collections, text_docs)
    corpus = build_corpus(scenario)
    lake = _ingest_corpus(DataLake(cache=True), scenario)
    serial = _ingest_corpus(DataLake(cache=False), scenario)
    try:
        for name in corpus.discovery_names:
            assert (lake.discover_related(name, k=5)
                    == serial.discover_related(name, k=5))
        for table, column in corpus.join_targets[:3]:
            assert (lake.discover_joinable(table, column, k=5)
                    == serial.discover_joinable(table, column, k=5))
        for term in sorted(set(corpus.keyword_terms))[:3]:
            assert (lake.keyword_search(term, k=5)
                    == serial.keyword_search(term, k=5))
        for topic in sorted(corpus.text_topic_terms):
            terms = " ".join(corpus.text_topic_terms[topic])
            assert (lake.catalog.search(terms, k=5)
                    == serial.catalog.search(terms, k=5))
    finally:
        lake.close()
        serial.close()


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_driver_verification_gate_agrees(seed):
    """run_scenario's own serial-reference gate holds for any such spec."""
    report = run_scenario(_small_spec(seed, pools=1, json_collections=1,
                                      text_docs=2))
    assert report["gates"]["discovery_match"]["pass"], (
        report["gates"]["discovery_match"]["mismatches"])
    assert report["stats"]["sql_mismatches"] == []
    assert report["stats"]["unhandled_errors"] == []


def test_scenario_round_trips_through_dicts():
    scenario = _small_spec(3, 2, 1, 2)
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    assert isinstance(scenario.data, DataMix)
    assert isinstance(scenario.gates, Gates)
