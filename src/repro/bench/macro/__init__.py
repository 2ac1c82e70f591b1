"""DLBench-style macro-benchmark: scenario DSL, driver, and matrix.

One declarative :class:`~repro.bench.macro.scenario.Scenario` describes
a whole-lake workload (data mix, op mix, clients, faults, crash points,
serving phase); the driver runs it against a fresh lake with in-run
correctness oracles and per-scenario regression gates; the matrix is
the ~9 named scenarios behind ``BENCH_macro.json`` — the single
trajectory every future PR's speedup claim is measured on.  See
docs/BENCHMARKING.md.
"""

from repro.bench.macro.scenario import (DataMix, Gates, OpMix, Scenario,
                                        ServingMix)
from repro.bench.macro.driver import (build_corpus, build_schedule,
                                      run_scenario)
from repro.bench.macro.matrix import (MATRIX, get_scenario, run_matrix,
                                      scenario_names, smoke_matrix)

__all__ = [
    "DataMix",
    "Gates",
    "MATRIX",
    "OpMix",
    "Scenario",
    "ServingMix",
    "build_corpus",
    "build_schedule",
    "get_scenario",
    "run_matrix",
    "run_scenario",
    "scenario_names",
    "smoke_matrix",
]
