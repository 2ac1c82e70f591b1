"""macro-bench CLI: run the DLBench-style scenario matrix.

Run from the repository root::

    python repro_build.py macro-bench             # full matrix -> BENCH_macro.json
    python repro_build.py macro-smoke             # scaled-down smoke pass
    python tools/macro_bench.py --list            # names + descriptions
    python tools/macro_bench.py --scenario chaos_faults
    python tools/macro_bench.py --format json     # machine-readable report

Runs the exact seeded scenarios the benchmark suite uses
(:mod:`repro.bench.macro`).  The full matrix writes the envelope
artifact to the repo root; ``--smoke`` and ``--scenario`` runs print
their reports without touching the committed trajectory file.  Exit
codes: 0 = every scenario's gates passed, 1 = a gate failed.
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bench.macro import (MATRIX, get_scenario, run_matrix,  # noqa: E402
                               run_scenario, smoke_matrix)
from repro.bench.results import gates_passed, write_bench_json  # noqa: E402


def _print_report(name, report):
    stats = report["stats"]
    verdicts = " ".join(
        f"{gate}={'ok' if value['pass'] else 'FAIL'}"
        for gate, value in sorted(report["gates"].items()))
    print(f"{name:>20}: availability {stats['availability']:.4f}  "
          f"ops/s {stats['throughput_ops_per_s']:>8}  "
          f"unhandled {len(stats['unhandled_errors'])}  {verdicts}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the scaled-down smoke matrix (no artifact)")
    parser.add_argument("--scenario", action="append", default=[],
                        help="run only the named scenario (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list scenario names and exit")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_macro.json")
    args = parser.parse_args(argv)

    if args.list:
        for scenario in MATRIX:
            print(f"{scenario.name:>20}: {scenario.description}")
        return 0

    if args.scenario:
        try:
            chosen = [get_scenario(name) for name in args.scenario]
        except KeyError as exc:
            parser.error(str(exc.args[0]))
        if args.smoke:
            smoke = {scenario.name: scenario for scenario in smoke_matrix()}
            chosen = [smoke[scenario.name] for scenario in chosen]
        reports = {scenario.name: run_scenario(scenario)
                   for scenario in chosen}
        ok = all(report["passed"] for report in reports.values())
        if args.format == "json":
            print(json.dumps(reports, indent=2, sort_keys=True))
        else:
            for name in sorted(reports):
                _print_report(name, reports[name])
        return 0 if ok else 1

    doc = run_matrix(smoke_matrix() if args.smoke else None)
    ok = gates_passed(doc)
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for name in sorted(doc["results"]["scenarios"]):
            _print_report(name, doc["results"]["scenarios"][name])
    if not args.smoke:
        path = write_bench_json("macro", doc, root=args.output.parent)
        if args.output.name != "BENCH_macro.json":
            path.rename(args.output)
            path = args.output
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
