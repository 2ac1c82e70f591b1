"""Compare lakebench results of a parent commit and a change.

Save each run's standard output to a file, alternating which side runs
first, then::

    python3 lakebench/compare.py --parent p1.txt p2.txt ... --change c1.txt c2.txt ...

File *i* of each side forms pair *i*.  For every (workload, metric) of
the untraced runs the tool prints both sides' median and quartiles, the
fraction of pairs the change won (ties count for neither side) and a
verdict:

- ``improved``: the change won at least 9/10 of the pairs and the
  medians differ by more than the parent's interquartile range;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound (``error_rate`` may not rise at all);
- ``unresolved``: either side's spread (interquartile range over median)
  is wider than the bound, and not every change run beats every parent
  run;
- ``unchanged`` otherwise.

Bounds come from ``BENCHMARK.json``.  Every other metric a run prints,
the workload-specific ones (``fresh_p50_ms``, ``write_p90_ms``, ...) and
the per-layer ones of traced runs, is shown as median deltas with no
verdict: no bound has been measured for it.  The exit code is 1 when
anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Results = Dict[Tuple[str, str], float]


def parse(path: Path) -> Results:
    """``(workload, metric) -> value`` from one run's saved output."""
    results: Results = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if len(parts) < 4 or line.startswith((" ", "{")):
            continue
        try:
            value = float(parts[2])
        except ValueError:
            continue
        results[(parts[0], parts[1])] = value
    return results


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def _relative(spread: float, median: float) -> float:
    return spread / abs(median) if median else (0.0 if not spread else float("inf"))


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            higher_is_better: bool) -> Tuple[str, float]:
    """The verdict for one metric and the fraction of pairs the change won."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    won = wins / len(pairs)
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    gain = sign * (c_mid - p_mid)
    if won >= 0.9 and gain > 0 and abs(c_mid - p_mid) > p_high - p_low:
        return "improved", won
    if bound == 0.0:  # any rise counts, so compare means, not medians
        rise = sign * (statistics.mean(parent) - statistics.mean(change))
        return ("regressed" if rise > 0 else "unchanged"), won
    if -gain > bound * abs(p_mid):
        return "regressed", won
    spread = max(_relative(p_high - p_low, p_mid), _relative(c_high - c_low, c_mid))
    all_better = min(sign * new for new in change) > max(sign * old for old in parent)
    if spread > bound and not all_better:
        return "unresolved", won
    return "unchanged", won


def load_bounds() -> Dict[str, Tuple[float, bool]]:
    """Metric -> (bound, higher is better): ``BENCHMARK.json``'s
    end-to-end metrics, and ``error_rate``, which may not rise at all."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {metric["name"]: (float(metric["bound"]), metric["better"] == "higher")
              for metric in spec["end_to_end"]}
    bounds["error_rate"] = (0.0, False)
    return bounds


def compare(parent_runs: List[Results], change_runs: List[Results],
            out=sys.stdout) -> int:
    bounds = load_bounds()
    keys = sorted(set().union(*parent_runs) & set().union(*change_runs))
    regressed = 0
    other_rows: List[str] = []
    header = (f"{'workload':14} {'metric':24} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>5}  verdict")
    print(header, file=out)
    for workload, metric in keys:
        pairs = [(old[(workload, metric)], new[(workload, metric)])
                 for old, new in zip(parent_runs, change_runs)
                 if (workload, metric) in old and (workload, metric) in new]
        if not pairs:
            continue
        parent = [old for old, _ in pairs]
        change = [new for _, new in pairs]
        p_low, p_mid, p_high = quartiles(parent)
        c_low, c_mid, c_high = quartiles(change)
        delta = _relative(c_mid - p_mid, p_mid) if p_mid else 0.0
        if metric not in bounds:
            other_rows.append(f"{workload:14} {metric:56} {p_mid:14.6g} "
                              f"{c_mid:14.6g} {delta:+8.1%}")
            continue
        bound, higher = bounds[metric]
        outcome, won = verdict(parent, change, bound, higher)
        regressed += outcome == "regressed"
        print(f"{workload:14} {metric:24} "
              f"{p_mid:12.6g} [{p_low:9.4g}, {p_high:9.4g}] "
              f"{c_mid:12.6g} [{c_low:9.4g}, {c_high:9.4g}] "
              f"{delta:+8.1%} {won:5.0%}  {outcome}", file=out)
    if other_rows:
        print("\nworkload-specific and per-layer medians (no verdict)", file=out)
        print(f"{'workload':14} {'metric':56} {'parent':>14} {'change':>14} "
              f"{'delta':>8}", file=out)
        for row in other_rows:
            print(row, file=out)
    print(f"\n{len(parent_runs)} pairs; {regressed} regressed", file=out)
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give as many change files as parent files (one per pair)")
    return compare([parse(path) for path in args.parent],
                   [parse(path) for path in args.change])


if __name__ == "__main__":
    sys.exit(main())
