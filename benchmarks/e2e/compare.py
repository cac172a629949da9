"""Compare two result files of ``run.py --json``: A (parent) against B (change).

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload and end-to-end metric with both estimates, the
quartiles of the independent per-pass estimates and the bound, judged
``better / same / worse / unresolved``.  Unresolved means the run-to-run
spread (q3 - q1 of the per-pass estimates, as a share of their median) is
wider than the bound on either side, or a side has fewer than three passes
to take it from.  Digests, and in traced files every ``*.calls``, scheduler
counter and simulated count, must be equal exactly.  Exits non-zero on
``worse`` or on any count mismatch.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from typing import Any, Dict, List

import spec

#: Fewer independent estimates than this say nothing about the spread.
MIN_PASSES = 3


def spread(metric: Dict[str, Any]) -> float:
    """Interquartile range of the per-pass estimates as a share of their median."""
    if len(metric["passes"]) < MIN_PASSES:
        return math.inf
    return (metric["q3"] - metric["q1"]) / statistics.median(metric["passes"])


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Judge B against A on one end-to-end metric."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    widest = max(spread(a), spread(b))
    if widest > a["bound"]:
        # Too noisy to call, unless every pass of B beats every pass of A.
        clear = widest < math.inf and max(sign * v for v in b["passes"]) < min(sign * v for v in a["passes"])
        return "better" if clear else "unresolved"
    if worse_by > a["bound"]:
        return "worse"
    return "better" if worse_by < -a["bound"] else "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print the comparison; return the reasons to fail."""
    problems: List[str] = []
    if a["traced"] != b["traced"]:
        return ["one file is a traced run and the other is not"]
    for workload in a["runs"]:
        if workload not in b["runs"]:
            continue
        run_a, run_b = a["runs"][workload], b["runs"][workload]
        print(f"\n== {workload}")
        if run_a["seed"] == run_b["seed"]:
            same = run_a["digests"] == run_b["digests"]
            print(f"   {'digests':<28} {'equal' if same else 'DIFFERENT'}")
            if not same:
                problems.append(f"{workload}: simulated statistics differ")
        exact = 0
        for name, metric_a in run_a["metrics"].items():
            metric_b = run_b["metrics"].get(name)
            if metric_b is None:
                continue
            if "bound" in metric_a:
                result = verdict(metric_a, metric_b)
                print(
                    f"   {name:<28} A {metric_a['value']:>11.5g} [{metric_a['q1']:.5g}, {metric_a['q3']:.5g}]"
                    f"   B {metric_b['value']:>11.5g} [{metric_b['q1']:.5g}, {metric_b['q3']:.5g}]"
                    f"   {metric_a['unit']:<9} bound {metric_a['bound']:.0%}   {result}"
                )
                if result == "worse":
                    problems.append(f"{workload}: {name} is worse by more than {metric_a['bound']:.0%}")
            elif spec.is_exact(name) and run_a["seed"] == run_b["seed"]:
                exact += 1
                if metric_a["value"] != metric_b["value"]:
                    print(f"   {name:<28} A {metric_a['value']!r}   B {metric_b['value']!r}   MISMATCH")
                    problems.append(f"{workload}: {name} does not repeat exactly")
        if exact:
            print(f"   {exact} call counts, scheduler counters and simulated counts compared exactly")
        for side, run in (("A", run_a), ("B", run_b)):
            if run["operations"]["failed"]:
                problems.append(f"{workload}: {run['operations']['failed']} operations failed in {side}")
    return problems


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    a, b = (json.load(open(path)) for path in sys.argv[1:])
    problems = compare(a, b)
    print()
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        raise SystemExit(1)
    print("OK: no metric worse than its bound, every count equal")


if __name__ == "__main__":
    main()
