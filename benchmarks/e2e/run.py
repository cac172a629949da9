#!/usr/bin/env python3
"""End-to-end benchmark of the NoC simulator: five workloads, one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--passes N] [--json [PATH]]

Every workload runs in fresh single-threaded subprocesses, one per *pass*
(set-up, timed steps, report, teardown); passes repeat while another one
fits into ``--seconds`` and every time is a floor: the fastest sample of each
step over all passes (README, "Noise").  ``--trace`` runs one pass with
spans and one under the layer profiler instead and reports the per-layer
metrics.
Every metric is printed by name with its unit, the simulated outputs are
checked, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {"setup_s": {"value": …, "unit": "s"}, …}}

See README.md in this directory for the glossary and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0

import aggregate  # noqa: E402  (siblings of this script; its directory is on sys.path)
import spec  # noqa: E402
from spans import fold_layers  # noqa: E402


# ---------------------------------------------------------------------------
# Child: one pass (or one strict cross-check) in this process
# ---------------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> None:
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads
    from harness import Pass

    golden = None
    if args.role == "pass" and args.seed == DEFAULT_SEED and not args.quick:
        golden = json.loads(GOLDEN.read_text())["digests"].get(args.workload, {})
    p = Pass(args.workload, args.seed, args.quick, args.traced, args.profile, args.started_at, golden)
    table = workloads.WORKLOADS if args.role == "pass" else workloads.CHECKS
    p.run(table[args.workload])
    result = p.result()
    result["role"] = args.role
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    if args.profile:
        p.tracer.write(OUT / f"trace-{args.workload}.json")
    print(json.dumps(result))


def spawn(role: str, workload: str, seed: int, quick: bool,
          traced: bool = False, profile: bool = False) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its result with ``total_s``."""
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role, "--workload", workload,
        "--seed", str(seed), "--started-at", repr(time.time()),
    ]
    command += ["--quick"] * quick + ["--traced"] * traced + ["--profile"] * profile
    # A fixed hash seed keeps set iteration, and with it every call count, repeatable.
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env)
    total_s = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{role} of {workload} exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["total_s"] = total_s
    return result


# ---------------------------------------------------------------------------
# Parent: run sets, metrics, report
# ---------------------------------------------------------------------------


def host_record() -> Dict[str, Any]:
    return {
        "host_cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "load_1min": os.getloadavg()[0],
    }


def same_digests(results: List[Dict[str, Any]]) -> List[Any]:
    """One operation: every pass of a run saw the same simulated statistics."""
    digests = [result["digests"] for result in results if not result["error"]]
    ok = all(d == digests[0] for d in digests)
    return ["repeat:digests", ok, "passes of one run disagree on simulated statistics"]


def measure(workload: str, seed: int, seconds: float, quick: bool,
            passes: Optional[int]) -> Dict[str, Any]:
    """The untraced run set: the strict check, then passes while another one
    fits into *seconds* (at least two)."""
    started = time.perf_counter()
    check = []
    if workload in spec.STRICT_CHECKED and not quick:
        check.append(spawn("check", workload, seed, quick))
    checked = time.perf_counter()
    results: List[Dict[str, Any]] = []
    while True:
        results.append(spawn("pass", workload, seed, quick))
        now = time.perf_counter()
        if passes is not None:
            if len(results) >= passes:
                break
        elif quick or (len(results) >= 2 and now - started + (now - checked) / len(results) > seconds):
            break
    everything = results + check
    results[0]["checks"].append(same_digests(results))
    good = [result for result in results if not result["error"]]
    return {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "passes": len(results),
        "metrics": aggregate.end_to_end(good) if good else {},
        "operations": aggregate.operations(everything),
        "digests": good[0]["digests"] if good else {},
        "versions": results[0]["versions"],
    }


def trace(workload: str, seed: int, quick: bool) -> Dict[str, Any]:
    """The traced run: one pass with spans only, then one under the layer profiler too."""
    plain = spawn("pass", workload, seed, quick, traced=True)
    profiled = spawn("pass", workload, seed, quick, traced=True, profile=True)
    plain["checks"].append(same_digests([plain, profiled]))
    good = not plain["error"] and not profiled["error"]
    return {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "passes": 2,
        "metrics": aggregate.per_layer(plain, profiled) if good else {},
        "operations": aggregate.operations([plain, profiled]),
        "digests": plain["digests"],
        "layers_by_phase": profiled["layers"],
        "versions": plain["versions"],
    }


def contract_line(run: Dict[str, Any]) -> str:
    """The one JSON object the pipeline reads from the last line of stdout."""
    operations = run["operations"]
    return json.dumps(
        {
            "correct": operations["failed"] == 0 and bool(run["metrics"]),
            "attempted": operations["attempted"],
            "failed": operations["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in run["metrics"].items()
            },
        }
    )


def print_run(run: Dict[str, Any]) -> None:
    operations = run["operations"]
    print(f"\n== {run['workload']}  seed={run['seed']}  passes={run['passes']}"
          f"{'  (quick)' if run['quick'] else ''}")
    print(f"   {spec.WORKLOADS[run['workload']]}")
    for name, metric in run["metrics"].items():
        spread = ""
        if "q1" in metric and run["passes"] > 1:
            spread = f"   [per pass: q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}; bound {metric['bound']:.0%}]"
        print(f"   {name:<34} {metric['value']:>14.6g} {metric['unit']:<9}{spread}")
    share = operations["failed"] / operations["attempted"]
    print(f"   {'fail_share':<34} {share:>14.6g} {'ratio':<9}   "
          f"[ops_failed {operations['failed']} / ops_total {operations['attempted']}]")
    for failure in operations["failures"]:
        print(f"   FAILED {failure}")
    if run["workload"] != "paper_repro":
        print("   simulated fabric statistics are checked for identity; unvalidated against hardware")
    if "layers_by_phase" in run:
        print_layers(run["layers_by_phase"])


def print_layers(table: Dict[str, Dict[str, List[float]]]) -> None:
    """Traced self time per layer, one column per phase (largest layers first)."""
    phases = [phase for phase, layers in table.items() if layers]
    totals = fold_layers(table)
    print(f"   traced self seconds by layer:  {'total':>8} " + " ".join(f"{ph[:12]:>12}" for ph in phases))
    for layer in sorted(totals, key=lambda name: -totals[name][0]):
        cells = " ".join(f"{table[ph].get(layer, [0.0])[0]:>12.3f}" for ph in phases)
        print(f"     {layer:<28} {totals[layer][0]:>8.3f} {cells}")


def regen_golden(seed: int) -> None:
    """One pass per workload; its digests become the golden file (the stale
    golden check the pass makes on the way is ignored)."""
    digests = {
        workload: spawn("pass", workload, seed, quick=False)["digests"] for workload in spec.WORKLOADS
    }
    GOLDEN.write_text(json.dumps({"seed": seed, "digests": digests}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="offsets every generated input")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS, help="measuring time per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics instead of end-to-end ones")
    parser.add_argument("--quick", action="store_true", help="one replay of each workload, one pass, no golden check")
    parser.add_argument("--passes", type=int, help="exactly this many passes instead of --seconds")
    parser.add_argument("--json", nargs="?", const=str(OUT / "result.json"), help="also write the full result here")
    parser.add_argument("--regen-golden", action="store_true", help="rewrite golden.json for the default seed")
    parser.add_argument("--role", choices=("pass", "check"), help=argparse.SUPPRESS)
    parser.add_argument("--started-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--profile", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.seed %= 2**31  # the word generators take non-negative seeds only

    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"the simulator's source is not at {SRC}; run from a full checkout")
    if args.role:
        child_main(args)
        return
    if args.regen_golden:
        regen_golden(DEFAULT_SEED)
        return

    host = host_record()
    if host["load_1min"] > host["host_cpus"]:
        print(f"warning: load average {host['load_1min']:.2f} exceeds {host['host_cpus']} CPUs; "
              "timings will be noisy", file=sys.stderr)
    if host["host_cpus"] < spec.SHARDS:
        print(f"warning: the sharded probe starts {spec.SHARDS} busy workers on {host['host_cpus']} CPU",
              file=sys.stderr)
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    runs = []
    for workload in names:
        if args.trace:
            run = trace(workload, args.seed, args.quick)
        else:
            run = measure(workload, args.seed, args.seconds, args.quick, args.passes)
        print_run(run)
        runs.append(run)
    host["load_1min_end"] = os.getloadavg()[0]
    host.update(runs[0]["versions"])
    print(f"\nhost: {json.dumps(host)}")
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"host": host, "traced": bool(args.trace), "runs": {run["workload"]: run for run in runs}}
        path.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {path}")
    # One workload: its contract line.  All five: the totals, metrics keyed workload.metric.
    if len(runs) == 1:
        print(contract_line(runs[0]))
    else:
        merged = {
            "metrics": {f"{run['workload']}.{name}": metric
                        for run in runs for name, metric in run["metrics"].items()},
            "operations": {
                "attempted": sum(run["operations"]["attempted"] for run in runs),
                "failed": sum(run["operations"]["failed"] for run in runs),
            },
        }
        if not all(run["metrics"] for run in runs):
            merged["metrics"] = {}
        print(contract_line(merged))


if __name__ == "__main__":
    main()
