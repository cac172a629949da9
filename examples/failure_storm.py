#!/usr/bin/env python3
"""Mid-run failure storms on three live network kinds, recovered by the CCN.

A storm kills links and whole routers *while traffic flows*: in-flight
phits/flits/words are dropped on the dead wires, the degraded topology is
derived, routing is rebuilt around the holes, and the Central Coordination
Node identifies the displaced applications, halts and drains them, releases
every resource transactionally and re-admits them on whatever fabric
survives — or rejects them cleanly with a fabric-selector fallback
recommendation.  This is the paper's run-time reconfiguration story under
duress: the same admission pipeline that starts applications also *saves*
them.

The script replays one deterministic seeded storm (three applications,
three faults — two link kills targeting the busiest allocated links plus
one router kill) on an 8x8 mesh against all three simulated network kinds,
under the strict kernel schedule and under the default one (no ``schedule``
argument: whatever :data:`repro.sim.engine.DEFAULT_SCHEDULE` names), and checks

* every displaced application is re-admitted or explicitly rejected,
* no resource leaks anywhere after the final departure (``leak_free``),
* the strict and the default schedule agree bit-for-bit, faults included.

Per kind it records recovery time, words dropped on the wires and the
energy per delivered bit before vs. after the storm in
``BENCH_storm.json`` at the repository root.

Run with::

    python examples/failure_storm.py           # full run, writes BENCH_storm.json
    python examples/failure_storm.py --quick   # CI smoke: 6x6 mesh, no file
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.experiments.dynamic import DynamicWorkloadResult
from repro.experiments.report import format_table
from repro.experiments.storm import run_storm, telemetry_columns
from repro.noc import Mesh2D

FREQUENCY_HZ = 100e6
LOAD = 0.5
SEED = 7
KINDS = ("circuit", "packet", "gt")


def _energy_per_bit(epochs, data_width: int):
    energy = sum(e.energy_pj for e in epochs)
    bits = sum(e.words_delivered for e in epochs) * data_width
    return energy / bits if bits else None


def energy_before_after(result: DynamicWorkloadResult):
    """Energy/bit over the pre-storm epochs vs. the loaded post-storm epochs."""
    fault_epochs = [i for i, e in enumerate(result.epochs) if e.faults]
    first, last = fault_epochs[0], fault_epochs[-1]
    before = result.epochs[:first]
    # Post-storm comparison window: epochs after the last fault in which
    # applications were still admitted (the drained tail after the final
    # departure delivers nothing and would skew the ratio).
    after = [e for e in result.epochs[last + 1 :] if e.admitted]
    return (
        _energy_per_bit(before, result.data_width),
        _energy_per_bit(after, result.data_width),
    )


def identical(a: DynamicWorkloadResult, b: DynamicWorkloadResult) -> bool:
    """Bit-identical epoch observables between two schedule modes."""
    def signature(result):
        return [
            (
                e.start_cycle,
                e.end_cycle,
                e.words_delivered,
                e.energy_pj,
                e.events,
                e.faults,
                e.displaced,
                e.readmitted,
                e.displaced_rejected,
                e.recovery_cycles,
                e.words_dropped,
            )
            for e in result.epochs
        ]

    return signature(a) == signature(b)


def run_campaigns(mesh: Mesh2D, storm_size: int) -> list[dict]:
    rows = []
    for kind in KINDS:
        started = time.perf_counter()
        outcomes = {
            name: run_storm(
                kind,
                topology=mesh,
                storm_size=storm_size,
                seed=SEED,
                frequency_hz=FREQUENCY_HZ,
                load=LOAD,
                **schedule,
            )
            for name, schedule in (("strict", {"schedule": "strict"}), ("default", {}))
        }
        elapsed = time.perf_counter() - started
        outcome = outcomes["default"]
        result = outcome.result
        before, after = energy_before_after(result)
        rows.append(
            {
                "kind": result.kind,
                "faults": [d for e in result.epochs for d in e.faults],
                "displaced": len(result.displaced),
                "readmitted": len(result.readmitted),
                "displaced_rejected": len(result.displaced_rejected),
                "fallback_kinds": result.fallback_kinds,
                "recovery_cycles": result.recovery_cycles,
                "recovery_time_us": result.recovery_cycles / FREQUENCY_HZ * 1e6,
                "words_dropped": result.words_dropped,
                "drop_unit": result.drop_unit,
                "energy_pj_per_bit_before": before,
                "energy_pj_per_bit_after": after,
                "reconfiguration_ms": result.reconfiguration_time_s * 1e3,
                "recovered_or_rejected": outcome.recovered_or_rejected,
                "leak_free": outcome.leak_free,
                "identical_results": identical(
                    outcomes["strict"].result, outcomes["default"].result
                ),
                "telemetry": telemetry_columns(result),
                "wall_time_s": round(elapsed, 2),
            }
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced smoke run (6x6 mesh, 2 faults) that skips BENCH_storm.json",
    )
    args = parser.parse_args()
    mesh = Mesh2D(6, 6) if args.quick else Mesh2D(8, 8)
    storm_size = 2 if args.quick else 3

    print(
        f"=== Failure storm: {storm_size} faults under HiperLAN/2 + UMTS + DRM "
        f"({mesh.width}x{mesh.height} mesh, seed {SEED}) ===\n"
    )
    rows = run_campaigns(mesh, storm_size)
    display = [
        {k: v for k, v in row.items() if k not in ("telemetry", "faults", "fallback_kinds")}
        for row in rows
    ]
    print(format_table(display, precision=3))
    for row in rows:
        print(f"\n{row['kind']} fault log:")
        for line in row["faults"]:
            print(f"  - {line}")

    for row in rows:
        kind = row["kind"]
        assert row["recovered_or_rejected"], f"{kind}: an application was silently lost"
        assert row["leak_free"], f"{kind}: resources leaked after the storm"
        assert row["identical_results"], f"{kind}: strict vs default diverged under faults"
        assert len(row["faults"]) == storm_size, f"{kind}: a fault failed to inject"
        assert row["displaced"] >= 1, f"{kind}: the storm displaced nobody"
        assert row["displaced"] == row["readmitted"] + row["displaced_rejected"], (
            f"{kind}: displaced applications unaccounted for"
        )

    survivors = ", ".join(
        f"{r['kind']} ({r['readmitted']}/{r['displaced']} re-admitted, "
        f"recovery {r['recovery_time_us']:.1f} us)"
        for r in rows
    )
    print(f"\nall kinds survived the storm: {survivors}")

    if args.quick:
        print("\n(quick mode: BENCH_storm.json not written)")
        return

    artifact = {
        "benchmark": "failure_storm",
        "description": (
            "Deterministic seeded failure storm (link kills on the busiest "
            "allocated links plus a router kill) injected mid-traffic under the "
            "HiperLAN/2 + UMTS + DRM workload on an 8x8 mesh, recovered by the "
            "CCN (displace, drain, release, re-map, re-admit) on the three "
            "simulated network kinds under the strict and the default kernel schedule "
            "(examples/failure_storm.py)."
        ),
        "frequency_hz": FREQUENCY_HZ,
        "mesh": f"{mesh.width}x{mesh.height}",
        "storm_size": storm_size,
        "seed": SEED,
        "load": LOAD,
        "campaigns": rows,
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_storm.json"
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
