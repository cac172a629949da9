#!/usr/bin/env python3
"""Energy per bit: circuit vs. packet vs. TDMA slot-table on HiperLAN/2.

The paper's Table 4 compares its lane-division circuit-switched router
against a packet-switched baseline and the Philips Æthereal slot-table
router.  This script runs that comparison as an *experiment* instead of a
constants table: the HiperLAN/2 receiver's guaranteed-throughput channels are
mapped onto a 4×4 mesh and their identical, bandwidth-paced word streams run
end to end on all three simulated network kinds
(:func:`repro.experiments.harness.run_app_traffic`).

The resulting delivered words / router power / energy per delivered payload
bit are written to ``BENCH_gt.json`` at the repository root.  (How fast each
kind simulates is the end-to-end benchmark's ``kind.*.cycles_per_s``,
``benchmarks/e2e/``.)

Run with::

    python examples/gt_comparison.py           # full run, writes BENCH_gt.json
    python examples/gt_comparison.py --quick   # CI smoke: fewer cycles, no file
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.apps import hiperlan2
from repro.experiments.harness import run_app_traffic
from repro.experiments.report import format_table
from repro.noc import Mesh2D

FREQUENCY_HZ = 100e6
CYCLES = 4000
QUICK_CYCLES = 800
LOAD = 0.5
KINDS = ("circuit", "packet", "gt")


def run_comparison(cycles: int) -> list[dict]:
    rows = []
    for kind in KINDS:
        result = run_app_traffic(
            kind,
            Mesh2D(4, 4),
            hiperlan2.build_process_graph(),
            frequency_hz=FREQUENCY_HZ,
            cycles=cycles,
            load=LOAD,
            seed=11,
        )
        rows.append(
            {
                "kind": result.kind,
                "words_delivered": result.total_received,
                "power_mw": round(result.power.total_uw / 1e3, 4),
                "energy_pj_per_bit": round(result.energy_pj_per_bit, 3),
                "delivery_ok": result.delivery_ok(),
            }
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced-cycle smoke run that skips writing BENCH_gt.json",
    )
    args = parser.parse_args()
    cycles = QUICK_CYCLES if args.quick else CYCLES

    print("=== HiperLAN/2 on three network kinds (4x4 mesh) ===\n")
    rows = run_comparison(cycles)
    print(format_table(rows, precision=3))

    by_kind = {row["kind"]: row for row in rows}
    cs = by_kind["circuit_switched"]
    ps = by_kind["packet_switched"]
    gt = by_kind["time_division_gt"]
    assert all(row["delivery_ok"] for row in rows), "a network kind failed to deliver"
    assert cs["energy_pj_per_bit"] < gt["energy_pj_per_bit"] < ps["energy_pj_per_bit"], (
        "expected circuit < TDMA < packet energy per bit"
    )
    print(
        f"\ncircuit vs gt: {gt['energy_pj_per_bit'] / cs['energy_pj_per_bit']:.2f}x, "
        f"circuit vs packet: {ps['energy_pj_per_bit'] / cs['energy_pj_per_bit']:.2f}x"
    )

    if args.quick:
        print("\n(quick mode: BENCH_gt.json not written)")
        return

    artifact = {
        "benchmark": "gt_network",
        "description": (
            "HiperLAN/2 GT channels, bandwidth-paced, on a 4x4 mesh across the "
            "three simulated network kinds; energy per delivered payload bit "
            "(examples/gt_comparison.py)."
        ),
        "frequency_hz": FREQUENCY_HZ,
        "cycles": cycles,
        "load": LOAD,
        "results": rows,
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_gt.json"
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
