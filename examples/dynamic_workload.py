#!/usr/bin/env python3
"""Application churn on three live network kinds, driven by the CCN.

The CCN performs feasibility analysis, spatial mapping, allocation and
configuration *at run time*, per application (Section 1.1) — so the
interesting workload is not one application running forever but a multi-mode
terminal whose applications come and go.  This script replays the
deterministic UMTS + HiperLAN/2 + DRM churn schedule of
:func:`repro.experiments.dynamic.paper_churn_events` against live networks of
all three simulated kinds: the CCN admits, programs (10-bit lane commands vs.
aligned slot-table writes, both costed over the best-effort network), attaches
bandwidth-paced streams, rejects what does not fit and transactionally
releases departing applications mid-simulation.

It then runs the fabric-selection policy
(:class:`repro.noc.selection.FabricSelector`) over the three applications and
checks that circuit switching — the paper's architecture — is chosen for the
streaming workloads, consistent with the measured energy ordering of
``BENCH_gt.json`` (circuit 1x < TDMA ~3.2x < packet ~3.5x).

The per-kind energy per delivered bit, reconfiguration time and rejection
counts are written to ``BENCH_dynamic.json`` at the repository root.

Run with::

    python examples/dynamic_workload.py           # full run, writes BENCH_dynamic.json
    python examples/dynamic_workload.py --quick   # CI smoke: fewer cycles, no file
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.apps import drm, hiperlan2, umts
from repro.experiments.dynamic import paper_churn_events, run_dynamic_workload
from repro.experiments.report import format_table
from repro.noc import FabricSelector, Mesh2D

FREQUENCY_HZ = 100e6
TOTAL_CYCLES = 3000
QUICK_CYCLES = 2400
LOAD = 0.5
KINDS = ("circuit", "packet", "gt")


def run_churn(total_cycles: int) -> list[dict]:
    rows = []
    for kind in KINDS:
        result = run_dynamic_workload(
            kind,
            Mesh2D(5, 5),
            paper_churn_events(),
            frequency_hz=FREQUENCY_HZ,
            total_cycles=total_cycles,
            load=LOAD,
            seed=11,
        )
        rows.append(
            {
                "kind": result.kind,
                "words_delivered": result.words_delivered,
                "energy_pj_per_bit": round(result.energy_pj_per_bit, 3),
                "reconfiguration_ms": round(result.reconfiguration_time_s * 1e3, 4),
                "rejections": result.rejections,
                "peak_tile_occupancy": round(result.peak_tile_occupancy, 3),
            }
        )
    return rows


def run_selection(probe_cycles: int) -> list[dict]:
    selector = FabricSelector(Mesh2D(4, 4), probe_cycles=probe_cycles, seed=11)
    # DRM is a narrowband (kbit/s) broadcast receiver: probe it at a matched
    # 100 kHz network clock (like the DRM system tests do), where its
    # bandwidth-paced streams actually exercise the fabric.
    drm_selector = FabricSelector(
        Mesh2D(4, 4), frequency_hz=1e5, probe_cycles=probe_cycles, seed=11
    )
    rows = []
    for app in (hiperlan2, umts, drm):
        chooser = drm_selector if app is drm else selector
        decision = chooser.select(app.build_process_graph())
        best = decision.candidate(decision.chosen_kind)
        rows.append(
            {
                "application": decision.application,
                "chosen_kind": decision.chosen_kind,
                "energy_pj_per_bit": round(best.energy_pj_per_bit, 3),
                "reconfiguration_ms": round(best.reconfiguration_time_s * 1e3, 4),
                "kinds_rejected": decision.rejections,
            }
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced-cycle smoke run that skips writing BENCH_dynamic.json",
    )
    args = parser.parse_args()
    total_cycles = QUICK_CYCLES if args.quick else TOTAL_CYCLES

    print("=== UMTS + HiperLAN/2 + DRM churn on three network kinds (5x5 mesh) ===\n")
    churn_rows = run_churn(total_cycles)
    print(format_table(churn_rows, precision=3))

    by_kind = {row["kind"]: row for row in churn_rows}
    cs = by_kind["circuit_switched"]
    ps = by_kind["packet_switched"]
    gt = by_kind["time_division_gt"]
    assert cs["energy_pj_per_bit"] < gt["energy_pj_per_bit"] < ps["energy_pj_per_bit"], (
        "expected circuit < TDMA < packet energy per bit under churn"
    )
    assert all(row["rejections"] == 1 for row in churn_rows), (
        "the over-subscribed HiperLAN/2 re-arrival must be rejected on every kind"
    )
    assert cs["reconfiguration_ms"] < gt["reconfiguration_ms"], (
        "10-bit lane commands must reconfigure faster than aligned slot-table writes"
    )
    print(
        f"\nchurn energy/bit: circuit 1x, gt "
        f"{gt['energy_pj_per_bit'] / cs['energy_pj_per_bit']:.2f}x, packet "
        f"{ps['energy_pj_per_bit'] / cs['energy_pj_per_bit']:.2f}x; "
        f"reconfiguration {cs['reconfiguration_ms']:.3f} ms vs "
        f"{gt['reconfiguration_ms']:.3f} ms (gt) vs 0 ms (packet)"
    )

    print("\n=== Fabric selection per application (4x4 mesh) ===\n")
    selection_rows = run_selection(probe_cycles=600 if args.quick else 1200)
    print(format_table(selection_rows, precision=3))
    assert all(r["chosen_kind"] == "circuit_switched" for r in selection_rows), (
        "circuit switching must win for the paper's streaming applications"
    )

    if args.quick:
        print("\n(quick mode: BENCH_dynamic.json not written)")
        return

    artifact = {
        "benchmark": "dynamic_workload",
        "description": (
            "Deterministic UMTS + HiperLAN/2 + DRM arrival/departure schedule on a "
            "5x5 mesh, CCN-driven (admit, configure over the BE network, attach "
            "paced streams, reject, release) on the three simulated network kinds, "
            "plus the per-application fabric-selection decisions "
            "(examples/dynamic_workload.py)."
        ),
        "frequency_hz": FREQUENCY_HZ,
        "total_cycles": total_cycles,
        "load": LOAD,
        "churn": churn_rows,
        "fabric_selection": selection_rows,
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_dynamic.json"
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
