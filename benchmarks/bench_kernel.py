"""Benchmark K-1: kernel schedule throughput and strict-equivalence.

Measures simulated cycles per wall-clock second for circuit-switched meshes
of 2×2, 4×4 and 8×8 routers at 0 %, 25 % and 100 % row occupancy (a row at
occupancy carries one full-load lane circuit west→east, so the fabric's lane
occupancy is at most the row fraction), under the strict (seed-equivalent)
schedule and the default ``vector`` schedule (the leaping clock plus the
self-gating struct-of-arrays wire plane of :mod:`repro.sim.vector`).

A second scenario family exercises the leap: ``paced-stream`` rows carry
the same row circuits at a low offered load (one word per 50 cycles — the
pacing a bandwidth-admitted application channel produces), so between word
injections the datapath answers its next driver's due cycle and the kernel
leaps the clock from word to word instead of iterating every cycle.

Two more row-stream scenarios (3×3 and 4×4 with two rows, full load and
paced) put 6 and 8 live routes around the vector plane's gate
(:data:`repro.sim.vector.MIN_BATCH_ROUTES`, recorded in the header as
``min_batch_routes``; every row records the ``live_routes`` its plane
counted), so the constant is read off committed rows on both sides.

Every measurement also verifies the tentpole invariant: both schedules
must leave the same ``network.snapshot()`` (per-router activity counters,
delivered words, fault drops, energy per bit, cycle).  Every schedule's time is the best of :data:`SAMPLES` independent
samples, taken in turns, so no ratio compares two single samples.

Run as a script to (re)generate the perf-trajectory file ``BENCH_kernel.json``
at the repository root::

    PYTHONPATH=src python benchmarks/bench_kernel.py

``--quick`` runs the 8×8 low-occupancy scenario plus the 8×8 paced-stream
scenario with fewer cycles and asserts ``identical_results`` without
touching the JSON file (the CI smoke); it also runs the full-load 8×8 GT and
packet row fabrics under both schedules and asserts identical snapshots.  ``--profile`` runs the hottest
scenario (the fully loaded 8×8 mesh) under cProfile for the default
schedule and prints the top-20 functions by cumulative time plus
each layer's share of the profiled self time (converter, plane, routers,
endpoints, kernel), so the next hot layer is read off the same table.

A third scenario family exercises the sharded kernel (:mod:`repro.sim.shard`):
a fully loaded 16×16 mesh partitioned across 4 worker processes, timed
against the single-process default kernel, with unconditional bit-identity of
activity, delivered words and energy per bit.

A fourth family compares the two shard transports head to head: the same
fabric run over the ``pipe`` transport (pickled frame dictionaries relayed
through the parent) and over the ``shm`` transport (struct-packed frames in
preallocated shared-memory rings, the parent demoted to a control plane),
recording frames, bytes per exchange window and overlap hits for each.

Future PRs regress against that file: the 8×8 mesh at ≤25 % occupancy must
stay ≥3× faster under ``vector`` than under ``strict``, the 8×8 paced-stream
row must stay ≥8× (cycle leaping), the fully loaded 8×8 mesh must keep 0.6×
of its recorded ``vector``/``strict`` ratio (the columnar plane, converter
lanes included), a busy row below the plane's live-route gate must run
gated at ≥0.9× of the plane batching it regardless, the sharded 16×16 row must stay bit-identical everywhere and ≥2× faster on
hosts whose recorded ``host_cpus`` is at least 4, and the shm transport
rows must move strictly fewer bytes per exchange window than the pipe rows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import time
from pathlib import Path

import numpy

from repro.apps.traffic import BitFlipPattern, word_generator
from repro.noc.fabric import build_network
from repro.noc.network import CircuitSwitchedNoC
from repro.noc.path_allocation import LaneAllocator
from repro.noc.topology import Mesh2D
from repro.sim import vector as vector_plane
from repro.sim.engine import DEFAULT_SCHEDULE, SCHEDULES
from repro.sim.vector import MIN_BATCH_ROUTES

FREQUENCY_HZ = 100e6
MESH_SIZES = (2, 4, 8)
OCCUPANCIES = (0.0, 0.25, 1.0)
#: Simulated cycles per measurement; large enough to amortise warm-up (the
#: first cycles run every component before quiescence engages).
CYCLES = {2: 8000, 4: 1500, 8: 800}
SPEEDUP_TARGET = 3.0
#: The default schedule must beat strict by this much on the *fully loaded*
#: 8×8 mesh — the regime where only the NumPy plane helps: 0.6× of the
#: ratio ``BENCH_kernel.json`` records (3.91).
VECTOR_FULL_LOAD_TARGET = 2.3
#: Below its live-route gate the plane sleeps; gated, such a busy row must
#: run at least this fast against the plane batching it regardless (what
#: remains is host noise between two best-of-:data:`SAMPLES` times).
GATE_FLOOR = 0.9
#: Independent samples per schedule and row: each builds its own network, the
#: schedules take turns within a sample, and the row keeps every schedule's
#: best time (the host moves ±15 % within minutes).
SAMPLES = 3
#: Two-row scenarios around the plane's live-route gate, mesh size -> cycles:
#: a row circuit crosses ``size`` routers, so 3×3 carries 6 live routes and
#: 4×4 carries 8.
GATE_BRACKET_CYCLES = {3: 3000, 4: 1500}
GATE_BRACKET_ROWS = 2
#: Offered load of the paced-stream scenario: one word per 50 cycles — what
#: a bandwidth-admitted application channel typically paces at.
PACED_LOAD = 0.1
#: The timed tier must make paced traffic at least this much faster.
PACED_SPEEDUP_TARGET = 8.0
PACED_CYCLES = {4: 2500, 8: 1200}
#: The sharded scenario: a fully loaded 16×16 mesh split across 4 worker
#: processes.  Bit-identity with the single-process run is unconditional;
#: the wall-clock speedup target only binds on hosts with enough cores
#: (``host_cpus`` is recorded in the row so CI can gate on it).
SHARDED_MESH = 16
SHARDED_WORKERS = 4
SHARDED_CYCLES = 300
SHARDED_SPEEDUP_TARGET = 2.0
#: The transport comparison: the same sharded fabric run once over the pipe
#: transport (pickled frames through the parent) and once over the
#: shared-memory transport (struct-packed frames in preallocated rings).
#: Frame counts and exchange windows must match exactly; the shm rows must
#: move strictly fewer bytes per exchange window.
TRANSPORT_MESHES = (16, 32)
TRANSPORT_CYCLES = {16: 300, 32: 120}


def build_scenario(
    size: int, occupancy: float, schedule: str, load: float = 1.0
) -> CircuitSwitchedNoC:
    """A size×size mesh with ceil(size·occupancy) row streams at *load*."""
    mesh = Mesh2D(size, size)
    network = CircuitSwitchedNoC(mesh, frequency_hz=FREQUENCY_HZ, schedule=schedule)
    allocator = LaneAllocator(mesh)
    for row in range(math.ceil(size * occupancy)):
        name = f"row{row}"
        allocation = allocator.allocate(name, (0, row), (size - 1, row), 100.0, FREQUENCY_HZ)
        network.apply_allocation(allocation)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=row)
        network.add_stream(name, allocation, generator, load=load)
    return network


def _measure(network: CircuitSwitchedNoC, cycles: int) -> float:
    start = time.perf_counter()
    network.run(cycles)
    return time.perf_counter() - start


def run_benchmark(
    size: int, occupancy: float, cycles: int, load: float = 1.0, samples: int = SAMPLES
) -> dict:
    """Time both schedules on one scenario and verify bit-identity."""
    best = dict.fromkeys(SCHEDULES, math.inf)
    observables = {}
    schedulers = {}
    for _ in range(samples):
        for schedule in SCHEDULES:
            network = build_scenario(size, occupancy, schedule, load=load)
            best[schedule] = min(best[schedule], _measure(network, cycles))
            # Every sample of a schedule simulates the same thing.
            observables[schedule] = network.snapshot()
            schedulers[schedule] = network.kernel.scheduler_stats
            if schedule == "vector":
                live_routes = network.schedule_report()["live_routes"]
    ungated = {}
    if 0 < live_routes < MIN_BATCH_ROUTES:
        # What the gate spares this row: the plane batching it regardless.
        vector_plane.MIN_BATCH_ROUTES = 1
        try:
            elapsed = math.inf
            for _ in range(samples):
                network = build_scenario(size, occupancy, "vector", load=load)
                elapsed = min(elapsed, _measure(network, cycles))
        finally:
            vector_plane.MIN_BATCH_ROUTES = MIN_BATCH_ROUTES
        observables["vector, gate open"] = network.snapshot()
        # Gated over gate-open: what the gate buys this row.
        ungated = {"vector_ungated_speedup": round(elapsed / best["vector"], 2)}
    results = {schedule: cycles / elapsed for schedule, elapsed in best.items()}
    identical = all(observed == observables["strict"] for observed in observables.values())
    vector_stats = schedulers["vector"]
    return {
        "scenario": "row-stream" if load >= 1.0 else "paced-stream",
        "mesh": f"{size}x{size}",
        "occupancy": round(occupancy, 4),
        "active_rows": math.ceil(size * occupancy),
        "live_routes": live_routes,
        "load": load,
        "cycles": cycles,
        "strict_cycles_per_sec": round(results["strict"], 1),
        "vector_cycles_per_sec": round(results["vector"], 1),
        "speedup": round(results["vector"] / results["strict"], 2),
        **ungated,
        "occupancy_evaluated": round(vector_stats.occupancy, 4),
        "leaps": vector_stats.leaps,
        "leaped_cycles": vector_stats.leaped_cycles,
        "vector_batches": vector_stats.vector_batches,
        "vector_components": vector_stats.vector_components,
        "identical_results": identical,
    }


def gate_floor_violations(rows: list[dict]) -> list[str]:
    """Busy rows below the gate that ran gated slower than the floor allows."""
    return [
        f"{row['scenario']} {row['mesh']} occ={row['occupancy']}: "
        f"gated at {row['vector_ungated_speedup']}x of the open gate"
        for row in rows
        if row.get("vector_ungated_speedup", GATE_FLOOR) < GATE_FLOOR
    ]


def _fabric_scenario(
    size: int, shards: int | None = None, transport: str | None = None,
    kind: str = "circuit", schedule: str = DEFAULT_SCHEDULE,
):
    """A size×size full-load row-stream mesh of *kind* through the fabric front door.

    Built via :func:`~repro.noc.fabric.build_network` so the identical
    attachment sequence produces either the single-process network or the
    sharded one (``shards=N``, optionally pinned to one *transport*).
    """
    kwargs = {"frequency_hz": FREQUENCY_HZ, "schedule": schedule}
    if shards:
        kwargs["shards"] = shards
    if transport:
        kwargs["transport"] = transport
    network = build_network(kind, Mesh2D(size, size), **kwargs)
    for row in range(size):
        network.attach_channel(
            f"row{row}",
            (0, row),
            (size - 1, row),
            100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=row),
            load=1.0,
        )
    return network


def run_sharded_benchmark(
    size: int = SHARDED_MESH,
    workers: int = SHARDED_WORKERS,
    cycles: int = SHARDED_CYCLES,
) -> dict:
    """Time the single-process default kernel against *workers* shard processes.

    Bit-identity (``network.snapshot()``) is checked unconditionally; the recorded ``host_cpus`` lets CI require the
    ≥2× speedup only where the hardware can physically provide it.
    """
    single = _fabric_scenario(size)
    single_elapsed = _measure(single, cycles)
    single_snapshot = single.snapshot()

    sharded = _fabric_scenario(size, shards=workers)
    start = time.perf_counter()
    sharded.run(cycles)
    sharded_elapsed = time.perf_counter() - start
    sharded_snapshot = sharded.snapshot()
    transport = sharded.transport
    sharded.close()

    return {
        "scenario": "sharded",
        "mesh": f"{size}x{size}",
        "occupancy": 1.0,
        "active_rows": size,
        "load": 1.0,
        "cycles": cycles,
        "workers": workers,
        "transport": transport,
        "host_cpus": os.cpu_count(),
        "single_cycles_per_sec": round(cycles / single_elapsed, 1),
        "sharded_cycles_per_sec": round(cycles / sharded_elapsed, 1),
        "speedup": round(single_elapsed / sharded_elapsed, 2),
        "identical_results": single_snapshot == sharded_snapshot,
    }


def run_transport_benchmark(
    size: int = SHARDED_MESH,
    workers: int = SHARDED_WORKERS,
    cycles: int = SHARDED_CYCLES,
) -> list[dict]:
    """Run the sharded fabric over both transports and compare exchange cost.

    One single-process reference run establishes the expected observables;
    the pipe and shm sharded runs must both reproduce them bit-identically
    while the row records what each transport paid per exchange window:
    frames, bytes, bytes/window and overlap hits (windows whose inbound
    frames were already published when the reader arrived — latency the
    double-buffered rings hid entirely).
    """
    single = _fabric_scenario(size)
    single.run(cycles)
    reference = single.snapshot()

    rows = []
    for transport in ("pipe", "shm"):
        network = _fabric_scenario(size, shards=workers, transport=transport)
        elapsed = _measure(network, cycles)
        snapshot = network.snapshot()
        stats = network.stats
        network.close()
        # exchange_windows is merged over all workers; each fleet-wide
        # exchange contributes one window per worker.
        windows = stats.exchange_windows / workers
        rows.append(
            {
                "scenario": "shard-transport",
                "mesh": f"{size}x{size}",
                "occupancy": 1.0,
                "active_rows": size,
                "load": 1.0,
                "cycles": cycles,
                "workers": workers,
                "transport": transport,
                "cycles_per_sec": round(cycles / elapsed, 1),
                "frames_sent": stats.frames_sent,
                "frame_bytes": stats.frame_bytes,
                "exchange_windows": int(windows),
                "frame_bytes_per_window": round(stats.frame_bytes / windows, 2)
                if windows
                else 0.0,
                "overlap_hits": stats.overlap_hits,
                "identical_results": snapshot == reference,
            }
        )
    return rows


def run_all(cycles_override: int | None = None) -> list[dict]:
    rows = []
    for size in MESH_SIZES:
        for occupancy in OCCUPANCIES:
            cycles = cycles_override or CYCLES[size]
            rows.append(run_benchmark(size, occupancy, cycles))
    # Paced traffic: the same circuits, one word per 50 cycles — the timed
    # tier leaps from word to word instead of iterating the silent cycles.
    for size, cycles in PACED_CYCLES.items():
        rows.append(
            run_benchmark(size, 0.25, cycles_override or cycles, load=PACED_LOAD)
        )
    # The plane's gate, from both sides: two rows at full load and paced.
    for size, cycles in GATE_BRACKET_CYCLES.items():
        for load in (1.0, PACED_LOAD):
            rows.append(
                run_benchmark(size, GATE_BRACKET_ROWS / size, cycles_override or cycles, load=load)
            )
    # The sharded kernel: the same fabric partitioned over worker processes.
    rows.append(run_sharded_benchmark(cycles=cycles_override or SHARDED_CYCLES))
    # The transport comparison: pipe vs shared-memory exchange cost.
    for size in TRANSPORT_MESHES:
        rows.extend(
            run_transport_benchmark(
                size, cycles=cycles_override or TRANSPORT_CYCLES[size]
            )
        )
    return rows


# -- pytest entry points --------------------------------------------------------


def test_kernel_speedup_8x8_quarter_occupancy(once):
    """The acceptance bar: ≥3× on an 8×8 mesh at ≤25 % occupancy, identical results."""
    row = once(run_benchmark, 8, 0.25, 600)
    assert row["identical_results"]
    assert row["speedup"] >= SPEEDUP_TARGET


def test_kernel_idle_mesh_cost_is_activity_proportional(once):
    """An idle mesh must be orders of magnitude cheaper than a busy one."""
    row = once(run_benchmark, 8, 0.0, 600)
    assert row["identical_results"]
    assert row["speedup"] >= 20.0


def test_kernel_full_load_has_no_regression(once):
    """At 100 % occupancy the default schedule must not be slower than strict."""
    row = once(run_benchmark, 4, 1.0, 1000)
    assert row["identical_results"]
    assert row["speedup"] >= 0.85


def test_kernel_paced_stream_leaps_past_silent_cycles(once):
    """Paced traffic: the timed tier must leap, not iterate, between words."""
    row = once(run_benchmark, 8, 0.25, 1000, PACED_LOAD)
    assert row["identical_results"]
    assert row["leaps"] > 0
    assert row["speedup"] >= PACED_SPEEDUP_TARGET


def test_kernel_sharded_partition_is_bit_identical(once):
    """The sharded kernel's acceptance bar that binds on any host: the
    partitioned fabric must reproduce the single process exactly (the
    speedup bar is hardware-gated in CI via the recorded host_cpus)."""
    row = once(run_sharded_benchmark, 8, 2, 200)
    assert row["identical_results"]


def test_kernel_shm_transport_moves_fewer_bytes_per_window(once):
    """The shared-memory transport's acceptance bar: identical frames and
    windows as the pipe transport, strictly fewer bytes per exchange window
    (struct-packed records vs pickled tuples), and bit-identical results."""
    # 4 workers: the auto partition cuts the 8×8 mesh into 2×2 quadrants,
    # so every west→east row circuit crosses the vertical cut (a 2-shard
    # split is horizontal and the row streams would never leave a shard).
    rows = once(run_transport_benchmark, 8, 4, 200)
    by_transport = {row["transport"]: row for row in rows}
    assert all(row["identical_results"] for row in rows)
    pipe, shm = by_transport["pipe"], by_transport["shm"]
    assert shm["frames_sent"] == pipe["frames_sent"]
    assert shm["exchange_windows"] == pipe["exchange_windows"]
    assert 0 < shm["frame_bytes_per_window"] < pipe["frame_bytes_per_window"]
    assert shm["overlap_hits"] > 0 and pipe["overlap_hits"] == 0


def test_kernel_vector_schedule_wins_at_full_load(once):
    """The columnar plane's acceptance bar on the saturated 8×8 mesh — the
    regime where parking and leaping cannot help — with bit-identical
    results and real batched coverage."""
    row = once(run_benchmark, 8, 1.0, 600)
    assert row["identical_results"]
    assert row["speedup"] >= VECTOR_FULL_LOAD_TARGET
    assert row["vector_batches"] > 0
    assert row["vector_components"] >= row["vector_batches"]


# -- perf-trajectory file -------------------------------------------------------


def quick_smoke() -> None:
    """CI smoke: 8×8 measurements across the load range, identity required."""
    for occupancy, load, cycles in ((0.25, 1.0, 300), (0.25, PACED_LOAD, 600), (1.0, 1.0, 300)):
        row = run_benchmark(8, occupancy, cycles, load=load, samples=1)
        print(
            f"{row['scenario']} {row['mesh']} occ={row['occupancy']} "
            f"speedup={row['speedup']}x leaps={row['leaps']} "
            f"identical={row['identical_results']}"
        )
        if not row["identical_results"]:
            raise SystemExit(
                "schedule results diverged — the kernel optimisation is unsound"
            )
    for kind in ("gt", "packet"):
        snapshots = []
        for schedule in SCHEDULES:
            network = _fabric_scenario(8, kind=kind, schedule=schedule)
            network.run(300)
            snapshots.append(network.snapshot())
        identical = all(snapshot == snapshots[0] for snapshot in snapshots)
        print(f"row-stream {kind} 8x8 occ=1.0 {' == '.join(SCHEDULES)}: identical={identical}")
        if not identical:
            raise SystemExit(f"schedules diverged on the {kind} fabric — unsound")
    shard_row = run_sharded_benchmark(8, 2, 200)
    print(
        f"{shard_row['scenario']} {shard_row['mesh']} workers={shard_row['workers']} "
        f"host_cpus={shard_row['host_cpus']} transport={shard_row['transport']} "
        f"speedup={shard_row['speedup']}x identical={shard_row['identical_results']}"
    )
    if not shard_row["identical_results"]:
        raise SystemExit("sharded run diverged from the single process — unsound")
    # 4 workers so the 2×2 quadrant cut intersects the row circuits.
    transport_rows = run_transport_benchmark(8, 4, 200)
    by_transport = {row["transport"]: row for row in transport_rows}
    for row in transport_rows:
        print(
            f"{row['scenario']} {row['mesh']} transport={row['transport']} "
            f"bytes/window={row['frame_bytes_per_window']} "
            f"overlap_hits={row['overlap_hits']} identical={row['identical_results']}"
        )
        if not row["identical_results"]:
            raise SystemExit(
                f"{row['transport']} transport diverged from the single process — unsound"
            )
    if not (
        by_transport["shm"]["frame_bytes_per_window"]
        < by_transport["pipe"]["frame_bytes_per_window"]
    ):
        raise SystemExit("shm transport did not reduce bytes per exchange window")


#: Source files of the layers ``--profile`` attributes self time to.
PROFILE_LAYERS = {
    "converter": ("core/data_converter.py",),
    "plane": ("sim/vector.py",),
    "routers": ("core/router.py", "core/crossbar.py", "core/lane.py", "core/flow_control.py"),
    "endpoints": ("core/testbench.py", "apps/traffic.py"),
    "kernel": ("sim/engine.py", "sim/signals.py"),
}


def _profile_layer(filename: str) -> str | None:
    for layer, files in PROFILE_LAYERS.items():
        if filename.endswith(files):
            return layer
    return None


def layer_shares(stats) -> dict[str, float]:
    """Each layer's share of the profiled self time.

    A function counts for the layer whose file defines it; everything else
    (built-ins, numpy, ``repro/common.py``) counts for the layer that called
    it, and for ``other`` when no layer did.
    """
    seconds: dict[str, float] = {}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.stats.items():
        layer = _profile_layer(filename)
        if layer is not None:
            seconds[layer] = seconds.get(layer, 0.0) + tottime
            continue
        for (caller_file, _l, _n), (_c, _n2, caller_tottime, _c2) in callers.items():
            owner = _profile_layer(caller_file) or "other"
            seconds[owner] = seconds.get(owner, 0.0) + caller_tottime
        if not callers:
            seconds["other"] = seconds.get("other", 0.0) + tottime
    total = sum(seconds.values()) or 1.0
    return {layer: value / total for layer, value in seconds.items()}


def profile_hottest(cycles: int = 400, top: int = 20) -> None:
    """cProfile the hottest scenario (full-load 8×8) and print the top
    functions by cumulative time and the per-layer self-time shares, once
    under the default schedule."""
    import cProfile
    import pstats

    for schedule in (DEFAULT_SCHEDULE,):
        network = build_scenario(8, 1.0, schedule)
        profiler = cProfile.Profile()
        profiler.enable()
        network.run(cycles)
        profiler.disable()
        print(f"\n=== full-load 8x8, schedule={schedule}, {cycles} cycles ===")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(top)
        shares = layer_shares(stats)
        print(f"self-time share by layer, schedule={schedule}:")
        for layer in (*PROFILE_LAYERS, "other"):
            print(f"  {layer:<10} {100.0 * shares.get(layer, 0.0):5.1f} %")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single fast scenario, assert identical_results, no JSON rewrite",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the full-load 8x8 scenario (default schedule), print the "
        "top-20 cumulative functions and the per-layer self-time shares "
        "(converter, plane, routers, ...), no JSON rewrite",
    )
    arguments = parser.parse_args()
    if arguments.profile:
        profile_hottest()
        return
    if arguments.quick:
        quick_smoke()
        return
    rows = run_all()
    payload = {
        "benchmark": "kernel",
        "description": (
            "Simulated cycles/second of the circuit-switched mesh under the "
            "strict (every-component) and the default vector schedule (the "
            "leaping clock plus the struct-of-arrays wire plane batching whole "
            "fabric cycles through NumPy at or above its live-route gate; below "
            "it the datapath walks the routers' own programs); identical_results asserts "
            "bit-identical activity counters and delivered words between the "
            "two.  row-stream rows carry full-load circuits; paced-stream rows "
            "carry the same circuits at one word per 50 cycles, where the kernel "
            "leaps the clock between word injections.  speedup is vector vs "
            "strict; leaps, leaped_cycles and vector_batches are "
            "the vector run's.  min_batch_routes is the plane's gate, "
            "live_routes what a row's plane counted against it, and the two-row "
            "3x3 / 4x4 rows put 6 and 8 live routes around it; a busy row below "
            "the gate also records vector_ungated_speedup, the gated rate over "
            "the rate of the plane batching it regardless.  "
            "Every schedule's rate is the best of samples_per_schedule "
            "independent samples.  The sharded row times the 16x16 full-load "
            "fabric split over worker processes against the single-process "
            "default kernel; its speedup is single vs sharded wall-clock and "
            "only binds on hosts with host_cpus >= 4.  shard-transport rows "
            "run the same sharded fabric over the pipe transport (pickled "
            "frames through the parent) and the shared-memory transport "
            "(struct-packed frames in preallocated double-buffered rings); "
            "frame_bytes_per_window is the merged boundary traffic divided "
            "by fleet-wide exchange windows, and the shm row must stay "
            "strictly below the pipe row at every mesh size."
        ),
        "host": (
            f"{os.cpu_count()} CPUs, {platform.system()} {platform.release()} "
            f"{platform.machine()}, Python {platform.python_version()}, numpy {numpy.__version__}"
        ),
        "frequency_hz": FREQUENCY_HZ,
        "default_schedule": DEFAULT_SCHEDULE,
        "min_batch_routes": MIN_BATCH_ROUTES,
        "samples_per_schedule": SAMPLES,
        "speedup_target_8x8_low_occupancy": SPEEDUP_TARGET,
        "speedup_target_paced_stream": PACED_SPEEDUP_TARGET,
        "speedup_target_vector_full_load": VECTOR_FULL_LOAD_TARGET,
        "gate_floor": GATE_FLOOR,
        "speedup_target_sharded": SHARDED_SPEEDUP_TARGET,
        "results": rows,
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    for row in rows:
        if row["scenario"] == "shard-transport":
            print(
                f"{row['scenario']:<13} {row['mesh']} workers={row['workers']} "
                f"transport={row['transport']:<4} "
                f"{row['cycles_per_sec']:>9} cyc/s "
                f"frames={row['frames_sent']} "
                f"bytes/window={row['frame_bytes_per_window']:>8} "
                f"overlap_hits={row['overlap_hits']} "
                f"identical={row['identical_results']}"
            )
            continue
        if row["scenario"] == "sharded":
            print(
                f"{row['scenario']:<13} {row['mesh']} workers={row['workers']} "
                f"host_cpus={row['host_cpus']} "
                f"single={row['single_cycles_per_sec']:>9} cyc/s "
                f"sharded={row['sharded_cycles_per_sec']:>9} cyc/s "
                f"speedup={row['speedup']:>6}x identical={row['identical_results']}"
            )
            continue
        print(
            f"{row['scenario']:<13} {row['mesh']} occ={row['occupancy']:<6} "
            f"routes={row['live_routes']:<3} strict={row['strict_cycles_per_sec']:>9} cyc/s "
            f"vector={row['vector_cycles_per_sec']:>9} cyc/s "
            f"speedup={row['speedup']:>7}x "
            f"identical={row['identical_results']}"
        )
    if not all(row["identical_results"] for row in rows):
        raise SystemExit("schedule results diverged — the kernel optimisation is unsound")
    violations = gate_floor_violations(rows)
    if violations:
        raise SystemExit("the plane's gate cost a busy row:\n  " + "\n  ".join(violations))


if __name__ == "__main__":
    main()
