#!/usr/bin/env python3
"""Quickstart: one circuit-switched router moving a data stream.

This example builds the smallest meaningful system:

* one reconfigurable circuit-switched router,
* a lane link on its east port (standing in for a neighbouring router),
* a circuit from the local tile (lane 0) to the east port (lane 0),
* a stream of 16-bit words pushed in through the tile interface.

It then prints what happened: words delivered, the router's switching
activity, and the static / internal / switching power estimate at the paper's
25 MHz operating point.

A second part runs a small circuit-switched mesh under the default schedule
and prints which schedule actually executed its routers and why
(``network.schedule_report()``).  With ``--shards N`` that mesh is
partitioned across ``N`` worker processes (:mod:`repro.sim.shard`) and the
cross-shard merged scheduler statistics are printed next to the delivered
words.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import argparse
import random

from repro import CircuitSwitchedRouter, LaneDatapath, LaneLink, Port
from repro.core.testbench import LaneStreamConsumer, TileStreamDriver
from repro.sim import SimulationKernel


def main() -> None:
    # 1. Build the router and attach a link on the east port.
    router = CircuitSwitchedRouter("router_0_0")
    east_rx = LaneLink("east_rx")   # towards the router (unused here)
    east_tx = LaneLink("east_tx")   # away from the router (we consume this side)
    router.attach_link(Port.EAST, east_rx, east_tx)

    # 2. Configure a circuit: tile-port input lane 0 -> east output lane 0.
    #    In the full system the CCN would do this through a 10-bit command
    #    delivered over the best-effort network.
    router.configure(Port.EAST, 0, Port.TILE, 0)

    # 3. A traffic source on the tile interface and a consumer behind the link.
    rng = random.Random(42)
    driver = TileStreamDriver("source", router, lane=0, word_source=lambda: rng.getrandbits(16), load=1.0)
    consumer = LaneStreamConsumer("sink", east_tx, lane=0)

    # 4. Run 200 us at 25 MHz (the paper's power-experiment operating point);
    #    a one-router datapath clocks the router and runs both endpoints.
    datapath = LaneDatapath("datapath", [router])
    datapath.adopt(driver)
    datapath.adopt(consumer)
    kernel = SimulationKernel(frequency_hz=25e6)
    kernel.add(datapath)
    kernel.run(5000)

    # 5. Report.
    print("=== quickstart: tile -> east circuit ===")
    print(f"simulated time        : {kernel.time_seconds * 1e6:.0f} us at 25 MHz")
    print(f"words sent by the tile: {driver.words_sent}")
    print(f"words delivered east  : {consumer.words_received}")
    print(f"payload transported   : {consumer.words_received * 2} bytes")
    first = consumer.received[0]
    print(f"first delivered word  : 0x{first.data:04X} (arrived in cycle {first.cycle})")

    power = router.power(frequency_hz=25e6)
    print()
    print("router power estimate (modelled 0.13 um, 25 MHz):")
    print(f"  static    : {power.static_uw:8.1f} uW")
    print(f"  internal  : {power.internal_uw:8.1f} uW")
    print(f"  switching : {power.switching_uw:8.1f} uW")
    print(f"  total     : {power.total_uw:8.1f} uW "
          f"({power.dynamic_uw_per_mhz:.1f} uW/MHz dynamic)")
    print()
    print(f"router area           : {router.total_area_mm2:.4f} mm^2")
    print(f"maximum clock         : {router.max_frequency_mhz():.0f} MHz")
    print(f"active circuits       : {router.active_circuits()} of 20 output lanes")

    # A bare kernel has no network around it and hence no vector plane: the
    # default schedule is the leaping clock alone here (see mesh_demo below
    # for what a network reports).
    print()
    print("scheduler (bare kernel, leaping clock):")
    for key, value in kernel.scheduler_stats.as_dict().items():
        print(f"  {key:<16}: {value}")


def mesh_demo(shards: int) -> None:
    """A 4×4 circuit-switched mesh under the default schedule — in this
    process, or split over *shards* worker processes."""
    from repro.apps.traffic import BitFlipPattern, word_generator
    from repro.noc.fabric import build_network
    from repro.noc.topology import Mesh2D

    network = build_network("circuit", Mesh2D(4, 4), frequency_hz=25e6, shards=shards or None)
    network.attach_channel(
        "demo", (0, 0), (3, 3), 50.0, word_generator(BitFlipPattern.TYPICAL, seed=7)
    )
    network.run(2000)
    print()
    if shards:
        print(
            f"=== sharded quickstart: 4x4 mesh over {shards} workers "
            f"({network.transport} transport) ==="
        )
    else:
        print("=== quickstart: 4x4 mesh, default schedule ===")
    for name, entry in network.stream_statistics().items():
        print(f"stream {name:<12}: {entry['received']} of {entry['sent']} words delivered")
    report = network.schedule_report()
    print(
        f"schedule            : requested {report['requested']!r}, "
        f"routers run {report['effective']!r}"
        + (f" ({report['reason']})" if report["reason"] else "")
    )
    print(
        f"                      {report['batched_cycles']} cycles batched in NumPy, "
        f"{report['scalar_cycles']} on the routers' own programs, "
        f"{report['live_routes']} live routes at the gate"
    )
    if not shards:
        return
    print("cross-shard scheduler statistics (merged over all workers):")
    for key, value in network.stats.as_dict().items():
        print(f"  {key:<16}: {value}")
    stats = network.stats
    if stats.exchange_windows:
        windows = stats.exchange_windows / shards
        print(
            f"boundary exchange: {stats.frames_sent} frames, "
            f"{stats.frame_bytes / windows:.1f} bytes/window over "
            f"{windows:.0f} windows, {stats.overlap_hits} overlap hits"
        )
    network.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run the small mesh partitioned over N worker processes",
    )
    args = parser.parse_args()
    main()
    mesh_demo(args.shards)
