"""The adoption contract of the datapath skeleton (repro.sim.datapath).

A router is clocked by at most one datapath, of either kind; a GT datapath
clocks routers of one slot-table size.  A refused datapath adopts nothing.
A stream endpoint is adopted by one datapath once, and a kernel clocks
only the datapath that runs it.
"""

from __future__ import annotations

import pytest

from repro.baseline.flit import COORD_MASK, SRC_SHIFT
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.baseline.testbench import PacketLinkDriver, PacketLinkSink, PacketTileDriver
from repro.common import NEIGHBOR_PORTS, ConfigurationError, Port, SimulationError
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter, LaneDatapath
from repro.core.testbench import CircuitLinkDriver, CircuitLinkSink, CircuitTileDriver, CircuitTileSink
from repro.noc import Mesh2D, build_network
from repro.noc.gt_network import (
    GtLinkDriver, GtLinkSink, GtTileDriver, SlotTableRouter, TdmaDatapath, TdmaLink,
)
from repro.sim.engine import SCHEDULES, ClockedComponent, SimulationKernel

KINDS = {"gt": (TdmaDatapath, SlotTableRouter), "packet": (PacketDatapath, PacketSwitchedRouter)}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_router_adopted_by_a_second_datapath_raises(kind):
    datapath_class, router_class = KINDS[kind]
    taken, fresh = router_class("taken"), router_class("fresh")
    first = datapath_class("first", [taken])
    with pytest.raises(ConfigurationError, match="'taken' already has a datapath"):
        datapath_class("second", [fresh, taken])
    assert taken.datapath is first and fresh.datapath is None


def test_a_tdma_datapath_over_two_slot_table_sizes_raises():
    routers = [SlotTableRouter("a", slots=4), SlotTableRouter("b", slots=8)]
    with pytest.raises(ConfigurationError, match="one slot-table size"):
        TdmaDatapath("mixed", routers)
    assert [router.datapath for router in routers] == [None, None]


def test_a_driver_adopted_twice_raises_and_fires_once():
    """A second adoption of one driver used to push a second heap entry, so
    the driver offered twice its words with no error."""
    router = SlotTableRouter("dut", slots=4)
    datapath = TdmaDatapath("datapath", [router])
    driver = GtTileDriver("src", router, "a", lambda: 1, load=1.0, cycles_per_word=4)
    datapath.drivers.adopt(driver, 0)
    with pytest.raises(ConfigurationError, match="'src' is already adopted"):
        datapath.drivers.adopt(driver, 0)
    kernel = SimulationKernel(25e6)
    kernel.add(datapath)
    kernel.run(64)
    assert driver.words_offered == 16


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_a_driver_adopted_inside_a_cycle_is_refused(schedule):
    """A driver adopted from another component's commit used to be due in a cycle
    already past: it sent 0 words in 100 cycles, 100 when adopted between cycles."""

    def bench():
        router = SlotTableRouter("dut", slots=4)
        for slot in range(4):
            router.program(Port.EAST, slot, Port.TILE, "a")
        datapath = TdmaDatapath("datapath", [router])
        kernel = SimulationKernel(25e6, schedule=schedule)
        kernel.add(datapath)
        kernel.run(12)
        return datapath, kernel, GtTileDriver("src", router, "a", lambda: 1, load=1.0)

    datapath, kernel, driver = bench()
    kernel.add(type("Adopter", (ClockedComponent,), {"commit": lambda self, cycle: datapath.adopt(driver)})("a"))
    with pytest.raises(SimulationError, match="'src' adopted inside cycle 12"):
        kernel.step()
    assert driver.words_offered == 0 and datapath.drivers.next_due is None and not datapath.drivers.count
    datapath, kernel, driver = bench()
    datapath.adopt(driver)
    kernel.run(100)
    assert driver.words_sent == 100


def _attach(router, make_link):
    links = {port: (make_link(f"rx_{port.short_name}"), make_link(f"tx_{port.short_name}")) for port in NEIGHBOR_PORTS}
    for port, pair in links.items():
        router.attach_link(port, *pair)
    return links


def _circuit_bench():
    router = CircuitSwitchedRouter("dut")
    links = _attach(router, LaneLink)
    router.configure(Port.EAST, 0, Port.TILE, 0)
    router.configure(Port.TILE, 0, Port.NORTH, 0)
    router.configure(Port.EAST, 1, Port.WEST, 0)
    endpoints = [
        CircuitTileDriver("s1_src", router, 0, lambda: 0x1234),
        CircuitLinkSink("s1_dst", links[Port.EAST][1], 0),
        CircuitLinkDriver("s2_src", links[Port.NORTH][0], 0, lambda: 0x4321, load=0.5),
        CircuitTileSink("s2_dst", router, 0),
        CircuitLinkDriver("s3_src", links[Port.WEST][0], 0, lambda: 0x5678),
        CircuitLinkSink("s3_dst", links[Port.EAST][1], 1),
    ]
    return LaneDatapath("datapath", [router]), endpoints, lambda: [e.words_received for e in endpoints[1::2]]


def _gt_bench():
    router = SlotTableRouter("dut", slots=16)
    links = _attach(router, TdmaLink)
    for slot in range(4):
        router.program(Port.EAST, slot, Port.TILE, "s1")
        router.program(Port.TILE, slot, Port.NORTH, "s2")
        router.program(Port.EAST, slot + 4, Port.WEST, "s3")
    east = GtLinkSink("east_dst", links[Port.EAST][1], 16)
    east.claim(1, frozenset(range(4)))
    east.claim(3, frozenset(range(4, 8)))
    endpoints = [
        GtTileDriver("s1_src", router, "s1", lambda: 0x1234, cycles_per_word=4),
        east,
        GtLinkDriver("s2_src", links[Port.NORTH][0], 16, frozenset(range(4)), lambda: 0x4321, load=0.5),
        GtLinkDriver("s3_src", links[Port.WEST][0], 16, frozenset(range(4, 8)), lambda: 0x5678),
    ]
    delivered = lambda: [east.words_received_for(1), router.tile.words_received("s2"), east.words_received_for(3)]
    return TdmaDatapath("datapath", [router]), endpoints, delivered


def _packet_bench():
    router = PacketSwitchedRouter("dut", position=(1, 1))
    links = _attach(router, PacketLink)
    east = PacketLinkSink("east_dst", links[Port.EAST][1])
    endpoints = [
        PacketTileDriver("s1_src", router, lambda: 0x1234, dest=(2, 1), vc=0),
        east,
        PacketLinkDriver("s2_src", links[Port.NORTH][0], lambda: 0x4321, dest=(1, 1), src=(1, 2), load=0.5, vc=1),
        PacketLinkDriver("s3_src", links[Port.WEST][0], lambda: 0x5678, dest=(2, 1), src=(0, 1), vc=2),
    ]
    def delivered():  # East's flits by the x of their source (the tile's 1, West's 0) around the tile's words
        senders = [flit >> SRC_SHIFT & COORD_MASK for flit in east.received_flits]
        return [senders.count(1), router.tile.words_received, senders.count(0)]

    return PacketDatapath("datapath", [router]), endpoints, delivered


#: Scenario IV of Table 3 (tile to East, North to tile, West to East) on one router of each kind,
#: with the fewest words each stream delivers in 300 cycles.
_BENCHES = {
    "circuit": (_circuit_bench, (40, 20, 40)),
    "gt": (_gt_bench, (60, 30, 60)),
    "packet": (_packet_bench, (40, 12, 40)),
}


@pytest.mark.parametrize("kind", sorted(_BENCHES))
def test_a_bench_kernel_clocks_only_its_datapath(kind):
    """Its link stream endpoints too, which used to be kernel components."""
    build, minimums = _BENCHES[kind]
    datapath, endpoints, delivered = build()
    for endpoint in endpoints:
        assert datapath.adopt(endpoint) is endpoint
        with pytest.raises(ConfigurationError, match="already adopted"):
            datapath.adopt(endpoint)
    kernel = SimulationKernel(25e6)
    kernel.add(datapath)
    for endpoint in endpoints:
        with pytest.raises(TypeError, match="expected a ClockedComponent"):
            kernel.add(endpoint)
    kernel.run(300)
    assert kernel.components == (datapath,)
    assert all(words > least for words, least in zip(delivered(), minimums))


@pytest.mark.parametrize("kind", sorted(_BENCHES))
def test_a_released_link_consumer_counts_no_more(kind):
    """Released mid-run, a bench's East consumers are stepped no more: the
    two streams to East stop counting while North to tile keeps delivering."""
    datapath, endpoints, delivered = _BENCHES[kind][0]()
    for endpoint in endpoints:
        datapath.adopt(endpoint)
    kernel = SimulationKernel(25e6)
    kernel.add(datapath)
    kernel.run(150)
    for endpoint in endpoints:
        if hasattr(endpoint, "step") and not hasattr(endpoint, "pacer"):
            datapath.release(endpoint)
    before = delivered()
    kernel.run(150)
    after = delivered()
    assert after[0::2] == before[0::2] and after[1] > before[1]


def test_a_circuit_fabric_kernel_clocks_only_its_datapath():
    """After streams attach, after a detach and re-attach, and after a fault."""
    network = build_network("circuit", Mesh2D(4, 3))
    only_the_datapath = (network.datapath,)
    for row in range(3):
        network.attach_channel(f"row{row}", (0, row), (3, row), 100.0, lambda: 0xBEEF)
    network.run(100)
    assert network.kernel.components == only_the_datapath
    network.detach_channel("row1", drain_cycles=40)
    network.attach_channel("row1", (0, 1), (3, 1), 100.0, lambda: 0xBEEF)
    network.run(100)
    assert network.kernel.components == only_the_datapath
    network.fail_link((1, 0), (2, 0))
    network.refresh_routing(network.degraded_topology())
    network.run(100)
    assert network.kernel.components == only_the_datapath
    assert all(entry["received"] > 0 for entry in network.stream_statistics().values())


@pytest.mark.parametrize("load", [0.1, 1.0])
def test_a_bench_tile_consumer_drains_the_cycle_after_a_delivery(load):
    """A lane stream into the tile of a one-router bench whose endpoints were
    adopted before the datapath joined its kernel: the consumer reads each
    word in the cycle after its delivery under the default schedule as
    under ``strict`` - also when the router parks at the delivery (a word
    whose last phit is idle) and the next driver is due cycles later."""
    received = {}
    for schedule in SCHEDULES:
        router, rx = CircuitSwitchedRouter("dut"), LaneLink("rx")
        router.attach_link(Port.WEST, rx, LaneLink("west_tx"))
        router.configure(Port.TILE, 0, Port.WEST, 0)
        consumer = CircuitTileSink("dst", router, 0)
        datapath = LaneDatapath("datapath", [router])
        datapath.adopt(CircuitLinkDriver("src", rx, 0, lambda: 0x0F00, load))
        datapath.adopt(consumer)
        kernel = SimulationKernel(25e6, schedule=schedule)
        kernel.add(datapath)
        received[schedule] = [kernel.step() and len(consumer.received) for _ in range(300)]
    assert received["vector"] == received["strict"] and received["strict"][-1] > 0
