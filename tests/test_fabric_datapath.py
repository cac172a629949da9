"""The adoption contract of the datapath skeleton (repro.sim.datapath).

A router is clocked by at most one datapath, of either kind; a GT datapath
clocks routers of one slot-table size.  A refused datapath adopts nothing.
A stream endpoint is adopted by one datapath once, and a kernel clocks
only the datapath that runs it.
"""

from __future__ import annotations

import pytest

from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.common import NEIGHBOR_PORTS, ConfigurationError, Port
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter, LaneDatapath
from repro.core.testbench import LaneStreamConsumer, LaneStreamDriver, TileStreamConsumer, TileStreamDriver
from repro.noc import Mesh2D, build_network
from repro.noc.gt_network import GtStreamDriver, SlotTableRouter, TdmaDatapath
from repro.sim.engine import SimulationKernel

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
    driver = GtStreamDriver("src", router, "a", lambda: 1, load=1.0, cycles_per_word=4)
    datapath.drivers.adopt(driver, 0)
    with pytest.raises(ConfigurationError, match="'src' is already adopted"):
        datapath.drivers.adopt(driver, 0)
    kernel = SimulationKernel(25e6)
    kernel.add(datapath)
    kernel.run(64)
    assert driver.words_offered == 16


def _circuit_bench_endpoints(router, links):
    return [
        TileStreamDriver("src", router, 0, lambda: 0x1234),
        LaneStreamConsumer("dst", links[Port.EAST][1], 0),
        LaneStreamDriver("in", links[Port.NORTH][0], 0, lambda: 0x4321, load=0.5),
        TileStreamConsumer("out", router, 0),
    ]


def test_a_circuit_bench_kernel_clocks_only_its_datapath():
    router = CircuitSwitchedRouter("dut")
    links = {}
    for port in NEIGHBOR_PORTS:
        links[port] = (LaneLink(f"rx_{port.short_name}"), LaneLink(f"tx_{port.short_name}"))
        router.attach_link(port, *links[port])
    router.configure(Port.EAST, 0, Port.TILE, 0)
    router.configure(Port.TILE, 0, Port.NORTH, 0)
    datapath = LaneDatapath("datapath", [router])
    endpoints = _circuit_bench_endpoints(router, links)
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
    assert endpoints[1].words_received > 40 and endpoints[3].words_received > 20


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
