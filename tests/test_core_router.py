"""Tests for the circuit-switched router (single-router behaviour)."""

from __future__ import annotations

import itertools
import random

import pytest
from conftest import clock_of

from repro.common import ConfigurationError, Port, SimulationError
from repro.core.configuration import ConfigurationCommand
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter
from repro.core.testbench import (
    LaneStreamConsumer,
    LaneStreamDriver,
    TileStreamConsumer,
    TileStreamDriver,
)
from repro.energy.activity import ActivityKeys
from repro.sim.engine import SCHEDULES, ClockedComponent, SimulationKernel


def words(seed: int = 0):
    rng = random.Random(seed)
    return lambda: rng.getrandbits(16)


class TestRouterConstruction:
    def test_tile_interface_exposed(self):
        router = CircuitSwitchedRouter("r")
        assert router.tile.lanes == 4

    def test_attach_link_geometry_checked(self):
        router = CircuitSwitchedRouter("r")
        with pytest.raises(ConfigurationError):
            router.attach_link(Port.EAST, LaneLink("bad", num_lanes=2), None)

    def test_attach_link_rejects_tile_port(self):
        router = CircuitSwitchedRouter("r")
        with pytest.raises(ConfigurationError):
            router.attach_link(Port.TILE, LaneLink("rx"), LaneLink("tx"))

    def test_links_queryable(self):
        router = CircuitSwitchedRouter("r")
        rx, tx = LaneLink("rx"), LaneLink("tx")
        router.attach_link(Port.NORTH, rx, tx)
        assert router.rx_link(Port.NORTH) is rx
        assert router.tx_link(Port.NORTH) is tx
        assert router.rx_link(Port.SOUTH) is None

    def test_area_and_frequency_accessors(self):
        router = CircuitSwitchedRouter("r")
        assert router.total_area_mm2 == pytest.approx(0.0506, rel=0.05)
        assert router.max_frequency_mhz() == pytest.approx(1075, rel=0.05)

    def test_configuration_commands_apply(self):
        router = CircuitSwitchedRouter("r")
        router.apply_command(ConfigurationCommand(Port.EAST, 0, True, Port.TILE, 0))
        assert router.active_circuits() == 1
        assert router.activity.get(ActivityKeys.CONFIG_WRITES) == 1
        router.deconfigure(Port.EAST, 0)
        assert router.active_circuits() == 0


class TestWritesBetweenCycles:
    """A relink or a configuration write inside a cycle raises, under either
    schedule, as a GT or packet router's does; between cycles (a hook) it is
    allowed."""

    WRITES = {
        "configure": lambda router: router.configure(Port.EAST, 0, Port.TILE, 0),
        "deconfigure": lambda router: router.deconfigure(Port.NORTH, 1),
        "apply_command": lambda router: router.apply_command(ConfigurationCommand(Port.EAST, 0, True, Port.TILE, 0)),
    }

    @staticmethod
    def _writer(write):
        """A component whose commit at cycle 1 calls *write*."""
        commit = {"commit": lambda self, cycle: cycle == 1 and write()}
        return type("Writer", (ClockedComponent,), {"evaluate": id, **commit})("writer")

    def test_attach_link_inside_a_cycle_raises(self):
        for schedule in SCHEDULES:
            router, kernel = CircuitSwitchedRouter("victim"), SimulationKernel(25e6, schedule=schedule)
            kernel.add(clock_of(router))
            router.attach_link(Port.EAST, LaneLink("a"), None)  # between cycles: allowed
            kernel.run(1)
            assert router.tx_link(Port.EAST) is None and router.rx_link(Port.EAST).name == "a"
            kernel.add(self._writer(lambda: router.attach_link(Port.EAST, LaneLink("b"), None)))
            with pytest.raises(SimulationError, match="'victim'.*inside cycle 1 .commit phase"):
                kernel.run(4)
            assert router.rx_link(Port.EAST).name == "a", schedule

    def test_configuration_write_inside_a_cycle_raises(self):
        for schedule, (name, write) in itertools.product(SCHEDULES, self.WRITES.items()):
            router, kernel = CircuitSwitchedRouter("victim"), SimulationKernel(25e6, schedule=schedule)
            router.configure(Port.NORTH, 1, Port.TILE, 1)
            kernel.add(clock_of(router))
            router.configure(Port.SOUTH, 2, Port.TILE, 2)  # between cycles: allowed
            kernel.run(1)
            assert router.active_circuits() == 2
            kernel.add(self._writer(lambda: write(router)))
            with pytest.raises(SimulationError, match="'victim'.*inside cycle 1 .commit phase"):
                kernel.run(4)
            assert router.active_circuits() == 2, (schedule, name)
            assert router.activity.get(ActivityKeys.CONFIG_WRITES) == 2, (schedule, name)


class TestRouterDataPath:
    def test_tile_to_east_stream(self, cs_router_with_links, kernel_25mhz):
        router, links = cs_router_with_links
        router.configure(Port.EAST, 0, Port.TILE, 0)
        driver = TileStreamDriver("src", router, 0, words(1), load=1.0)
        consumer = LaneStreamConsumer("dst", links[Port.EAST][1], 0)
        kernel_25mhz.add(clock_of(router, driver, consumer))
        kernel_25mhz.run(200)
        assert driver.words_sent >= 35
        assert consumer.words_received >= driver.words_sent - 3
        # Delivered payloads match the injected sequence.
        reference = words(1)
        expected = [reference() for _ in range(consumer.words_received)]
        assert [w.data for w in consumer.received] == expected

    def test_link_to_tile_stream(self, cs_router_with_links, kernel_25mhz):
        router, links = cs_router_with_links
        router.configure(Port.TILE, 0, Port.NORTH, 0)
        driver = LaneStreamDriver("src", links[Port.NORTH][0], 0, words(2), load=1.0)
        consumer = TileStreamConsumer("dst", router, 0)
        kernel_25mhz.add(clock_of(router, driver, consumer))
        kernel_25mhz.run(200)
        assert consumer.words_received >= driver.words_sent - 3

    def test_pass_through_stream(self, cs_router_with_links, kernel_25mhz):
        router, links = cs_router_with_links
        router.configure(Port.EAST, 1, Port.WEST, 0)
        driver = LaneStreamDriver("src", links[Port.WEST][0], 0, words(3), load=1.0)
        consumer = LaneStreamConsumer("dst", links[Port.EAST][1], 1)
        kernel_25mhz.add(clock_of(router, driver, consumer))
        kernel_25mhz.run(200)
        assert consumer.words_received >= driver.words_sent - 3

    def test_lane_multiplexing_keeps_streams_separate(self, cs_router_with_links, kernel_25mhz):
        """Two streams to the same output port use different lanes and must not mix."""
        router, links = cs_router_with_links
        router.configure(Port.EAST, 0, Port.TILE, 0)
        router.configure(Port.EAST, 1, Port.WEST, 0)
        tile_driver = TileStreamDriver("src_tile", router, 0, lambda: 0x1111, load=1.0)
        west_driver = LaneStreamDriver("src_west", links[Port.WEST][0], 0, lambda: 0x2222, load=1.0)
        east0 = LaneStreamConsumer("dst0", links[Port.EAST][1], 0)
        east1 = LaneStreamConsumer("dst1", links[Port.EAST][1], 1)
        kernel_25mhz.add(clock_of(router, tile_driver, west_driver, east0, east1))
        kernel_25mhz.run(300)
        assert east0.words_received > 0 and east1.words_received > 0
        assert {w.data for w in east0.received} == {0x1111}
        assert {w.data for w in east1.received} == {0x2222}

    def test_unconsumed_stream_stalls_on_window(self, cs_router_with_links, kernel_25mhz):
        """Without a consumer returning acknowledges, the window counter stops
        the source after `window_size` words — no data is lost or duplicated."""
        router, links = cs_router_with_links
        router.configure(Port.EAST, 0, Port.TILE, 0)
        driver = TileStreamDriver("src", router, 0, words(4), load=1.0)
        kernel_25mhz.add(clock_of(router, driver))  # no consumer: nobody acknowledges
        kernel_25mhz.run(300)
        window = router.converter.serializers[0].window.config.window_size
        assert router.converter.serializers[0].window.packets_sent == window

    def test_no_links_attached_router_still_runs(self, kernel_25mhz):
        router = CircuitSwitchedRouter("isolated")
        kernel_25mhz.add(clock_of(router))
        kernel_25mhz.run(10)
        assert router.activity.cycles == 10

    def test_reset_clears_activity_and_state(self, cs_router_with_links, kernel_25mhz):
        router, links = cs_router_with_links
        router.configure(Port.EAST, 0, Port.TILE, 0)
        driver = TileStreamDriver("src", router, 0, words(5), load=1.0)
        consumer = LaneStreamConsumer("dst", links[Port.EAST][1], 0)
        kernel_25mhz.add(clock_of(router, driver, consumer))
        kernel_25mhz.run(50)
        router.reset()
        assert router.activity.cycles == 0
        assert router.activity.as_dict() == {}


class TestRouterActivityAndPower:
    def test_idle_router_has_no_toggles(self, cs_router_with_links, kernel_25mhz):
        router, _ = cs_router_with_links
        kernel_25mhz.add(clock_of(router))
        kernel_25mhz.run(100)
        assert router.activity.get(ActivityKeys.REG_TOGGLE_BITS) == 0
        assert router.activity.get(ActivityKeys.LINK_TOGGLE_BITS) == 0

    def test_active_router_records_toggles_and_words(self, cs_router_with_links, kernel_25mhz):
        router, links = cs_router_with_links
        router.configure(Port.EAST, 0, Port.TILE, 0)
        driver = TileStreamDriver("src", router, 0, words(6), load=1.0)
        consumer = LaneStreamConsumer("dst", links[Port.EAST][1], 0)
        kernel_25mhz.add(clock_of(router, driver, consumer))
        kernel_25mhz.run(200)
        activity = router.activity
        assert activity.get(ActivityKeys.REG_TOGGLE_BITS) > 0
        assert activity.get(ActivityKeys.XBAR_TOGGLE_BITS) > 0
        assert activity.get(ActivityKeys.LINK_TOGGLE_BITS) > 0
        assert activity.get(ActivityKeys.WORDS_INJECTED) == driver.words_sent

    def test_busy_router_consumes_more_power_than_idle(self, kernel_25mhz):
        def run(configured: bool) -> float:
            router = CircuitSwitchedRouter("r")
            rx, tx = LaneLink("rx"), LaneLink("tx")
            router.attach_link(Port.EAST, rx, tx)
            kernel = SimulationKernel(25e6)
            components = []
            if configured:
                router.configure(Port.EAST, 0, Port.TILE, 0)
                components = [
                    TileStreamDriver("src", router, 0, words(7), load=1.0),
                    LaneStreamConsumer("dst", tx, 0),
                ]
            kernel.add(clock_of(router, *components))
            kernel.run(500)
            return router.power(25e6).total_uw

        assert run(configured=True) > run(configured=False)

    def test_clock_gating_reduces_idle_power(self, kernel_25mhz):
        def run(gating: bool) -> float:
            router = CircuitSwitchedRouter("r", clock_gating=gating)
            kernel = SimulationKernel(25e6)
            kernel.add(clock_of(router))
            kernel.run(500)
            return router.power(25e6).total_uw

        assert run(gating=True) < 0.5 * run(gating=False)
