"""Tests for the test-bench traffic drivers of both routers (pacing, flow control)."""

from __future__ import annotations

import pytest
from conftest import clock_of
from pacing import emissions

from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath
from repro.baseline.testbench import PacketStreamConsumer, PacketStreamDriver
from repro.common import Port
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter, LaneDatapath
from repro.core.testbench import (
    LaneStreamConsumer,
    LaneStreamDriver,
    LoadPacer,
    TileStreamDriver,
)
from repro.sim.engine import SimulationKernel


class TestLoadPacer:
    def test_full_load_emits_every_five_cycles(self):
        assert len(emissions(LoadPacer(1.0, 5), 100)) == 20

    def test_half_load_emits_every_ten_cycles(self):
        assert len(emissions(LoadPacer(0.5, 5), 100)) == 10

    def test_zero_load_never_emits(self):
        assert LoadPacer(0.0, 5).emit_from(0) is None

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            LoadPacer(1.5, 5)
        with pytest.raises(ValueError):
            LoadPacer(0.5, 0)


def _routerless(*endpoints, datapath_class=LaneDatapath):
    """A datapath over no router running link-side endpoints wired back to back."""
    datapath = datapath_class("direct", [])
    for endpoint in endpoints:
        datapath.adopt(endpoint)
    return datapath


class TestLaneStreamDriverConsumer:
    def test_driver_to_consumer_without_router(self):
        """Driver and consumer wired back to back over one LaneLink behave like
        a source/destination pair with working window-counter flow control."""
        link = LaneLink("direct")
        driver = LaneStreamDriver("src", link, 0, lambda: 0xCAFE, load=1.0)
        consumer = LaneStreamConsumer("dst", link, 0)
        kernel = SimulationKernel(25e6)
        kernel.add(_routerless(driver, consumer))
        kernel.run(500)
        assert driver.words_sent == pytest.approx(100, abs=2)
        assert consumer.words_received >= driver.words_sent - 2
        assert all(word.data == 0xCAFE for word in consumer.received)
        assert driver.words_dropped == 0

    def test_driver_respects_pacing_at_quarter_load(self):
        link = LaneLink("direct")
        driver = LaneStreamDriver("src", link, 0, lambda: 1, load=0.25)
        consumer = LaneStreamConsumer("dst", link, 0)
        kernel = SimulationKernel(25e6)
        kernel.add(_routerless(driver, consumer))
        kernel.run(400)
        assert driver.words_offered == pytest.approx(20, abs=1)

    def test_driver_stalls_without_acks(self):
        """With nobody acknowledging, the driver's window counter stops it."""
        link = LaneLink("direct")
        driver = LaneStreamDriver("src", link, 0, lambda: 2, load=1.0)
        kernel = SimulationKernel(25e6)
        kernel.add(_routerless(driver))
        kernel.run(400)
        window = driver.serializer.window.config.window_size
        assert driver.serializer.words_loaded == window

    def test_reset(self):
        link = LaneLink("direct")
        driver = LaneStreamDriver("src", link, 0, lambda: 3, load=1.0)
        consumer = LaneStreamConsumer("dst", link, 0)
        kernel = SimulationKernel(25e6)
        kernel.add(_routerless(driver, consumer))
        kernel.run(50)
        driver.reset()
        consumer.reset()
        assert driver.words_offered == 0
        assert consumer.words_received == 0


class TestTileStreamDriverBlocks:
    def test_block_markers_follow_ofdm_symbol_structure(self):
        """With mark_blocks=N the driver raises SOB on the first and EOB on the
        last word of every N-word block (used for OFDM symbols)."""
        router = CircuitSwitchedRouter("r")
        tx = LaneLink("tx")
        router.attach_link(Port.EAST, LaneLink("rx"), tx)
        router.configure(Port.EAST, 0, Port.TILE, 0)
        driver = TileStreamDriver("src", router, 0, lambda: 0x1234, load=1.0, mark_blocks=4)
        consumer = LaneStreamConsumer("dst", tx, 0)
        kernel = SimulationKernel(25e6)
        kernel.add(clock_of(router, driver, consumer))
        kernel.run(200)
        received = consumer.received
        assert len(received) >= 8
        for index, word in enumerate(received):
            assert word.sob == (index % 4 == 0)
            assert word.eob == (index % 4 == 3)


class TestPacketStreamDriverConsumer:
    def test_driver_to_consumer_over_packet_link(self):
        link = PacketLink("direct")
        driver = PacketStreamDriver(
            "src", link, lambda: 0xBEEF, dest=(1, 0), src=(0, 0), load=1.0, vc=0,
            words_per_packet=8,
        )
        consumer = PacketStreamConsumer("dst", link)
        kernel = SimulationKernel(25e6)
        kernel.add(_routerless(driver, consumer, datapath_class=PacketDatapath))
        kernel.run(600)
        assert driver.words_sent > 0
        assert consumer.words_received >= driver.words_sent - 8
        assert set(consumer.received_words) == {0xBEEF}

    def test_driver_respects_credit_limit(self):
        """Without credit returns the driver may only send the downstream
        buffer depth worth of flits."""
        link = PacketLink("direct")
        driver = PacketStreamDriver(
            "src", link, lambda: 1, dest=(1, 0), src=(0, 0), load=1.0, vc=0,
            words_per_packet=4, downstream_buffer_depth=6,
        )
        kernel = SimulationKernel(25e6)
        kernel.add(_routerless(driver, datapath_class=PacketDatapath))
        kernel.run(400)
        assert driver.flits_sent == 6

    def test_reset(self):
        link = PacketLink("direct")
        driver = PacketStreamDriver(
            "src", link, lambda: 1, dest=(1, 0), src=(0, 0), load=1.0, vc=0
        )
        consumer = PacketStreamConsumer("dst", link)
        kernel = SimulationKernel(25e6)
        kernel.add(_routerless(driver, consumer, datapath_class=PacketDatapath))
        kernel.run(200)
        driver.reset()
        consumer.reset()
        assert driver.words_sent == 0
        assert consumer.words_received == 0
