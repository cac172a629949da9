"""Tests for the test-bench stream endpoints of every router kind (pacing,
flow control, the shared driver and sink contract)."""

from __future__ import annotations

import pytest
from conftest import clock_of
from pacing import CyclePacer, emissions

from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.baseline.testbench import PacketLinkDriver, PacketLinkSink, PacketTileDriver
from repro.common import Port
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter, LaneDatapath
from repro.core.testbench import CircuitLinkDriver, CircuitLinkSink, CircuitTileDriver
from repro.noc.gt_network import GtLinkDriver, GtLinkSink, GtTileDriver, SlotTableRouter, TdmaDatapath, TdmaLink
from repro.sim.datapath import LoadPacer
from repro.sim.engine import SimulationKernel


class TestLoadPacer:
    def test_full_load_emits_every_five_cycles(self):
        assert emissions(LoadPacer(1.0, 5), 50) == [4, 9, 14, 19, 24, 29, 34, 39, 44, 49]

    def test_half_load_emits_every_ten_cycles(self):
        assert len(emissions(LoadPacer(0.5, 5), 100)) == 10

    @pytest.mark.parametrize("load", [0.05, 0.1, 0.25, 0.3, 0.6, 0.8, 1.0])
    def test_leaps_match_a_per_cycle_consultation(self, load):
        """emit_from's leaps reproduce a per-cycle consultation cycle for cycle."""
        stepped = CyclePacer(load, 5)
        assert emissions(LoadPacer(load, 5), 2000) == [c for c in range(2000) if stepped.should_emit()]

    def test_zero_load_never_emits(self):
        assert LoadPacer(0.0, 5).emit_from(0) is None
        assert not CyclePacer(0.0, 5).should_emit()

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            LoadPacer(1.5, 5)
        with pytest.raises(ValueError):
            LoadPacer(0.5, 0)


class _CountingSource:
    """A word source that counts its draws."""

    def __init__(self):
        self.draws = 0

    def __call__(self):
        self.draws += 1
        return self.draws & 0xFFFF


#: Per kind, a tile driver over a bare router whose queue holds four words, and its words sent,
#: dropped and drawn after twelve offers: the circuit one draws a word before the full lane drops
#: it, the GT one drops undrawn, the packet one sends a packet every four words and never drops.
TILE_DRIVERS = {
    "circuit": (lambda words: CircuitTileDriver("src", CircuitSwitchedRouter("r"), 0, words, load=0.7), (4, 8, 12)),
    "gt": (lambda words: GtTileDriver("src", SlotTableRouter("r"), "a", words, load=0.7, queue_limit=4), (4, 8, 4)),
    "packet": (lambda words: PacketTileDriver("src", PacketSwitchedRouter("r", position=(1, 1)), words, (2, 1), 0.7,
                                              words_per_packet=4), (12, 0, 12)),
}


@pytest.mark.parametrize("kind", sorted(TILE_DRIVERS))
def test_tile_driver_counts_every_offer_and_resets_to_power_on(kind):
    build, expected = TILE_DRIVERS[kind]
    source = _CountingSource()
    driver, due = build(source), -1
    for _ in range(12):  # as its datapath fires it, the queue never draining
        due = driver.pacer.emit_from(due + 1)
        driver.emit(due)
    assert driver.words_offered == 12 == driver.words_sent + driver.words_dropped
    assert (driver.words_sent, driver.words_dropped, source.draws) == expected
    assert driver.pacer._credit != 0
    driver.reset()
    assert (driver.words_offered, driver.words_sent, driver.words_dropped, driver.pacer._credit) == (0, 0, 0, 0)


def _routerless(*endpoints, datapath_class=LaneDatapath):
    """A datapath over no router running link-side endpoints wired back to back."""
    datapath = datapath_class("direct", [])
    for endpoint in endpoints:
        datapath.adopt(endpoint)
    return datapath


def test_lane_driver_drops_an_offer_undrawn_while_its_serialiser_queue_is_full():
    source = _CountingSource()
    driver = CircuitLinkDriver("src", LaneLink("direct"), 0, source)
    _routerless(driver)  # an emission marks the adopted unit
    for cycle in range(12):
        driver.emit(cycle)
    assert (driver.words_offered, driver.words_dropped, source.draws) == (12, 8, 4)


def _gt_sink(link):
    sink = GtLinkSink("dst", link, 16)
    sink.claim(0x0ACE, frozenset(range(16)))  # every word is the stream's
    return sink


#: Per kind, its wire, a link driver at full load and a sink wired back to
#: back over it, the options of the datapath clocking them and the words sent
#: and received in 500 cycles (the window counter, the owned slots or the
#: credits pace them).
LINK_PAIRS = {
    "circuit": (LaneLink, lambda link: (CircuitLinkDriver("src", link, 0, lambda: 0x0ACE),
                                        CircuitLinkSink("dst", link, 0)), {}, (100, 99)),
    "gt": (TdmaLink, lambda link: (GtLinkDriver("src", link, 16, frozenset({2, 9}), lambda: 0x0ACE), _gt_sink(link)),
           # A TDMA datapath takes its slot count from a router: one with no links.
           {"datapath_class": lambda name, _: TdmaDatapath(name, [SlotTableRouter("r")])}, (63, 63)),
    "packet": (PacketLink, lambda link: (PacketLinkDriver("src", link, lambda: 0x0ACE, (1, 0), (0, 0), words_per_packet=8),
                                         PacketLinkSink("dst", link)), {"datapath_class": PacketDatapath}, (96, 96)),
}


@pytest.mark.parametrize("kind", sorted(LINK_PAIRS))
def test_link_driver_feeds_its_sink_back_to_back_and_both_reset_to_power_on(kind):
    wire, pair, options, (sent, received) = LINK_PAIRS[kind]
    driver, sink = pair(wire("direct"))
    kernel = SimulationKernel(25e6)
    kernel.add(_routerless(driver, sink, **options))
    kernel.run(500)
    assert (driver.words_sent, driver.words_dropped, sink.words_received) == (sent, 0, received)
    assert {getattr(word, "data", word) for word in sink.received} == {0x0ACE}
    driver.reset()
    sink.reset()
    assert (driver.words_offered, driver.words_sent, driver.words_dropped, driver.pacer._credit) == (0, 0, 0, 0)
    assert sink.words_received == 0


def test_lane_driver_respects_pacing_at_quarter_load():
    link = LaneLink("direct")
    driver = CircuitLinkDriver("src", link, 0, lambda: 1, load=0.25)
    consumer = CircuitLinkSink("dst", link, 0)
    kernel = SimulationKernel(25e6)
    kernel.add(_routerless(driver, consumer))
    kernel.run(400)
    assert driver.words_offered == pytest.approx(20, abs=1)


def test_lane_driver_stalls_without_acks():
    """With nobody acknowledging, the driver's window counter stops it."""
    link = LaneLink("direct")
    driver = CircuitLinkDriver("src", link, 0, lambda: 2, load=1.0)
    kernel = SimulationKernel(25e6)
    kernel.add(_routerless(driver))
    kernel.run(400)
    window = driver.serializer.window.config.window_size
    assert driver.serializer.words_loaded == window


def test_block_markers_follow_ofdm_symbol_structure():
    """With mark_blocks=N the driver raises SOB on the first and EOB on the
    last word of every N-word block (used for OFDM symbols)."""
    router = CircuitSwitchedRouter("r")
    tx = LaneLink("tx")
    router.attach_link(Port.EAST, LaneLink("rx"), tx)
    router.configure(Port.EAST, 0, Port.TILE, 0)
    driver = CircuitTileDriver("src", router, 0, lambda: 0x1234, load=1.0, mark_blocks=4)
    consumer = CircuitLinkSink("dst", tx, 0)
    kernel = SimulationKernel(25e6)
    kernel.add(clock_of(router, driver, consumer))
    kernel.run(200)
    received = consumer.received
    assert len(received) >= 8
    for index, word in enumerate(received):
        assert word.sob == (index % 4 == 0)
        assert word.eob == (index % 4 == 3)


def test_packet_link_driver_respects_credit_limit():
    """Without credit returns the driver may only send the downstream
    buffer depth worth of flits."""
    link = PacketLink("direct")
    driver = PacketLinkDriver(
        "src", link, lambda: 1, dest=(1, 0), src=(0, 0), load=1.0, vc=0,
        words_per_packet=4, downstream_buffer_depth=6,
    )
    kernel = SimulationKernel(25e6)
    kernel.add(_routerless(driver, datapath_class=PacketDatapath))
    kernel.run(400)
    assert driver.flits_sent == 6
