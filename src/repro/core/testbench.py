"""Stream endpoints that emulate the surroundings of a circuit router.

The power experiments of Section 6/7 exercise one router with streams that
enter or leave through its neighbour ports (Table 3: Tile→East, North→Tile,
West→East).  These records stand in for the upstream and downstream routers
and the local processing tile; each is a :class:`~repro.sim.datapath.
StreamDriver` or :class:`~repro.sim.datapath.StreamSink` that adds only how
it injects or collects a word:

* :class:`CircuitLinkDriver` — an upstream router driving one lane of an
  incoming link (it contains the same serialiser and window counter a real
  source would use),
* :class:`CircuitLinkSink` — a downstream router plus destination tile: it
  deserialises one lane of an outgoing link, consumes the words and returns
  acknowledge pulses,
* :class:`CircuitTileDriver` / :class:`CircuitTileSink` — the same roles for
  streams that start or end at the router's own tile interface.

The :class:`~repro.core.router.LaneDatapath` clocking the router adopts them
(``datapath.adopt(record)``) and runs them inside its cycle — ahead of the
routers (reading what they committed the cycle before) when adopted before
it joined a kernel, as a bench does, and after them otherwise.
"""

from __future__ import annotations

from typing import Optional

from repro.core.data_converter import LaneDeserializer, LaneSerializer
from repro.core.flow_control import FlowControlConfig
from repro.core.header import phits_per_packet
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter
from repro.energy.activity import REG_TOGGLE_BITS, ActivityCounters, ActivityKeys
from repro.sim.datapath import LinkEndpoint, LoadPacer, StreamDriver, StreamSink, WordSource

__all__ = [
    "CircuitLinkDriver",
    "CircuitLinkSink",
    "CircuitTileDriver",
    "CircuitTileSink",
]


class _LaneEndpoint(LinkEndpoint):
    """One lane of a link and the lane unit behind it, whose idle cycles
    book its constant register bits."""

    def _attach(self, link: LaneLink, lane: int) -> None:
        link.read_forward(lane)  # the lane is checked once, here
        self.link = link
        self.lane = lane
        self._forward = link.forward
        self._ack = link.ack
        self.activity = ActivityCounters(self.name)

    def book_idle(self, cycles: int) -> None:
        """What *cycles* idle ticks of the lane unit record."""
        self.activity.add(ActivityKeys.REG_CLOCKED_BITS, self._unit.idle_cycle_bits * cycles)
        self.activity.slots[REG_TOGGLE_BITS] += 0


class CircuitLinkDriver(StreamDriver, _LaneEndpoint):
    """Drives one lane of a link *into* the router under test.

    Parameters
    ----------
    link:
        The :class:`LaneLink` attached as the router's incoming bundle on the
        chosen port; the driver plays the role of the upstream router.
    lane:
        Which lane of the bundle the stream occupies.
    word_source:
        Callable returning the next 16-bit data word.
    load:
        Offered load as a fraction of the lane's capacity (1.0 = a word every
        5 cycles at the default geometry).

    The adopting datapath fires it (:meth:`emit`) and steps its serialiser
    while a queued word or an acknowledge moves it.
    """

    _listens_to = "ack_dirty"

    def __init__(
        self,
        name: str,
        link: LaneLink,
        lane: int,
        word_source: WordSource,
        load: float = 1.0,
        data_width: int = 16,
        flow: FlowControlConfig = FlowControlConfig(),
    ) -> None:
        super().__init__(name, word_source, LoadPacer(load, phits_per_packet(data_width, link.lane_width)))
        self._attach(link, lane)
        self.serializer = self._unit = LaneSerializer(
            lane, link.lane_width, data_width, tx_queue_depth=4, flow=flow, activity=self.activity
        )

    def emit(self, cycle: int) -> None:
        """Offer one word: draw and queue it in the serialiser unless its
        queue is full (then it is dropped undrawn)."""
        self.words_offered += 1
        if self.serializer.can_accept():
            self.serializer.submit_word(self.word_source())
            self.mark()
        else:
            self.words_dropped += 1

    def step(self, cycle: int) -> bool:
        """The serialiser takes the acknowledge and drives its phit; False
        once, idle and unacknowledged, it would only clock."""
        lane = self.lane
        serializer = self.serializer
        serializer.tick(self._ack[lane])
        phit = serializer._current_phit
        if phit != self._forward[lane]:
            self.link.drive_forward(lane, phit)
        return not serializer.quiescent or self._ack[lane]

    @property
    def words_sent(self) -> int:
        """Words actually loaded into the lane, counted by the serialiser."""
        return self.serializer.words_loaded

    @words_sent.setter
    def words_sent(self, value: int) -> None:
        """The record's zeroing: the serialiser's own reset zeroes the count."""

    def reset(self) -> None:
        super().reset()
        self.serializer.reset()
        # The wire is this driver's register output: back to idle with it.
        self.link.drive_forward(self.lane, 0)


class CircuitLinkSink(StreamSink, _LaneEndpoint):
    """Consumes one lane of a link *out of* the router under test: the
    adopting :class:`~repro.core.router.LaneDatapath` steps its deserialiser
    while a phit or an acknowledge moves it."""

    _listens_to = "forward_dirty"

    def __init__(
        self,
        name: str,
        link: LaneLink,
        lane: int,
        data_width: int = 16,
        flow: FlowControlConfig = FlowControlConfig(),
    ) -> None:
        super().__init__(name)
        self._attach(link, lane)
        self.deserializer = self._unit = LaneDeserializer(
            lane, link.lane_width, data_width, flow=flow, activity=self.activity
        )

    def step(self, cycle: int) -> bool:
        """The deserialiser samples the lane, the destination tile reads every
        word at once (it never stalls), the acknowledge is driven; False once
        an idle lane into a quiescent deserialiser would only clock."""
        lane = self.lane
        deserializer = self.deserializer
        deserializer.tick(self._forward[lane], cycle)
        while (word := deserializer.receive()) is not None:
            self.received.append(word)
        pulse = deserializer._ack_pulse
        if pulse != self._ack[lane]:
            self.link.drive_ack(lane, pulse)
        return self._forward[lane] or not deserializer.quiescent

    def reset(self) -> None:
        super().reset()
        self.deserializer.reset()
        self.link.drive_ack(self.lane, False)


class CircuitTileDriver(StreamDriver):
    """Feeds a stream into the router through its own tile interface: the
    datapath clocking *router* fires it (:meth:`emit`).  With *mark_blocks*
    set, the first word of every block of that many sent words carries SOB
    and the last EOB."""

    def __init__(
        self,
        name: str,
        router: CircuitSwitchedRouter,
        lane: int,
        word_source: WordSource,
        load: float = 1.0,
        mark_blocks: Optional[int] = None,
    ) -> None:
        super().__init__(name, word_source, LoadPacer(load, phits_per_packet(router.data_width, router.lane_width)))
        self.router = router
        self.lane = lane
        self.mark_blocks = mark_blocks
        self._send = router.tile.send

    def emit(self, cycle: int) -> None:
        """Offer one word at the tile interface: it is drawn, then dropped
        when the lane queue is full."""
        self.words_offered += 1
        sob = eob = False
        if self.mark_blocks:
            position = self.words_sent % self.mark_blocks
            sob = position == 0
            eob = position == self.mark_blocks - 1
        if self._send(self.lane, self.word_source(), sob=sob, eob=eob):
            self.words_sent += 1
        else:
            self.words_dropped += 1


class CircuitTileSink(StreamSink):
    """Drains words arriving at the router's tile interface: a delivery on
    its lane queues it in the datapath clocking *router* (:meth:`drain`)."""

    def __init__(self, name: str, router: CircuitSwitchedRouter, lane: int) -> None:
        super().__init__(name)
        self.router = router
        self.lane = lane

    def drain(self) -> None:
        """Read every word waiting on the lane."""
        receive = self.router.tile.receive
        while (word := receive(self.lane)) is not None:
            self.received.append(word)
