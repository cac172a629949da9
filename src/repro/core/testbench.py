"""Stream endpoints that emulate the surroundings of a router.

The power experiments of Section 6/7 exercise one router with streams that
enter or leave through its neighbour ports (Table 3: Tile→East, North→Tile,
West→East).  These classes stand in for the upstream and downstream routers
and the local processing tile:

* :class:`LaneStreamDriver` — emulates an upstream router driving one lane of
  an incoming link (it contains the same serialiser and window counter a real
  source would use),
* :class:`LaneStreamConsumer` — emulates a downstream router plus destination
  tile: it deserialises one lane of an outgoing link, consumes the words and
  returns acknowledge pulses,
* :class:`TileStreamDriver` / :class:`TileStreamConsumer` — the same roles for
  streams that start or end at the router's own tile interface.

They are records, not kernel components: the
:class:`~repro.core.router.LaneDatapath` clocking the router adopts them
(``datapath.adopt(record)``) and runs them inside its cycle — ahead of the
routers (reading what they committed the cycle before) when adopted before
it joined a kernel, as a bench does, and after them otherwise.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.data_converter import LaneDeserializer, LaneSerializer, ReceivedWord
from repro.core.flow_control import FlowControlConfig
from repro.core.header import phits_per_packet
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter
from repro.energy.activity import REG_TOGGLE_BITS, ActivityCounters, ActivityKeys
from repro.sim.datapath import LinkEndpoint

__all__ = [
    "WordSource",
    "LoadPacer",
    "LaneStreamDriver",
    "LaneStreamConsumer",
    "TileStreamDriver",
    "TileStreamConsumer",
]

#: A callable producing the next data word of a stream.
WordSource = Callable[[], int]


class LoadPacer:
    """Turns a load fraction into a word-emission schedule.

    A lane transports one word every ``phits_per_packet`` cycles at 100 %
    load; the pacer accumulates ``load`` credits per cycle and releases a word
    whenever a full packet's worth of credit is available.

    The credit arithmetic is exact: the load is split into its integer
    numerator/denominator (every float is a dyadic rational) and the credit
    is an integer in units of ``1/denominator``.  Exactness is what lets
    :meth:`emit_from` leap from one emission to the next in closed form,
    bit-identical to consulting the pacer once per cycle.
    """

    def __init__(self, load: float, cycles_per_word: int) -> None:
        if not 0.0 <= load <= 1.0:
            raise ValueError("load must be within [0, 1]")
        if cycles_per_word < 1:
            raise ValueError("cycles_per_word must be positive")
        self.load = load
        self.cycles_per_word = cycles_per_word
        numerator, denominator = float(load).as_integer_ratio()
        self._step = numerator
        self._threshold = cycles_per_word * denominator
        self._credit = 0

    def emit_from(self, cycle: int) -> Optional[int]:
        """Emit at the first due cycle from *cycle* on and return it (``None``:
        zero load, never): the first cycle whose ``load`` credit, accrued
        once per cycle from *cycle* on, reaches a packet's worth.  The next
        emission is ``emit_from(due + 1)``."""
        step = self._step
        if not step:
            return None
        gap = -(-(self._threshold - self._credit) // step)  # >= 1: the credit stays below the threshold
        self._credit += step * gap - self._threshold
        return cycle + gap - 1

    def reset(self) -> None:
        """Back to the power-on state: no credit accumulated."""
        self._credit = 0


class _LinkEndpoint(LinkEndpoint):
    """One lane of a link and the lane unit behind it, whose idle cycles
    book its constant register bits."""

    def __init__(self, name: str, link: LaneLink, lane: int) -> None:
        link.read_forward(lane)  # the lane is checked once, here
        super().__init__(name, link)
        self.lane = lane
        self._forward = link.forward
        self._ack = link.ack
        self.activity = ActivityCounters(name)

    def book_idle(self, cycles: int) -> None:
        """What *cycles* idle ticks of the lane unit record."""
        self.activity.add(ActivityKeys.REG_CLOCKED_BITS, self._unit.idle_cycle_bits * cycles)
        self.activity.slots[REG_TOGGLE_BITS] += 0


class LaneStreamDriver(_LinkEndpoint):
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

    _wakes_on = "ack_dirty"

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
        super().__init__(name, link, lane)
        self.word_source = word_source
        self.data_width = data_width
        self.serializer = self._unit = LaneSerializer(
            lane, link.lane_width, data_width, tx_queue_depth=4, flow=flow, activity=self.activity
        )
        self.pacer = LoadPacer(load, phits_per_packet(data_width, link.lane_width))
        self.words_offered = 0
        self.words_dropped = 0

    def emit(self, cycle: int) -> None:
        """Offer one word: queue it in the serialiser unless its queue is full."""
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
        """Words actually loaded into the lane."""
        return self.serializer.words_loaded

    def reset(self) -> None:
        self.serializer.reset()
        self.pacer.reset()
        self.words_offered = 0
        self.words_dropped = 0
        # The wire is this driver's register output: back to idle with it.
        self.link.drive_forward(self.lane, 0)


class LaneStreamConsumer(_LinkEndpoint):
    """Consumes one lane of a link *out of* the router under test: the
    adopting :class:`~repro.core.router.LaneDatapath` steps its deserialiser
    while a phit or an acknowledge moves it."""

    _wakes_on = "forward_dirty"

    def __init__(
        self,
        name: str,
        link: LaneLink,
        lane: int,
        data_width: int = 16,
        flow: FlowControlConfig = FlowControlConfig(),
    ) -> None:
        super().__init__(name, link, lane)
        self.deserializer = self._unit = LaneDeserializer(
            lane, link.lane_width, data_width, flow=flow, activity=self.activity
        )
        self.received: List[ReceivedWord] = []

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

    @property
    def words_received(self) -> int:
        """Words fully reassembled and consumed."""
        return len(self.received)

    def reset(self) -> None:
        self.deserializer.reset()
        self.received.clear()
        self.link.drive_ack(self.lane, False)


class TileStreamDriver:
    """Feeds a stream into the router through its own tile interface: the
    datapath clocking *router* fires it (:meth:`emit`)."""

    def __init__(
        self,
        name: str,
        router: CircuitSwitchedRouter,
        lane: int,
        word_source: WordSource,
        load: float = 1.0,
        mark_blocks: Optional[int] = None,
    ) -> None:
        self.name = name
        self.router = router
        self.lane = lane
        self.word_source = word_source
        self.mark_blocks = mark_blocks
        self.pacer = LoadPacer(load, phits_per_packet(router.data_width, router.lane_width))
        self.words_sent = 0
        self.words_dropped = 0
        self._index = 0

    @property
    def words_offered(self) -> int:
        """Words the pacer offered, sent or dropped."""
        return self.words_sent + self.words_dropped

    def emit(self, cycle: int) -> None:
        """Offer one word at the tile interface (dropped when the lane queue is full)."""
        sob = eob = False
        if self.mark_blocks:
            position = self._index % self.mark_blocks
            sob = position == 0
            eob = position == self.mark_blocks - 1
        if self.router.tile.send(self.lane, self.word_source(), sob=sob, eob=eob):
            self.words_sent += 1
            self._index += 1
        else:
            self.words_dropped += 1

    def reset(self) -> None:
        self.pacer.reset()
        self.words_sent = 0
        self.words_dropped = 0
        self._index = 0


class TileStreamConsumer:
    """Drains words arriving at the router's tile interface: a delivery on
    its lane queues it in the datapath clocking *router* (:meth:`drain`)."""

    def __init__(self, name: str, router: CircuitSwitchedRouter, lane: int) -> None:
        self.name = name
        self.router = router
        self.lane = lane
        self.received: List[ReceivedWord] = []

    def drain(self) -> None:
        """Read every word waiting on the lane."""
        receive = self.router.tile.receive
        while (word := receive(self.lane)) is not None:
            self.received.append(word)

    @property
    def words_received(self) -> int:
        """Words delivered to the local tile."""
        return len(self.received)

    def reset(self) -> None:
        self.received.clear()
