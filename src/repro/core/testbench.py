"""Test-bench components that emulate the surroundings of a single router.

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

They are ordinary :class:`repro.sim.ClockedComponent` objects, so a scenario
is simply a kernel containing a handful of these plus the one-router
:class:`~repro.core.router.LaneDatapath` clocking the router under test.
The GT and packet tile drivers are no components: the datapath clocking
their router fires them from its own
:class:`~repro.sim.datapath.DriverSchedule`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.data_converter import LaneDeserializer, LaneSerializer, ReceivedWord
from repro.core.flow_control import FlowControlConfig
from repro.core.header import phits_per_packet
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter
from repro.energy.activity import REG_TOGGLE_BITS, ActivityCounters, ActivityKeys
from repro.sim.engine import ClockedComponent

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
    is an integer in units of ``1/denominator``.  Exactness is what makes the
    pacer *leapable* — :meth:`cycles_until_emit` predicts the next emission
    cycle in closed form and :meth:`skip` fast-forwards over known-silent
    cycles, both bit-identical to calling :meth:`should_emit` once per cycle.
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

    def should_emit(self) -> bool:
        """Advance one cycle and report whether a word should be offered now."""
        credit = self._credit + self._step
        if credit >= self._threshold:
            self._credit = credit - self._threshold
            return True
        self._credit = credit
        return False

    def cycles_until_emit(self) -> Optional[int]:
        """Number of :meth:`should_emit` calls until the next ``True``.

        ``1`` means the very next call emits; ``None`` means never (zero
        load).  Pure prediction — the pacer state is not advanced.
        """
        if self._step == 0:
            return None
        deficit = self._threshold - self._credit
        return -(-deficit // self._step) if deficit > 0 else 1

    def skip(self, cycles: int) -> None:
        """Fast-forward over *cycles* calls known not to emit.

        Exactly equivalent to *cycles* :meth:`should_emit` calls that all
        return ``False``; the caller guarantees the emission horizon from
        :meth:`cycles_until_emit` is not crossed.
        """
        self._credit += self._step * cycles

    def next_emit_cycle(self, cycle: int) -> Optional[int]:
        """The cycle of the next emission, for one call per cycle from *cycle*.

        The timed-driver protocol in one place: a driver that consults the
        pacer once per evaluate can report this directly as its
        ``next_event_cycle`` (``None`` = zero load, never).
        """
        gap = self.cycles_until_emit()
        return None if gap is None else cycle + gap - 1

    def emit_from(self, cycle: int) -> Optional[int]:
        """Emit at the first due cycle from *cycle* on and return it (``None``:
        zero load, never): one :meth:`should_emit` per cycle from *cycle* up
        to the one that returns ``True``, in closed form.  The next emission
        is ``emit_from(due + 1)``."""
        step = self._step
        if not step:
            return None
        gap = -(-(self._threshold - self._credit) // step)  # >= 1: the credit stays below the threshold
        self._credit += step * gap - self._threshold
        return cycle + gap - 1

    def reset(self) -> None:
        """Back to the power-on state: no credit accumulated."""
        self._credit = 0


class LaneStreamDriver(ClockedComponent):
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
    """

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
        super().__init__(name)
        link.read_forward(lane)  # the lane is checked once, here
        self.link = link
        self.lane = lane
        self._forward = link.forward
        self._ack = link.ack
        self.word_source = word_source
        self.data_width = data_width
        self.activity = ActivityCounters(name)
        self.serializer = LaneSerializer(
            lane, link.lane_width, data_width, tx_queue_depth=4, flow=flow, activity=self.activity
        )
        self._pacer = LoadPacer(load, phits_per_packet(data_width, link.lane_width))
        self.words_offered = 0
        self.words_dropped = 0
        # Event schedule: an acknowledge arriving while the driver is parked
        # between emissions must put it back on the batch (the router end of
        # the bundle owns the forward dirty-bit; the ack one fans out here).
        link.ack_dirty.add_listener(self.wake)

    def evaluate(self, cycle: int) -> None:
        if self._pacer.should_emit():
            self.words_offered += 1
            if self.serializer.can_accept():
                self.serializer.submit_word(self.word_source())
            else:
                self.words_dropped += 1

    def commit(self, cycle: int) -> None:
        lane = self.lane
        serializer = self.serializer
        serializer.tick(self._ack[lane])
        phit = serializer._current_phit
        if phit != self._forward[lane]:
            self.link.drive_forward(lane, phit)

    # -- timed protocol: between emissions an idle serialiser only clocks ----

    #: The driver samples the acknowledge wire in its commit; a commit-phase
    #: ack from an earlier-committing router must replay the cycle.
    commit_wake_replays_cycle = True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if not self.serializer.quiescent or self._ack[self.lane]:
            return cycle
        return self._pacer.next_emit_cycle(cycle)

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        self._pacer.skip(cycles)
        # What `cycles` idle serialiser ticks would have recorded.
        self.activity.add(ActivityKeys.REG_CLOCKED_BITS, self.serializer.idle_cycle_bits * cycles)
        self.activity.slots[REG_TOGGLE_BITS] += 0

    @property
    def words_sent(self) -> int:
        """Words actually loaded into the lane."""
        return self.serializer.words_loaded

    def reset(self) -> None:
        self.serializer.reset()
        self._pacer.reset()
        self.words_offered = 0
        self.words_dropped = 0
        # The wire is this driver's register output: back to idle with it.
        self.link.drive_forward(self.lane, 0)


class LaneStreamConsumer(ClockedComponent):
    """Consumes one lane of a link *out of* the router under test."""

    def __init__(
        self,
        name: str,
        link: LaneLink,
        lane: int,
        data_width: int = 16,
        flow: FlowControlConfig = FlowControlConfig(),
    ) -> None:
        super().__init__(name)
        link.read_forward(lane)  # the lane is checked once, here
        self.link = link
        self.lane = lane
        self._forward = link.forward
        self._ack = link.ack
        self.activity = ActivityCounters(name)
        self.deserializer = LaneDeserializer(
            lane, link.lane_width, data_width, flow=flow, activity=self.activity
        )
        self.received: List[ReceivedWord] = []
        # Event schedule: a phit arriving while the consumer is parked must
        # put it back on the batch (the router end owns the ack dirty-bit).
        link.forward_dirty.add_listener(self.wake)

    def evaluate(self, cycle: int) -> None:  # all work happens at the clock edge
        pass

    def commit(self, cycle: int) -> None:
        lane = self.lane
        deserializer = self.deserializer
        deserializer.tick(self._forward[lane], cycle)
        # The destination tile reads everything immediately (it never stalls).
        while (word := deserializer.receive()) is not None:
            self.received.append(word)
        pulse = deserializer._ack_pulse
        if pulse != self._ack[lane]:
            self.link.drive_ack(lane, pulse)

    # -- timed protocol: a pure sink never generates events of its own -------

    #: The consumer samples the forward wire in its commit; a commit-phase
    #: phit from an earlier-committing router must replay the cycle.
    commit_wake_replays_cycle = True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if (
            self._forward[self.lane]
            or not self.deserializer.quiescent
            or self.deserializer.available()
        ):
            return cycle
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        # What `cycles` idle deserialiser ticks would have recorded.
        self.activity.add(ActivityKeys.REG_CLOCKED_BITS, self.deserializer.idle_cycle_bits * cycles)
        self.activity.slots[REG_TOGGLE_BITS] += 0

    @property
    def words_received(self) -> int:
        """Words fully reassembled and consumed."""
        return len(self.received)

    def reset(self) -> None:
        self.deserializer.reset()
        self.received.clear()
        self.link.drive_ack(self.lane, False)


class TileStreamDriver(ClockedComponent):
    """Feeds a stream into the router through its own tile interface."""

    def __init__(
        self,
        name: str,
        router: CircuitSwitchedRouter,
        lane: int,
        word_source: WordSource,
        load: float = 1.0,
        mark_blocks: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        self.router = router
        self.lane = lane
        self.word_source = word_source
        self.mark_blocks = mark_blocks
        self._pacer = LoadPacer(
            load, phits_per_packet(router.data_width, router.lane_width)
        )
        self.words_offered = 0
        self.words_sent = 0
        self.words_dropped = 0
        self._index = 0

    def evaluate(self, cycle: int) -> None:
        if not self._pacer.should_emit():
            return
        self.words_offered += 1
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

    def commit(self, cycle: int) -> None:  # the router itself owns the clocked state
        pass

    # -- timed protocol: the pacer is the driver's only per-cycle state ------

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return self._pacer.next_emit_cycle(cycle)

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        self._pacer.skip(cycles)

    def reset(self) -> None:
        self._pacer.reset()
        self.words_offered = 0
        self.words_sent = 0
        self.words_dropped = 0
        self._index = 0


class TileStreamConsumer(ClockedComponent):
    """Drains words arriving at the router's tile interface."""

    def __init__(self, name: str, router: CircuitSwitchedRouter, lane: int) -> None:
        super().__init__(name)
        self.router = router
        self.lane = lane
        self.received: List[ReceivedWord] = []
        # Event schedule: a word delivered to the tile interface while the
        # consumer is parked must put it back on the batch.
        router.tile.watch_rx(lane, self.wake)

    def evaluate(self, cycle: int) -> None:
        pass

    def commit(self, cycle: int) -> None:
        receive = self.router.tile.receive
        while (word := receive(self.lane)) is not None:
            self.received.append(word)

    # -- timed protocol: a pure sink never generates events of its own -------

    #: The consumer drains the tile interface in its commit; a delivery from
    #: an earlier-committing router must replay the cycle.
    commit_wake_replays_cycle = True

    settles_at_sync = True  # nothing to book, idle or busy

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return cycle if self.router.tile.rx_available(self.lane) else None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        pass

    @property
    def words_received(self) -> int:
        """Words delivered to the local tile."""
        return len(self.received)

    def reset(self) -> None:
        self.received.clear()
