"""Test-bench components for the packet-switched baseline router.

These mirror :mod:`repro.core.testbench` for the packet-switched router so the
power scenarios of Section 6 can be applied to both routers with identical
traffic: a paced word stream of a given load and bit-flip statistic entering
through a neighbour port or through the local tile interface, and a consumer
that drains the corresponding output.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.baseline.flit import HEAD_BIT, PAYLOAD_MASK, PAYLOAD_SHIFT, VC_MASK, Packet, pack_packet
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketSwitchedRouter
from repro.core.header import phits_per_packet
from repro.core.testbench import LoadPacer
from repro.sim.engine import ClockedComponent

__all__ = [
    "PacketStreamDriver",
    "PacketStreamConsumer",
    "TilePacketDriver",
    "TilePacketConsumer",
]

WordSource = Callable[[], int]


class _WordPacer(LoadPacer):
    """Accumulates stream words at the scenario's offered load.

    A "stream" in the paper's scenarios is a 16-bit word every five cycles at
    100 % load (80 Mbit/s at 25 MHz), regardless of which router carries it —
    this keeps the circuit- and packet-switched experiments identical.  The
    exact (and therefore leapable) credit arithmetic lives in
    :class:`repro.core.testbench.LoadPacer`.
    """

    def words_this_cycle(self) -> int:
        """Number of new stream words produced this cycle (0 or 1)."""
        return 1 if self.should_emit() else 0


class PacketStreamDriver(ClockedComponent):
    """Emulates an upstream router injecting a word stream through a link.

    The driver groups the stream words into packets of *words_per_packet*,
    respects the credit-based flow control of the router's input buffer and
    sends at most one flit per cycle — exactly what a real upstream router
    would do.
    """

    def __init__(
        self,
        name: str,
        link: PacketLink,
        word_source: WordSource,
        dest: Tuple[int, int],
        src: Tuple[int, int],
        load: float = 1.0,
        vc: int = 0,
        words_per_packet: int = 16,
        downstream_buffer_depth: int = 8,
        data_width: int = 16,
        lane_width: int = 4,
    ) -> None:
        super().__init__(name)
        self.link = link
        self.word_source = word_source
        self.dest = dest
        self.src = src
        self.vc = vc
        self.words_per_packet = words_per_packet
        self._pacer = _WordPacer(load, phits_per_packet(data_width, lane_width))
        # Returned credits must wake a parked driver (the router only watches
        # the flit side of its receive links, so the credit side is free).
        link.credit_dirty.add_listener(self.wake)
        self._buffer_depth = self._credits = downstream_buffer_depth
        self._flit_queue: Deque[int] = deque()
        self._pending_words: List[int] = []
        self.words_offered = 0
        self.words_sent = 0
        self.flits_sent = 0

    def evaluate(self, cycle: int) -> None:
        # Collect credits returned by the router for our virtual channel.
        self._credits += self.link.take_credits(self.vc)
        if self._pacer.words_this_cycle():
            self.words_offered += 1
            self._pending_words.append(self.word_source())
            if len(self._pending_words) >= self.words_per_packet:
                self._flush()

    def _flush(self) -> None:
        if not self._pending_words:
            return
        packet = Packet(src=self.src, dest=self.dest, words=list(self._pending_words))
        self._flit_queue.extend(pack_packet(packet, self.vc))
        self.words_sent += len(self._pending_words)
        self._pending_words.clear()

    def commit(self, cycle: int) -> None:
        if self._flit_queue and self._credits > 0:
            flit = self._flit_queue.popleft()
            self._credits -= 1
            self.flits_sent += 1
            self.link.drive(flit)
        else:
            self.link.drive(None)

    # -- timed protocol ------------------------------------------------------

    supports_timed_wake = True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if (
            self._flit_queue
            or self.link.credits[self.vc]
            or self.link.forward is not None
        ):
            return cycle
        return self._pacer.next_emit_cycle(cycle)

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        self._pacer.skip(cycles)

    def reset(self) -> None:
        self._pacer.reset()
        self.link.reset()  # flits forward and credits back: both start over
        self._credits = self._buffer_depth
        self._flit_queue.clear()
        self._pending_words.clear()
        self.words_offered = 0
        self.words_sent = 0
        self.flits_sent = 0


class PacketStreamConsumer(ClockedComponent):
    """Emulates a downstream router / tile draining one outgoing link."""

    def __init__(self, name: str, link: PacketLink) -> None:
        super().__init__(name)
        self.link = link
        # Arriving flits must wake a parked consumer (the router only watches
        # the credit side of its transmit links, so the flit side is free).
        link.flit_dirty.add_listener(self.wake)
        self.received_flits: List[int] = []
        self.received_words: List[int] = []
        self._sampled: Optional[int] = None

    def evaluate(self, cycle: int) -> None:
        self._sampled = self.link.read()

    def commit(self, cycle: int) -> None:
        flit = self._sampled
        if flit is None:
            return
        self.received_flits.append(flit)
        if not flit & HEAD_BIT:
            self.received_words.append(flit >> PAYLOAD_SHIFT & PAYLOAD_MASK)
        # An always-consuming downstream immediately frees the buffer slot.
        self.link.return_credit(flit & VC_MASK)

    # -- timed protocol: a pure sink never generates events of its own -------

    supports_timed_wake = True
    settles_at_sync = True  # nothing to book, idle or busy

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if self.link.forward is not None or self._sampled is not None:
            return cycle
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        pass

    @property
    def words_received(self) -> int:
        """Payload words fully received on this link."""
        return len(self.received_words)

    def reset(self) -> None:
        self.received_flits.clear()
        self.received_words.clear()
        self._sampled = None


class TilePacketDriver(ClockedComponent):
    """Feeds a paced word stream into the router through its tile interface."""

    def __init__(
        self,
        name: str,
        router: PacketSwitchedRouter,
        word_source: WordSource,
        dest: Tuple[int, int],
        load: float = 1.0,
        vc: Optional[int] = 0,
        words_per_packet: Optional[int] = None,
        data_width: int = 16,
        lane_width: int = 4,
    ) -> None:
        super().__init__(name)
        self.router = router
        self.word_source = word_source
        self.dest = dest
        self.vc = vc
        self.words_per_packet = words_per_packet or router.tile.words_per_packet
        self._pacer = _WordPacer(load, phits_per_packet(data_width, lane_width))
        self._pending_words: List[int] = []
        self.words_offered = 0
        self.words_sent = 0

    def evaluate(self, cycle: int) -> None:
        if self._pacer.words_this_cycle():
            self.words_offered += 1
            self._pending_words.append(self.word_source())
            if len(self._pending_words) >= self.words_per_packet:
                packet = Packet(
                    src=self.router.position, dest=self.dest, words=list(self._pending_words)
                )
                self.router.tile.send_packet(packet, self.vc)
                self.words_sent += len(self._pending_words)
                self._pending_words.clear()

    def commit(self, cycle: int) -> None:  # the router owns all clocked state
        pass

    # -- timed protocol: the pacer is the driver's only per-cycle state ------

    supports_timed_wake = True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return self._pacer.next_emit_cycle(cycle)

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        self._pacer.skip(cycles)

    def reset(self) -> None:
        self._pacer.reset()
        self._pending_words.clear()
        self.words_offered = 0
        self.words_sent = 0


class TilePacketConsumer(ClockedComponent):
    """Collects the words the router delivers to its local tile."""

    def __init__(self, name: str, router: PacketSwitchedRouter) -> None:
        super().__init__(name)
        self.router = router

    def evaluate(self, cycle: int) -> None:
        pass

    def commit(self, cycle: int) -> None:
        pass

    # -- timed protocol: pure statistics façade, never an event source -------

    supports_timed_wake = True
    settles_at_sync = True  # nothing to book, idle or busy

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        pass

    @property
    def words_received(self) -> int:
        """Payload words delivered to the router's tile interface."""
        return self.router.tile.words_received
