"""Test-bench components for the packet-switched baseline router.

These mirror :mod:`repro.core.testbench` for the packet-switched router so the
power scenarios of Section 6 can be applied to both routers with identical
traffic: a paced word stream of a given load and bit-flip statistic entering
through a neighbour port or through the local tile interface, and a consumer
that drains the corresponding output link (words delivered at the tile are
read off its interface).  They are records, not kernel components: the
:class:`~repro.baseline.router.PacketDatapath` clocking the router adopts
them and runs them inside its cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.baseline.flit import HEAD_BIT, PAYLOAD_MASK, PAYLOAD_SHIFT, VC_MASK, Packet, pack_packet
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketSwitchedRouter
from repro.core.header import phits_per_packet
from repro.core.testbench import LoadPacer
from repro.sim.datapath import LinkEndpoint

__all__ = [
    "PacketStreamDriver",
    "PacketStreamConsumer",
    "TilePacketDriver",
]

WordSource = Callable[[], int]


class PacketStreamDriver(LinkEndpoint):
    """Emulates an upstream router injecting a word stream through a link.

    The driver groups the stream words into packets of *words_per_packet*,
    respects the credit-based flow control of the router's input buffer and
    sends at most one flit per cycle — exactly what a real upstream router
    would do.  It is a record the :class:`~repro.baseline.router.PacketDatapath`
    clocking that router runs: fired (:meth:`emit`) when its pacer is due,
    its unit takes the returned credits and sends (:meth:`step`) at the top
    of the commit while it has a flit to send and a credit to send it with.
    Returned credits mark it (the router only watches the flit side of its
    receive links).
    """

    _listens_to = "credit_dirty"

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
        super().__init__(name, link)
        self.word_source = word_source
        self.dest = dest
        self.src = src
        self.vc = vc
        self.words_per_packet = words_per_packet
        # A stream word every five cycles at 100 % load (80 Mbit/s at 25 MHz),
        # whichever router carries it: the circuit- and packet-switched
        # experiments offer identical traffic.
        self.pacer = LoadPacer(load, phits_per_packet(data_width, lane_width))
        self._buffer_depth = self._credits = downstream_buffer_depth
        self._flit_queue: Deque[int] = deque()
        self._pending_words: List[int] = []
        self.words_offered = 0
        self.words_sent = 0
        self.flits_sent = 0

    def emit(self, cycle: int) -> None:
        """Take one word; queue the flits of the packet it completes."""
        self.words_offered += 1
        pending = self._pending_words
        pending.append(self.word_source())
        if len(pending) >= self.words_per_packet:
            packet = Packet(src=self.src, dest=self.dest, words=list(pending))
            self._flit_queue.extend(pack_packet(packet, self.vc))
            self.words_sent += len(pending)
            pending.clear()
            self.mark()

    def step(self, cycle: int) -> bool:
        """Collect the returned credits and send one flit if one may go, else
        idle; False once nothing more can go without a credit or a packet."""
        self._credits += self.link.take_credits(self.vc)
        if self._flit_queue and self._credits > 0:
            self._credits -= 1
            self.flits_sent += 1
            self.link.drive(self._flit_queue.popleft())
            return True
        self.link.drive(None)
        return False

    def reset(self) -> None:
        self.pacer.reset()
        self.link.reset()  # flits forward and credits back: both start over
        self._credits = self._buffer_depth
        self._flit_queue.clear()
        self._pending_words.clear()
        self.words_offered = 0
        self.words_sent = 0
        self.flits_sent = 0


class PacketStreamConsumer(LinkEndpoint):
    """Emulates a downstream router / tile draining one outgoing link: a
    record the datapath clocking the router runs, whose unit takes every
    flit the router drives at the top of the next commit and returns its
    credit at once (the router only watches the credit side of its
    transmit links)."""

    _listens_to = "flit_dirty"

    def __init__(self, name: str, link: PacketLink) -> None:
        super().__init__(name, link)
        self.received_flits: List[int] = []
        self.received_words: List[int] = []

    def step(self, cycle: int) -> bool:
        """Take the flit on the wire; rest until the next one."""
        flit = self.link.forward
        if flit is not None:
            self.received_flits.append(flit)
            if not flit & HEAD_BIT:
                self.received_words.append(flit >> PAYLOAD_SHIFT & PAYLOAD_MASK)
            # An always-consuming downstream immediately frees the buffer slot.
            self.link.return_credit(flit & VC_MASK)
        return False

    @property
    def words_received(self) -> int:
        """Payload words fully received on this link."""
        return len(self.received_words)

    def reset(self) -> None:
        self.received_flits.clear()
        self.received_words.clear()


class TilePacketDriver:
    """Feeds a paced word stream into the router through its tile interface.

    No kernel component: the :class:`~repro.baseline.router.PacketDatapath`
    clocking the router fires it at the top of the cycle its pacer is due
    (:class:`~repro.sim.datapath.DriverSchedule`); every full packet's
    worth of words goes to the tile's injection queue at once.
    """

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
        self.name = name
        self.router = router
        self.word_source = word_source
        self.dest = dest
        self.vc = vc
        self.words_per_packet = words_per_packet or router.tile.words_per_packet
        self.pacer = LoadPacer(load, phits_per_packet(data_width, lane_width))
        self._pending_words: List[int] = []
        self.words_offered = 0
        self.words_sent = 0

    def emit(self, cycle: int) -> None:
        """Take one word; send the packet it completes."""
        self.words_offered += 1
        pending = self._pending_words
        pending.append(self.word_source())
        if len(pending) >= self.words_per_packet:
            packet = Packet(src=self.router.position, dest=self.dest, words=list(pending))
            self.router.tile.send_packet(packet, self.vc)
            self.words_sent += len(pending)
            pending.clear()

    def reset(self) -> None:
        self.pacer.reset()
        self._pending_words.clear()
        self.words_offered = 0
        self.words_sent = 0
