"""Test-bench stream endpoints for the packet-switched baseline router.

These mirror :mod:`repro.core.testbench` for the packet-switched router so the
power scenarios of Section 6 can be applied to both routers with identical
traffic: a paced word stream of a given load and bit-flip statistic entering
through a neighbour port or through the local tile interface, and a sink
that drains the corresponding output link (words delivered at the tile are
read off its interface).  Each is a :class:`~repro.sim.datapath.StreamDriver`
or :class:`~repro.sim.datapath.StreamSink` the
:class:`~repro.baseline.router.PacketDatapath` clocking the router adopts
and runs inside its cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.baseline.flit import HEAD_BIT, PAYLOAD_MASK, PAYLOAD_SHIFT, VC_MASK, Packet, pack_packet
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketSwitchedRouter
from repro.core.header import phits_per_packet
from repro.sim.datapath import LinkEndpoint, LoadPacer, StreamDriver, StreamSink, WordSource

__all__ = [
    "PacketLinkDriver",
    "PacketLinkSink",
    "PacketTileDriver",
]


class _Packetiser:
    """The emission of a packet stream driver: groups the words its pacer
    offers into packets from ``src`` to ``dest`` on ``vc`` and hands each
    completed one to ``_send``.  A word is sent once its packet is; none is
    ever dropped."""

    def emit(self, cycle: int) -> None:
        """Take one word; send the packet it completes."""
        self.words_offered += 1
        pending = self._pending_words
        pending.append(self.word_source())
        if len(pending) >= self.words_per_packet:
            self._send(Packet(self.src, self.dest, pending), self.vc)  # the packet keeps the list
            self.words_sent += len(pending)
            self._pending_words = []

    def reset(self) -> None:
        super().reset()
        self._pending_words.clear()


class PacketTileDriver(_Packetiser, StreamDriver):
    """Feeds a paced word stream into the router through its tile interface.

    The :class:`~repro.baseline.router.PacketDatapath` clocking the router
    fires it at the top of the cycle its pacer is due
    (:class:`~repro.sim.datapath.DriverSchedule`); every full packet's worth
    of words goes to the tile's injection queue at once.
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
        # A stream word every five cycles at 100 % load (80 Mbit/s at 25 MHz),
        # whichever router carries it: the circuit- and packet-switched
        # experiments offer identical traffic.
        super().__init__(name, word_source, LoadPacer(load, phits_per_packet(data_width, lane_width)))
        self.router = router
        self.src, self.dest, self.vc = router.position, dest, vc
        self.words_per_packet = words_per_packet or router.tile.words_per_packet
        self._pending_words: List[int] = []
        self._send = router.tile.send_packet


class PacketLinkDriver(_Packetiser, StreamDriver, LinkEndpoint):
    """Emulates an upstream router injecting a word stream through a link.

    The driver groups the stream words into packets of *words_per_packet*,
    respects the credit-based flow control of the router's input buffer and
    sends at most one flit per cycle — exactly what a real upstream router
    would do.  Paced like a tile driver, it queues a completed packet's
    flits; its unit takes the returned credits and sends (:meth:`step`) at
    the top of the commit while it has a flit to send and a credit to send
    it with.  Returned credits mark it (the router only watches the flit
    side of its receive links).
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
        super().__init__(name, word_source, LoadPacer(load, phits_per_packet(data_width, lane_width)))
        self.link = link
        self.src, self.dest, self.vc = src, dest, vc
        self.words_per_packet = words_per_packet
        self._pending_words: List[int] = []
        self._buffer_depth = self._credits = downstream_buffer_depth
        self._flit_queue: Deque[int] = deque()
        self.flits_sent = 0

    def _send(self, packet: Packet, vc: int) -> None:
        self._flit_queue.extend(pack_packet(packet, vc))
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
        super().reset()
        self.link.reset()  # flits forward and credits back: both start over
        self._credits = self._buffer_depth
        self._flit_queue.clear()
        self.flits_sent = 0


class PacketLinkSink(StreamSink, LinkEndpoint):
    """Emulates a downstream router / tile draining one outgoing link: its
    unit takes every flit the router drives at the top of the next commit,
    keeps the payload words in :attr:`received` (every flit in
    :attr:`received_flits`) and returns the credit at once (the router only
    watches the credit side of its transmit links)."""

    _listens_to = "flit_dirty"

    def __init__(self, name: str, link: PacketLink) -> None:
        super().__init__(name)
        self.link = link
        self.received_flits: List[int] = []

    def step(self, cycle: int) -> bool:
        """Take the flit on the wire; rest until the next one."""
        flit = self.link.forward
        if flit is not None:
            self.received_flits.append(flit)
            if not flit & HEAD_BIT:
                self.received.append(flit >> PAYLOAD_SHIFT & PAYLOAD_MASK)
            # An always-consuming downstream immediately frees the buffer slot.
            self.link.return_credit(flit & VC_MASK)
        return False

    def reset(self) -> None:
        super().reset()
        self.received_flits.clear()
