"""The packet-switched baseline router (Kavaldjiev-style virtual-channel router).

This is the "packet-switched equivalent" of Section 7: five bidirectional
16-bit ports, four virtual channels per input port, wormhole switching with
credit-based link-level flow control, XY routing and round-robin virtual
channel / switch allocation.  At the same clock frequency it offers the same
link bandwidth and bounded latency for guaranteed-throughput traffic as the
circuit-switched router, which is what makes the power comparison of
Figures 9 and 10 meaningful.

The model is flit- and bit-accurate where it matters for energy: every flit
is written to and read from an input FIFO, traverses the output crossbar
register, and toggles the link wires; every arbitration decision and every
grant change is recorded.

A :class:`PacketSwitchedRouter` holds its state in flat lists indexed
``port × num_vcs + vc`` (FIFOs of packed flits, route and output VC per input
VC, credits per output VC) plus, per output port, a free-VC mask and the last
VC and switch grants; a bit mask names the occupied input VCs.  It is no
kernel component: one :class:`PacketDatapath` clocks every router of a
fabric, a shard region or a single-router bench, and runs the stream
endpoint records (:mod:`repro.baseline.testbench`) feeding them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.baseline.flit import (
    COORD_BITS, COORD_MASK, DEST_SHIFT, FLIT_PAYLOAD_BITS, HEAD_BIT, PAYLOAD_MASK, PAYLOAD_SHIFT, SRC_SHIFT,
    ID_SHIFT, STORAGE_BITS, TAIL_BIT, VC_MASK, Packet, pack_packet,
)
from repro.baseline.link import PacketLink
from repro.baseline.routing import RouteFunction, xy_route
from repro.common import ALL_PORTS, NEIGHBOR_PORTS, CapacityError, ConfigurationError, Port, bit_mask
from repro.energy.activity import (
    ARBITER_DECISIONS, ARBITER_GRANT_CHANGES, BUFFER_READ_BITS, BUFFER_WRITE_BITS, FLITS_ROUTED, LINK_TOGGLE_BITS,
    PACKETS_ROUTED, REG_TOGGLE_BITS, VC_ALLOCATIONS, WORDS_DELIVERED, ActivityCounters,
)
from repro.energy.area import PacketSwitchedRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.energy.timing import PacketSwitchedTiming
from repro.sim.datapath import DatapathMember, FabricDatapath

__all__ = ["PacketSwitchedRouter", "PacketTileInterface", "PacketDatapath"]


class PacketTileInterface:
    """Word/packet-level interface between a processing tile and its router."""

    def __init__(self, router: "PacketSwitchedRouter", words_per_packet: int = 16) -> None:
        if words_per_packet < 1:
            raise ValueError("words_per_packet must be positive")
        self.router = router
        self.words_per_packet = words_per_packet
        self._injection_queue: Deque[int] = deque()
        self._next_vc = 0
        #: Payload words of the packets still arriving, by ``flit >> SRC_SHIFT``
        #: (source and packet id).
        self._partial: Dict[int, List[int]] = {}
        self.received_packets: List[Packet] = []
        self.received_words: List[int] = []
        #: Payload words delivered so far, per source tile.
        self.words_from: Dict[Tuple[int, int], int] = {}
        self.words_queued = 0

    # -- sending --------------------------------------------------------------------

    def send_packet(self, packet: Packet, vc: Optional[int] = None) -> None:
        """Queue a whole packet for injection into the network."""
        router = self.router
        if vc is None:
            vc = self._next_vc
            self._next_vc = (vc + 1) % router.num_vcs
        elif not 0 <= vc < router.num_vcs:
            raise IndexError(f"virtual channel {vc} out of range 0..{router.num_vcs - 1}")
        self._injection_queue.extend(pack_packet(packet, vc))
        self.words_queued += len(packet.words)
        if router.datapath is not None:
            router.datapath.inject(router)

    def send_words(self, dest: Tuple[int, int], words: List[int], vc: Optional[int] = None) -> int:
        """Split *words* into packets towards *dest* and queue them; returns packet count."""
        count = 0
        for start in range(0, len(words), self.words_per_packet):
            chunk = list(words[start : start + self.words_per_packet])
            self.send_packet(Packet(src=self.router.position, dest=dest, words=chunk), vc)
            count += 1
        return count

    @property
    def injection_backlog(self) -> int:
        """Flits queued at the tile but not yet accepted by the router."""
        return len(self._injection_queue)

    # -- receiving (driven by the datapath) ----------------------------------------------

    def _deliver(self, flit: int) -> None:
        key = flit >> SRC_SHIFT
        words = self._partial.get(key)
        if words is None:
            words = self._partial[key] = []
        if not flit & HEAD_BIT:
            words.append(flit >> PAYLOAD_SHIFT & PAYLOAD_MASK)
        if flit & TAIL_BIT:
            del self._partial[key]
            src = (key & COORD_MASK, key >> COORD_BITS & COORD_MASK)
            dest = (flit >> DEST_SHIFT & COORD_MASK, flit >> DEST_SHIFT + COORD_BITS & COORD_MASK)
            self.received_packets.append(Packet(src=src, dest=dest, words=words, packet_id=flit >> ID_SHIFT))
            self.received_words.extend(words)
            self.words_from[src] = self.words_from.get(src, 0) + len(words)

    @property
    def words_received(self) -> int:
        """Total payload words delivered to this tile."""
        return len(self.received_words)

    def reset(self) -> None:
        """Drop all queued and partially received data."""
        self._injection_queue.clear()
        self._partial.clear()
        self.received_packets.clear()
        self.received_words.clear()
        self.words_from.clear()
        self.words_queued = 0
        self._next_vc = 0


class PacketSwitchedRouter(DatapathMember):
    """Cycle-accurate model of the virtual-channel wormhole baseline router."""

    NUM_PORTS = 5

    def __init__(
        self,
        name: str,
        position: Tuple[int, int] = (0, 0),
        num_vcs: int = 4,
        fifo_depth: int = 8,
        data_width: int = 16,
        words_per_packet: int = 16,
        tech: Technology = TSMC_130NM_LVHP,
        route: Optional[RouteFunction] = None,
    ) -> None:
        if data_width != FLIT_PAYLOAD_BITS:
            raise ConfigurationError(
                f"the baseline router models {FLIT_PAYLOAD_BITS}-bit links; "
                f"got data_width={data_width}"
            )
        if not 1 <= num_vcs <= VC_MASK + 1:
            raise ValueError(f"need 1..{VC_MASK + 1} virtual channels, got {num_vcs}")
        if fifo_depth < 1:
            raise ValueError("buffer depth must be positive")
        self.name = name
        self.position = position
        #: Routing decision ``(current, dest) -> Port``; XY dimension order by
        #: default, a topology-derived table when built by the fabric layer.
        self.route: RouteFunction = route if route is not None else xy_route
        self.num_vcs = num_vcs
        self.fifo_depth = fifo_depth
        self.data_width = data_width
        self.tech = tech

        self.activity = ActivityCounters(name)
        self.area_model = PacketSwitchedRouterArea(
            self.NUM_PORTS, data_width, num_vcs, fifo_depth, tech=tech
        )
        self.timing_model = PacketSwitchedTiming(self.NUM_PORTS, num_vcs, fifo_depth, tech)
        self.ports: Tuple[Port, ...] = ALL_PORTS[: self.NUM_PORTS]
        self.tile = PacketTileInterface(self, words_per_packet)

        size, ports = self.NUM_PORTS * num_vcs, self.NUM_PORTS
        # Input side, per input VC: FIFO, route (output port) and output VC of
        # the packet at its head; bit i of _occupied is set while FIFO i holds a flit.
        self._fifos: List[Deque[int]] = [deque() for _ in range(size)]
        self._occupied = 0
        self._route: List[Optional[int]] = [None] * size
        self._out_vc: List[Optional[int]] = [None] * size
        # Output side: downstream credit per output VC; per output port the
        # free output VCs (a mask), the last VC and switch grants (-1: none yet).
        self._credits: List[int] = [fifo_depth] * size
        self._free: List[int] = [bit_mask(num_vcs)] * ports
        self._vc_last: List[int] = [-1] * ports
        self._grant_last: List[int] = [-1] * ports
        self._prev_payload: List[int] = [0] * ports
        #: Per-cycle scratch: the request mask filed under each output port.
        self._requests: List[int] = [0] * ports
        #: Bit mask of the ports whose outside wire the last visit drove a flit onto.
        self._driven = 0

        self._rx_by_port: List[Optional[PacketLink]] = [None] * ports
        self._tx_by_port: List[Optional[PacketLink]] = [None] * ports
        #: What the datapath compiled for this router (:meth:`PacketDatapath._compile`).
        self._state: tuple = ()

    # -- wiring ------------------------------------------------------------------------

    def _check_link(self, link: PacketLink) -> None:
        if link.num_vcs != self.num_vcs:
            raise ConfigurationError(f"link {link.name!r} has {link.num_vcs} VCs, router expects {self.num_vcs}")

    def reset(self) -> None:
        """Back to power-on: buffers, VC state, credits, arbiters, tile,
        counters and the wires this router drives."""
        num_vcs, depth = self.num_vcs, self.fifo_depth
        for index, fifo in enumerate(self._fifos):
            fifo.clear()
            self._route[index] = self._out_vc[index] = None
            self._credits[index] = depth
        self._occupied = self._driven = 0
        for port in range(self.NUM_PORTS):
            self._free[port] = bit_mask(num_vcs)
            self._vc_last[port] = self._grant_last[port] = -1
            self._prev_payload[port] = self._requests[port] = 0
        self.tile.reset()
        self.activity.reset()
        for tx in self._tx_by_port:
            if tx is not None:
                tx.reset()

    # -- reporting -----------------------------------------------------------------------

    def power(self, frequency_hz: float, cycles: int | None = None) -> PowerBreakdown:
        """Estimate the router's average power over the recorded activity."""
        model = PowerModel(self.tech)
        return model.estimate(self.area_model, self.activity, frequency_hz, cycles)

    def max_frequency_mhz(self) -> float:
        """Maximum clock frequency of this router instance (Table 4)."""
        return self.timing_model.max_frequency_mhz()

    @property
    def total_area_mm2(self) -> float:
        """Silicon area of this router instance (Table 4)."""
        return self.area_model.total_mm2


#: What an output port does with the flit it sends (first field of its record).
_TO_MEMBER, _TO_OUTSIDE, _TO_DEAD = range(3)


def _overflow(router: PacketSwitchedRouter, index: int) -> CapacityError:
    port, vc = divmod(index, router.num_vcs)
    return CapacityError(
        f"buffer {router.name}.{Port(port).short_name}{vc} overflow: "
        "upstream ignored credit-based flow control"
    )


class PacketDatapath(FabricDatapath):
    """Clocks a set of :class:`PacketSwitchedRouter` objects as one component.

    A cycle has two phases.  *Ingest* takes what the wires between members
    carried out of the previous cycle — ``_returns`` (credit records
    ``(wire credits, router credits, index, vc, router)``) and ``_arrivals``
    (flit records ``(link, router, fifos, counters, base, depth)``), each
    cleared as it is read — then what :meth:`evaluate` sampled from the
    wires with an end outside the set.  *Move* visits the routers that moved
    or injected in the previous cycle or got a flit, a credit or an
    injection since: injection, route computation and VC allocation over the
    occupied input VCs, then one round-robin switch grant per requested
    output port, each winner's flit leaving with its output VC written in.
    A router with nothing that can move is not visited again until a flit,
    credit or injection reaches it, or it is recompiled.  All state stays in
    the routers.  The :class:`~repro.sim.datapath.FabricDatapath` skeleton
    holds the adoption, the wire maps and the stream drivers in
    :attr:`drivers`, fired before the ingest (a packet one completes is
    injected in the same cycle), and a bench's link stream units.
    """

    wire_watchers = ("watch_flits", "watch_credits")
    _transient = ("_next", "_returns", "_arrivals", "_sampled_flits", "_sampled_credits")

    def __init__(self, name: str, routers: Sequence[PacketSwitchedRouter]) -> None:
        super().__init__(name, routers)
        #: Routers to visit in the next move phase (an insertion-ordered set).
        self._next: Dict[PacketSwitchedRouter, None] = {}
        self._returns: List[tuple] = []
        self._arrivals: List[tuple] = []
        #: What :meth:`evaluate` took off the outside wires.
        self._sampled_flits: List[tuple] = []
        self._sampled_credits: List[tuple] = []
        self._rewire()

    # -- compiling, between cycles ---------------------------------------------------------

    @staticmethod
    def _rx_record(link: PacketLink, router: PacketSwitchedRouter, port: int) -> tuple:
        """The arrival record of a flit *router* reads off *link* at *port*."""
        return (link, router, router._fifos, router.activity.slots, port * router.num_vcs, router.fifo_depth)

    @staticmethod
    def _tx_record(link: PacketLink, router: PacketSwitchedRouter, port: int) -> tuple:
        return (link, router, router._credits, port * router.num_vcs)

    def _return(self, link: PacketLink, vc: int) -> tuple:
        """The record that hands a credit on member wire *link* to its writer."""
        writer, port = self._writer[link]
        return (link.credits, writer._credits, port * writer.num_vcs + vc, vc, writer)

    def _compile(self, router: PacketSwitchedRouter) -> None:
        """Build *router*'s send records (per output port) and credit records
        (per input VC) from its wiring, and its state tuple; visit it next."""
        num_vcs = router.num_vcs
        send: List[Optional[tuple]] = [None] * router.NUM_PORTS
        give: List[Optional[tuple]] = [None] * (router.NUM_PORTS * num_vcs)
        for port in NEIGHBOR_PORTS:
            tx = router._tx_by_port[port]
            if tx in self._reader and tx.dead:
                send[port] = (_TO_DEAD, tx, tuple(self._return(tx, vc) for vc in range(num_vcs)))
            elif tx in self._reader:
                send[port] = (_TO_MEMBER, tx, self._rx_record(tx, *self._reader[tx]))
            elif tx is not None:
                send[port] = (_TO_OUTSIDE, tx, None)
            rx = router._rx_by_port[port]
            for vc in range(num_vcs if rx is not None else 0):
                if rx in self._writer:
                    give[port * num_vcs + vc] = (rx.credits, vc, self._return(rx, vc))
                else:
                    give[port * num_vcs + vc] = (None, vc, rx)
        router._state = (
            router._fifos, router._route, router._out_vc, router._credits, router._free, router._vc_last,
            router._grant_last, router._prev_payload, router._requests, send, give, router.activity.slots,
            router.tile, router.tile._injection_queue, num_vcs, router.fifo_depth,
        )
        self._next[router] = None

    def _wire_died(self, link: PacketLink) -> None:
        # Hand the credits fail() gave back to the writer.
        for vc, amount in enumerate(link.credits):
            if amount:
                self._returns.append(self._return(link, vc))

    def inject(self, router: PacketSwitchedRouter) -> None:
        """*router*'s tile queued flits: visit it in the next move phase."""
        self._next[router] = None

    # -- simulation ---------------------------------------------------------------------

    def evaluate(self, cycle: int) -> None:
        """Sample the outside wires: flits in, credits (taken) back."""
        for record in self._outside_rx:
            flit = record[0].forward
            if flit is not None:
                self._sampled_flits.append((record, flit))
        for link, router, credits, base in self._outside_tx:
            wire = link.credits
            if any(wire):
                self._sampled_credits.append((router, credits, base, wire[:]))
                wire[:] = [0] * len(wire)

    def commit(self, cycle: int) -> None:
        if self.drivers.next_due == cycle:
            self.drivers.fire(cycle)
        if self._units:  # a bench's link streams: ahead of the ingest, whenever adopted
            self._turn(self._units, cycle)
        visit = self._next
        self._next = nxt = {}
        # Ingest: credits, then flits the member wires carried out of the last cycle.
        returns, arrivals = self._returns, self._arrivals
        if returns:
            self._returns = []
            for wire, credits, index, vc, writer in returns:
                amount = wire[vc]
                if amount:
                    credits[index] += amount
                    wire[vc] = 0
                    visit[writer] = None
            returns = self._returns
        if arrivals:
            self._arrivals = []
            for link, reader, fifos, counts, base, depth in arrivals:
                flit = link.forward
                if flit is not None:
                    link.forward = None
                    index = base + (flit & VC_MASK)
                    fifo = fifos[index]
                    if len(fifo) >= depth:
                        raise _overflow(reader, index)
                    fifo.append(flit)
                    reader._occupied |= 1 << index
                    counts[BUFFER_WRITE_BITS] += STORAGE_BITS
                    visit[reader] = None
            arrivals = self._arrivals
        if self._sampled_credits:
            sampled, self._sampled_credits = self._sampled_credits, []
            for router, credits, base, amounts in sampled:
                for vc, amount in enumerate(amounts):
                    credits[base + vc] += amount
                visit[router] = None
        if self._sampled_flits:
            sampled, self._sampled_flits = self._sampled_flits, []
            for (_link, reader, fifos, counts, base, depth), flit in sampled:
                vc = flit & VC_MASK
                if vc >= reader.num_vcs:
                    raise IndexError(f"virtual channel {vc} out of range 0..{reader.num_vcs - 1}")
                index = base + vc
                if len(fifos[index]) >= depth:
                    raise _overflow(reader, index)
                fifos[index].append(flit)
                reader._occupied |= 1 << index
                counts[BUFFER_WRITE_BITS] += STORAGE_BITS
                visit[reader] = None

        # Move.
        for router in visit:
            (fifos, route, out_vc, credits, free, vc_last, grant_last, prev, requests, send, give, counts,
             tile, queue, num_vcs, depth) = router._state
            occupied = router._occupied
            moved = False
            if queue:  # tile injection: one flit per cycle if its buffer has space
                vc = queue[0] & VC_MASK
                if len(fifos[vc]) < depth:
                    fifos[vc].append(queue.popleft())
                    occupied |= 1 << vc
                    counts[BUFFER_WRITE_BITS] += STORAGE_BITS
                    moved = True

            # One pass over the occupied input VCs: route computation and
            # output-VC allocation for head-of-line head flits, then every
            # flit that can move (output VC held; towards a neighbour, a
            # link and a credit) is filed under the output port it requests.
            ports = vc_allocations = 0
            pending = occupied
            while pending:
                bit = pending & -pending
                pending ^= bit
                index = bit.bit_length() - 1
                out_port = route[index]
                if out_port is None:
                    flit = fifos[index][0]
                    if not flit & HEAD_BIT:
                        continue
                    dest = (flit >> DEST_SHIFT & COORD_MASK, flit >> DEST_SHIFT + COORD_BITS & COORD_MASK)
                    out_port = route[index] = int(router.route(router.position, dest))
                ovc = out_vc[index]
                if ovc is None:
                    mask = free[out_port]
                    if not mask:
                        continue
                    last = vc_last[out_port]
                    ahead = mask >> last + 1  # round robin from the VC after the last grant
                    ovc = last + (ahead & -ahead).bit_length() if ahead else (mask & -mask).bit_length() - 1
                    vc_last[out_port] = out_vc[index] = ovc
                    free[out_port] = mask ^ 1 << ovc
                    vc_allocations += 1
                if out_port and (send[out_port] is None or credits[out_port * num_vcs + ovc] <= 0):
                    continue
                requests[out_port] |= bit
                ports |= 1 << out_port
            if vc_allocations:
                counts[VC_ALLOCATIONS] += vc_allocations

            # Switch allocation and traversal: one winner per requested port.
            driven = 0
            if ports:
                moved = True
                routed = changes = packets = reg_toggles = link_toggles = 0
                while ports:
                    port_bit = ports & -ports
                    ports ^= port_bit
                    out_port = port_bit.bit_length() - 1
                    mask = requests[out_port]
                    requests[out_port] = 0
                    last = grant_last[out_port]
                    ahead = mask >> last + 1
                    winner = last + (ahead & -ahead).bit_length() if ahead else (mask & -mask).bit_length() - 1
                    if winner != last and last >= 0:
                        changes += 1
                    grant_last[out_port] = winner
                    routed += 1

                    fifo = fifos[winner]
                    ovc = out_vc[winner]
                    flit = fifo.popleft() & ~VC_MASK | ovc
                    if not fifo:
                        occupied ^= 1 << winner
                    payload = flit >> PAYLOAD_SHIFT & PAYLOAD_MASK
                    toggles = (prev[out_port] ^ payload).bit_count()
                    reg_toggles += toggles
                    prev[out_port] = payload
                    if out_port:
                        credits[out_port * num_vcs + ovc] -= 1  # the pass saw it positive
                        link_toggles += toggles
                        action, link, extra = send[out_port]
                        if action == _TO_MEMBER:
                            link.forward = flit
                            arrivals.append(extra)
                        elif action == _TO_OUTSIDE:
                            link.drive(flit)
                            driven |= port_bit
                        else:  # a dead wire swallows the flit and gives its credit back
                            link.dropped += 1
                            link.credits[ovc] += 1
                            returns.append(extra[ovc])
                    else:
                        tile._deliver(flit)
                        # A head flit creates the counter and adds nothing to it.
                        counts[WORDS_DELIVERED] += 0 if flit & HEAD_BIT else 1

                    # Return a credit upstream for the freed buffer slot.
                    target = give[winner]
                    if target is not None:
                        wire, vc, record = target
                        if wire is not None:
                            wire[vc] += 1
                            returns.append(record)
                        else:
                            record.return_credit(vc)

                    if flit & TAIL_BIT:
                        free[out_port] |= 1 << ovc
                        route[winner] = out_vc[winner] = None
                        packets += 1
                counts[ARBITER_DECISIONS] += routed
                counts[FLITS_ROUTED] += routed
                counts[BUFFER_READ_BITS] += STORAGE_BITS * routed
                if changes:
                    counts[ARBITER_GRANT_CHANGES] += changes
                if packets:
                    counts[PACKETS_ROUTED] += packets
                if reg_toggles:
                    counts[REG_TOGGLE_BITS] += reg_toggles
                    if link_toggles:  # an outgoing wire toggles with its register only
                        counts[LINK_TOGGLE_BITS] += link_toggles
            router._occupied = occupied
            if router._driven != driven:  # outside wires not driven this cycle fall idle
                stale = router._driven & ~driven
                for port in NEIGHBOR_PORTS:
                    if stale >> port & 1:
                        send[port][1].drive(None)
                router._driven = driven
            if moved:
                nxt[router] = None

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Now while a router is to be visited, a wire holds a flit or a
        credit or a link stream unit is not at rest; else the cycle the next
        driver is due (``None``: none is, until an injection or an outside wire)."""
        if self._next or self._arrivals or self._returns or self._units and len(self._resting) < len(self._units):
            return cycle
        for record in self._outside_rx:
            if record[0].forward is not None:
                return cycle
        for link, _router, _credits, _base in self._outside_tx:
            if any(link.credits):
                return cycle
        return self.drivers.next_due
