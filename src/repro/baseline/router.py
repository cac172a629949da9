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

Like the circuit-switched router, the baseline router participates in the
kernel's timed protocol (incoming flits, returned credits and tile
injections wake it; with empty buffers and idle wires it sleeps).  An awake
router's cycle costs what can move, not what is built: the buffers keep a bit
mask of the occupied input VCs, one pass over those does route computation
and VC allocation and files each movable head-of-line flit under the output
port it requests, and only ports with a request arbitrate.  The loops index
preallocated port- and VC-indexed lists and never hash a ``(port, vc)`` key.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.baseline.arbiter import RoundRobinArbiter
from repro.baseline.buffer import VirtualChannelBuffer
from repro.baseline.flit import FLIT_PAYLOAD_BITS, Flit, Packet, packetize
from repro.baseline.link import PacketLink
from repro.baseline.routing import RouteFunction, xy_route
from repro.baseline.vc import OutputVcAllocator, vc_state_table
from repro.common import ALL_PORTS, NEIGHBOR_PORTS, ConfigurationError, Port, bit_mask
from repro.energy.activity import (
    ARBITER_DECISIONS, ARBITER_GRANT_CHANGES, FLITS_ROUTED, LINK_TOGGLE_BITS, PACKETS_ROUTED,
    REG_TOGGLE_BITS, VC_ALLOCATIONS, WORDS_DELIVERED, ActivityCounters,
)
from repro.energy.area import PacketSwitchedRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.energy.timing import PacketSwitchedTiming
from repro.sim.engine import ClockedComponent

__all__ = ["PacketSwitchedRouter", "PacketTileInterface"]

_PAYLOAD_MASK = bit_mask(FLIT_PAYLOAD_BITS)


class PacketTileInterface:
    """Word/packet-level interface between a processing tile and its router."""

    def __init__(self, router: "PacketSwitchedRouter", words_per_packet: int = 16) -> None:
        if words_per_packet < 1:
            raise ValueError("words_per_packet must be positive")
        self.router = router
        self.words_per_packet = words_per_packet
        self._injection_queue: Deque[Flit] = deque()
        self._next_vc = 0
        self._partial: Dict[Tuple[Tuple[int, int], int], List[Flit]] = {}
        self.received_packets: List[Packet] = []
        self.received_words: List[int] = []
        #: Payload words delivered so far, per source tile.
        self.words_from: Dict[Tuple[int, int], int] = {}
        self.words_queued = 0

    # -- sending --------------------------------------------------------------------

    def send_packet(self, packet: Packet, vc: Optional[int] = None) -> None:
        """Queue a whole packet for injection into the network."""
        if vc is None:
            vc = self._next_vc
            self._next_vc = (self._next_vc + 1) % self.router.num_vcs
        self._injection_queue.extend(packetize(packet, vc))
        self.words_queued += len(packet.words)
        self.router.wake()

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

    # -- receiving (driven by the router) ------------------------------------------------

    def _deliver(self, flit: Flit) -> None:
        key = (flit.src, flit.packet_id)
        flits = self._partial.setdefault(key, [])
        flits.append(flit)
        if flit.flit_type.is_tail:
            del self._partial[key]
            words = [f.payload for f in flits if not f.flit_type.is_head]
            packet = Packet(src=flit.src, dest=flit.dest, words=words, packet_id=flit.packet_id)
            self.received_packets.append(packet)
            self.received_words.extend(words)
            self.words_from[flit.src] = self.words_from.get(flit.src, 0) + len(words)

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


class PacketSwitchedRouter(ClockedComponent):
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
        super().__init__(name)
        if data_width != FLIT_PAYLOAD_BITS:
            raise ConfigurationError(
                f"the baseline router models {FLIT_PAYLOAD_BITS}-bit links; "
                f"got data_width={data_width}"
            )
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
        self.buffers: Dict[Tuple[Port, int], VirtualChannelBuffer] = {
            (port, vc): VirtualChannelBuffer(f"{name}.{port.short_name}{vc}", fifo_depth, self.activity)
            for port in self.ports
            for vc in range(num_vcs)
        }
        self.vc_states = vc_state_table(list(self.ports), num_vcs)
        self.output_allocators: Dict[Port, OutputVcAllocator] = {
            port: OutputVcAllocator(port, num_vcs, fifo_depth) for port in self.ports
        }
        self.switch_arbiters: Dict[Port, RoundRobinArbiter] = {
            port: RoundRobinArbiter(self.NUM_PORTS * num_vcs) for port in self.ports
        }
        self._input_index: List[Tuple[Port, int]] = [
            (port, vc) for port in self.ports for vc in range(num_vcs)
        ]
        # Parallel flat views of the input side, aligned with _input_index,
        # so the switch-allocation loops never hash dictionary keys.
        self._input_buffers: List[VirtualChannelBuffer] = [
            self.buffers[key] for key in self._input_index
        ]
        #: Per input port, its VC buffers: an out-of-range flit VC is an IndexError.
        self._port_buffers = [
            self._input_buffers[port * num_vcs : (port + 1) * num_vcs] for port in self.ports
        ]
        #: Bit mask (in a shared cell) of the input VCs holding a flit, kept
        #: by the buffers' push/pop.
        self._occupied: List[int] = [0]
        for index, buffer in enumerate(self._input_buffers):
            buffer._occupied, buffer._bit = self._occupied, 1 << index
        self._input_states = [self.vc_states[key] for key in self._input_index]
        self._port_allocators = [self.output_allocators[p] for p in self.ports]
        self._port_arbiters = [self.switch_arbiters[p] for p in self.ports]

        self.tile = PacketTileInterface(self, words_per_packet)

        self._rx_links: Dict[Port, Optional[PacketLink]] = {p: None for p in NEIGHBOR_PORTS}
        self._tx_links: Dict[Port, Optional[PacketLink]] = {p: None for p in NEIGHBOR_PORTS}
        # Port-indexed flat working state (index = int(Port)); entry 0 (the
        # tile port) stays at its idle value in the link-related lists.
        num_ports = self.NUM_PORTS
        self._rx_by_port: List[Optional[PacketLink]] = [None] * num_ports
        self._tx_by_port: List[Optional[PacketLink]] = [None] * num_ports
        #: ``(port, link)`` of the attached links only, for the per-cycle sweeps.
        self._rx_attached: Tuple[Tuple[Port, PacketLink], ...] = ()
        self._tx_attached: Tuple[Tuple[Port, PacketLink], ...] = ()
        self._output_prev_payload: List[int] = [0] * num_ports
        #: Bit mask of the output ports whose wire the last commit drove a flit onto.
        self._driven = 0
        # Per-cycle scratch: the request mask filed under each output port.
        self._port_requests: List[int] = [0] * num_ports

    # -- wiring ------------------------------------------------------------------------

    def attach_link(self, port: Port, rx_link: Optional[PacketLink], tx_link: Optional[PacketLink]) -> None:
        """Attach the incoming and outgoing flit channels of a neighbour port."""
        port = Port(port)
        if port not in NEIGHBOR_PORTS:
            raise ConfigurationError("links can only be attached to neighbour ports")
        for link in (rx_link, tx_link):
            if link is not None and link.num_vcs != self.num_vcs:
                raise ConfigurationError(
                    f"link {link.name!r} has {link.num_vcs} VCs, router expects {self.num_vcs}"
                )
        self._rx_links[port] = rx_link
        self._tx_links[port] = tx_link
        # The port dictionaries are the source of truth; the flat lists the
        # hot loops index are rebuilt from them wholesale so the two views
        # can never drift apart.
        for neighbor in NEIGHBOR_PORTS:
            self._rx_by_port[neighbor] = self._rx_links[neighbor]
            self._tx_by_port[neighbor] = self._tx_links[neighbor]
        self._rx_attached = tuple((p, l) for p, l in self._rx_links.items() if l is not None)
        self._tx_attached = tuple((p, l) for p, l in self._tx_links.items() if l is not None)
        if rx_link is not None:
            # A flit arriving here must wake a sleeping router.
            rx_link.watch_flits(self.wake)
        if tx_link is not None:
            # Credits returned by the downstream router likewise.
            tx_link.watch_credits(self.wake)
        self.wake()

    def rx_link(self, port: Port) -> Optional[PacketLink]:
        """Incoming flit channel at *port* (``None`` at a mesh edge)."""
        return self._rx_links[Port(port)]

    def tx_link(self, port: Port) -> Optional[PacketLink]:
        """Outgoing flit channel at *port* (``None`` at a mesh edge)."""
        return self._tx_links[Port(port)]

    # -- simulation -----------------------------------------------------------------------

    settles_at_sync = True  # the cycle count is all it books per cycle

    def evaluate(self, cycle: int) -> None:
        """Nothing: the links remember what :meth:`commit` must see."""

    def commit(self, cycle: int) -> None:
        allocators = self._port_allocators
        input_buffers = self._input_buffers
        port_buffers = self._port_buffers

        # 1. Credits returned by downstream routers before this cycle (see PacketLink).
        for port, tx in self._tx_attached:
            credits = tx.credits
            if any(credits):
                returned = tx.credits_before if tx.credited_at == cycle else credits
                for vc, amount in enumerate(returned):
                    if amount:
                        allocators[port]._credits[vc] += amount
                        credits[vc] -= amount

        # 2. Accept the flits the incoming wires held when this cycle began.
        for port, rx in self._rx_attached:
            flit = rx.before if rx.changed_at == cycle else rx.forward
            if flit is not None:
                port_buffers[port][flit.vc].push(flit)

        # 3. Tile injection (local port): one flit per cycle if space allows.
        queue = self.tile._injection_queue
        if queue:
            buffer = port_buffers[Port.TILE][queue[0].vc]
            if not buffer.is_full():
                buffer.push(queue.popleft())

        # 4. One pass over the occupied input VCs: route computation and
        # output-VC allocation for head-of-line head flits, then every flit
        # that can move (output VC held; towards a neighbour, a link and a
        # credit) is filed under the one output port it requests.
        input_index = self._input_index
        input_states = self._input_states
        tx_by_port = self._tx_by_port
        requests = self._port_requests
        counts = self.activity.slots
        vc_allocations = 0
        pending = self._occupied[0]
        while pending:
            bit = pending & -pending
            pending ^= bit
            index = bit.bit_length() - 1
            state = input_states[index]
            out_port = state.out_port
            if out_port is None:
                flit = input_buffers[index]._fifo[0]
                if not flit.flit_type.is_head:
                    continue
                out_port = state.out_port = self.route(self.position, flit.dest)
            out_vc = state.out_vc
            if out_vc is None:
                out_vc = state.out_vc = allocators[out_port].try_allocate(input_index[index])
                if out_vc is None:
                    continue
                vc_allocations += 1
            if out_port and (
                tx_by_port[out_port] is None or allocators[out_port]._credits[out_vc] <= 0
            ):
                continue
            requests[out_port] |= bit
        if vc_allocations:
            counts[VC_ALLOCATIONS] += vc_allocations

        # 5. Switch allocation and flit traversal: one winner per requested port.
        routed = grant_changes = packets = reg_toggles = link_toggles = 0
        driven = 0
        prev_payload = self._output_prev_payload
        for out_port, mask in enumerate(requests):
            if not mask:
                continue
            requests[out_port] = 0
            arbiter = self._port_arbiters[out_port]
            last_winner = arbiter._last_grant
            winner_index = arbiter.grant(mask)
            if last_winner is not None and last_winner != winner_index:
                grant_changes += 1
            routed += 1

            state = input_states[winner_index]
            out_flit = input_buffers[winner_index].pop().with_vc(state.out_vc)

            # Crossbar traversal and output register toggles.
            payload = out_flit.payload
            toggles = ((prev_payload[out_port] ^ payload) & _PAYLOAD_MASK).bit_count()
            reg_toggles += toggles
            prev_payload[out_port] = payload

            if out_port:
                allocators[out_port]._credits[state.out_vc] -= 1  # step 4 saw it positive
                tx_by_port[out_port].drive(out_flit, cycle)
                driven |= 1 << out_port
                link_toggles += toggles
            else:
                self.tile._deliver(out_flit)
                # A head flit creates the counter and adds nothing to it.
                counts[WORDS_DELIVERED] += 0 if out_flit.flit_type.is_head else 1

            # Return a credit to the upstream router for the freed buffer slot.
            in_port, in_vc = input_index[winner_index]
            if in_port:
                rx = self._rx_by_port[in_port]
                if rx is not None:
                    rx.return_credit(in_vc, 1, cycle)

            if out_flit.flit_type.is_tail:
                allocators[out_port].release(state.out_vc)
                state.release()
                packets += 1
        if routed:
            counts[ARBITER_DECISIONS] += routed
            counts[FLITS_ROUTED] += routed
            if grant_changes:
                counts[ARBITER_GRANT_CHANGES] += grant_changes
            if packets:
                counts[PACKETS_ROUTED] += packets
            if reg_toggles:
                counts[REG_TOGGLE_BITS] += reg_toggles
                if link_toggles:  # an outgoing wire toggles with its register only
                    counts[LINK_TOGGLE_BITS] += link_toggles

        # 6. Outgoing wires not driven this cycle fall idle.
        stale = self._driven & ~driven
        if stale:
            for port, tx in self._tx_attached:
                if stale >> port & 1:
                    tx.drive(None, cycle)
        self._driven = driven

    def _wires_idle(self) -> bool:
        """True with no flit on any wire and no uncollected credit."""
        for _port, rx in self._rx_attached:
            if rx.forward is not None:
                return False
        for _port, tx in self._tx_attached:
            if tx.forward is not None or any(tx.credits):
                return False
        return True

    # -- timed protocol: predict "blocked until an input changes" ------------

    supports_timed_wake = True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """``None`` (park until a dirty-bit wake) when provably blocked.

        This is the one question the event schedule asks.  The router
        parks when all wires are idle in both directions with no uncollected
        credit (a just-driven flit is a transient the next commit replaces
        with ``None``), nothing is to inject, and every occupied input VC's
        head-of-line flit is immovable (tile-bound
        flits always move; a head awaiting VC allocation is stuck only with
        no free output VC; an allocated flit is stuck only with a missing
        output link or zero credit).  Every commit then degenerates to the
        idle tick — the no-request arbiter and failing VC allocation are
        both pure — until a flit, credit or injection wakes the router.

        A backlogged injection queue is an event only while the tile buffer
        it feeds has space: a back-pressured worm whose target VC buffer is
        full cannot inject either, and that buffer can only drain through
        this router's own traversal — covered by the head-of-line scan
        below — so the router parks until the credits that unblock the
        worm arrive (a dirty-bit wake on the output link).
        """
        queue = self.tile._injection_queue
        if queue and not self._port_buffers[Port.TILE][queue[0].vc].is_full():
            return cycle
        if not self._wires_idle():
            return cycle
        pending = self._occupied[0]
        while pending:
            bit = pending & -pending
            pending ^= bit
            state = self._input_states[bit.bit_length() - 1]
            if state.out_port is None:
                return cycle  # route computation still pending
            if state.out_port == Port.TILE:
                return cycle  # tile delivery never blocks
            if state.out_vc is None:
                if self._port_allocators[state.out_port].has_free_vc():
                    return cycle  # VC allocation would succeed
                continue
            if (
                self._tx_by_port[state.out_port] is not None
                and self._port_allocators[state.out_port].credits(state.out_vc) > 0
            ):
                return cycle  # switch traversal would succeed
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        """Count *cycles* cycles, busy or idle: the energy model is event-based
        (buffer accesses, arbitration, traversals), so a cycle books nothing else."""
        self.activity.cycles = start_cycle + cycles

    def reset(self) -> None:
        for buffer in self.buffers.values():
            buffer.reset()
        for state in self.vc_states.values():
            state.release()
        for allocator in self.output_allocators.values():
            allocator.reset(self.fifo_depth)
        for arbiter in self.switch_arbiters.values():
            arbiter.reset()
        self.tile.reset()
        self.activity.reset()
        self._driven = 0
        for port in range(self.NUM_PORTS):
            self._output_prev_payload[port] = 0
            self._port_requests[port] = 0
        # Return the wires this router drives to idle: flits forward, credits back.
        for _port, tx in self._tx_attached:
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
