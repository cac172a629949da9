"""Tests for the packet-switched baseline router and its datapath.

The independent oracle is a two-phase reference router kept here: the
parent's buffer, VC-state, allocator, arbiter and tile code verbatim (flits
as :class:`Flit` objects) clocked per router, ``evaluate`` sampling every
incoming wire and collecting every credit.  It shares nothing with the
production routers but the wires, which carry packed flits.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import pytest
from conftest import FabricScenario, fabric_scenarios, step_twins, twin_benches
from pacing import CyclePacer
from hypothesis import example, given, settings, strategies as st

from repro.apps.traffic import BitFlipPattern, scenario_by_name, word_generator
from repro.baseline.flit import (
    FLIT_PAYLOAD_BITS, HEAD_BIT, PAYLOAD_MASK, PAYLOAD_SHIFT, VC_MASK, Flit, FlitType, Packet, pack, pack_packet,
    packetize, unpack,
)
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.baseline.routing import xy_route
from repro.baseline.testbench import (
    PacketStreamConsumer,
    PacketStreamDriver,
    TilePacketDriver,
)
from repro.common import (
    ALL_PORTS, NEIGHBOR_PORTS, CapacityError, ConfigurationError, Port, SimulationError, bit_mask, port_offset,
    toggle_count,
)
from repro.core.header import phits_per_packet
from repro.energy.activity import ActivityCounters, ActivityKeys, BUFFER_READ_BITS, BUFFER_WRITE_BITS
from repro.noc import IrregularMesh, Mesh2D, PacketSwitchedNoC
from repro.sim.engine import DEFAULT_SCHEDULE, ClockedComponent, SimulationKernel


def words(seed: int = 0):
    rng = random.Random(seed)
    return lambda: rng.getrandbits(16)


def _clocked(*routers, endpoints=()):
    """A datapath clocking *routers* and running the stream *endpoints*."""
    datapath = PacketDatapath("dut_datapath", routers)
    for endpoint in endpoints:
        datapath.adopt(endpoint)
    return datapath


class TestConstruction:
    def test_link_width_is_fixed_at_16_bits(self):
        with pytest.raises(ConfigurationError):
            PacketSwitchedRouter("r", data_width=32)

    def test_attach_link_vc_count_checked(self):
        router = PacketSwitchedRouter("r")
        with pytest.raises(ConfigurationError):
            router.attach_link(Port.EAST, PacketLink("bad", num_vcs=2), None)
        with pytest.raises(ConfigurationError):
            router.attach_link(Port.TILE, PacketLink("rx"), PacketLink("tx"))

    def test_area_and_frequency_accessors(self):
        router = PacketSwitchedRouter("r")
        assert router.total_area_mm2 == pytest.approx(0.18, rel=0.05)
        assert router.max_frequency_mhz() == pytest.approx(507, rel=0.05)

    def test_buffer_inventory(self):
        router = PacketSwitchedRouter("r", num_vcs=4)
        assert len(router._fifos) == len(router._route) == len(router._credits) == 5 * 4
        assert len(router._free) == len(router._grant_last) == 5


class TestSingleRouterTraffic:
    def test_tile_to_east(self, ps_router_with_links, kernel_25mhz):
        router, links = ps_router_with_links
        driver = TilePacketDriver("src", router, words(1), dest=(2, 1), load=1.0, vc=0)
        consumer = PacketStreamConsumer("dst", links[Port.EAST][1])
        kernel_25mhz.add(_clocked(router, endpoints=[driver, consumer]))
        kernel_25mhz.run(600)
        assert driver.words_sent > 0
        assert consumer.words_received >= driver.words_sent - router.tile.words_per_packet
        # Payload order is preserved by wormhole switching.
        reference = words(1)
        expected = [reference() for _ in range(consumer.words_received)]
        assert consumer.received_words == expected

    def test_north_to_tile(self, ps_router_with_links, kernel_25mhz):
        router, links = ps_router_with_links
        driver = PacketStreamDriver(
            "src", links[Port.NORTH][0], words(2), dest=(1, 1), src=(1, 2), load=1.0, vc=1
        )
        kernel_25mhz.add(_clocked(router, endpoints=[driver]))
        kernel_25mhz.run(600)
        assert router.tile.words_received >= driver.words_sent - 32

    def test_pass_through_west_to_east(self, ps_router_with_links, kernel_25mhz):
        router, links = ps_router_with_links
        driver = PacketStreamDriver(
            "src", links[Port.WEST][0], words(3), dest=(2, 1), src=(0, 1), load=1.0, vc=2
        )
        consumer = PacketStreamConsumer("dst", links[Port.EAST][1])
        kernel_25mhz.add(_clocked(router, endpoints=[driver, consumer]))
        kernel_25mhz.run(600)
        assert consumer.words_received > 0
        assert router.activity.get(ActivityKeys.FLITS_ROUTED) > 0
        assert router.activity.get(ActivityKeys.PACKETS_ROUTED) > 0

    def test_collision_on_east_causes_arbitration(self, ps_router_with_links, kernel_25mhz):
        """Streams 1 and 3 of Table 3 both leave through East: the switch
        allocator must interleave them, producing grant changes (the paper's
        extra control switching), and both streams must still be delivered."""
        router, links = ps_router_with_links
        tile_driver = TilePacketDriver("src_t", router, words(4), dest=(2, 1), load=1.0, vc=0)
        west_driver = PacketStreamDriver(
            "src_w", links[Port.WEST][0], words(5), dest=(2, 1), src=(0, 1), load=1.0, vc=1
        )
        consumer = PacketStreamConsumer("dst", links[Port.EAST][1])
        kernel_25mhz.add(_clocked(router, endpoints=[west_driver, consumer, tile_driver]))
        kernel_25mhz.run(1000)
        assert router.activity.get(ActivityKeys.ARBITER_GRANT_CHANGES) > 0
        sent = tile_driver.words_sent + west_driver.words_sent
        assert consumer.words_received >= sent - 3 * router.tile.words_per_packet

    def test_idle_router_moves_no_flits(self, ps_router_with_links, kernel_25mhz):
        router, _ = ps_router_with_links
        kernel_25mhz.add(_clocked(router))
        kernel_25mhz.run(200)
        assert router.activity.get(ActivityKeys.FLITS_ROUTED) == 0
        assert router.activity.get(ActivityKeys.BUFFER_WRITE_BITS) == 0

    def test_reset(self, ps_router_with_links, kernel_25mhz):
        router, links = ps_router_with_links
        driver = TilePacketDriver("src", router, words(6), dest=(2, 1), load=1.0, vc=0)
        consumer = PacketStreamConsumer("dst", links[Port.EAST][1])
        kernel_25mhz.add(_clocked(router, endpoints=[consumer, driver]))
        kernel_25mhz.run(100)
        router.reset()
        assert router.activity.cycles == 0
        assert not router._occupied and not any(router._fifos)


class TestTileInterface:
    def test_send_words_splits_into_packets(self):
        router = PacketSwitchedRouter("r", words_per_packet=4)
        packets = router.tile.send_words((2, 1), list(range(10)))
        assert packets == 3
        assert router.tile.injection_backlog == 10 + 3  # payload flits + head flits

    def test_send_packet_round_robins_vcs(self):
        router = PacketSwitchedRouter("r")
        for _ in range(router.num_vcs + 1):
            router.tile.send_packet(Packet(src=router.position, dest=(2, 1), words=[1]))
        backlog_vcs = {flit & VC_MASK for flit in router.tile._injection_queue}
        assert len(backlog_vcs) == router.num_vcs

    def test_two_router_link(self):
        """Two routers connected east-west: words injected at the first tile
        arrive at the second tile (multi-hop wormhole + credit flow control)."""
        left = PacketSwitchedRouter("left", position=(0, 0))
        right = PacketSwitchedRouter("right", position=(1, 0))
        l2r = PacketLink("l2r")
        r2l = PacketLink("r2l")
        left.attach_link(Port.EAST, r2l, l2r)
        right.attach_link(Port.WEST, l2r, r2l)

        kernel = SimulationKernel(25e6)
        driver = TilePacketDriver("src", left, words(7), dest=(1, 0), load=1.0, vc=0)
        kernel.add(_clocked(left, right, endpoints=[driver]))
        kernel.run(800)
        assert driver.words_sent > 0
        assert right.tile.words_received >= driver.words_sent - left.tile.words_per_packet


# ---------------------------------------------------------------------------
# The reference: the parent's router parts, verbatim, in a two-phase router
# ---------------------------------------------------------------------------


class RoundRobinArbiter:
    """A classic rotating-priority arbiter.

    The arbiter remembers the last granted requester; the search for the next
    grant starts just after it, which guarantees that every persistent
    requester is eventually served (fairness) and that a single persistent
    requester keeps its grant (no spurious switching).
    """

    def __init__(self, num_requesters: int) -> None:
        if num_requesters < 1:
            raise ValueError("an arbiter needs at least one requester")
        self.num_requesters = num_requesters
        self._all = bit_mask(num_requesters)
        self._pointer = 0
        self._last_grant: Optional[int] = None
        self.decisions = 0
        self.grant_changes = 0

    @property
    def last_grant(self) -> Optional[int]:
        """The requester granted on the most recent decision (``None`` initially)."""
        return self._last_grant

    def grant(self, requests: int) -> Optional[int]:
        """Pick one requester from the bit mask *requests*; ``None`` when it is 0.

        Bit ``i`` set means requester ``i`` requests.  Statistics (number of
        decisions, number of grant changes) are updated as a side effect; the
        router copies them into its activity counters.
        """
        if not 0 <= requests <= self._all:
            raise ValueError(
                f"request mask {requests:#x} does not fit {self.num_requesters} request lines"
            )
        if not requests:
            return None
        self.decisions += 1
        # Rotating priority: the lowest set bit at or above the pointer,
        # else (wrap-around) the lowest set bit.
        ahead = requests >> self._pointer
        if ahead:
            candidate = self._pointer + (ahead & -ahead).bit_length() - 1
        else:
            candidate = (requests & -requests).bit_length() - 1
        if self._last_grant is not None and candidate != self._last_grant:
            self.grant_changes += 1
        self._last_grant = candidate
        self._pointer = (candidate + 1) % self.num_requesters
        return candidate

    def reset(self) -> None:
        """Forget all arbitration history."""
        self._pointer = 0
        self._last_grant = None
        self.decisions = 0
        self.grant_changes = 0


class VirtualChannelBuffer:
    """A FIFO of flits for one (input port, virtual channel) pair."""

    def __init__(
        self,
        name: str,
        depth: int = 8,
        activity: ActivityCounters | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError("buffer depth must be positive")
        self.name = name
        self.depth = depth
        self.activity = activity if activity is not None else ActivityCounters(name)
        self._fifo: Deque[Flit] = deque()
        #: ``[mask]`` cell and this buffer's bit in it: set while a flit is
        #: stored.  A router points its buffers at one shared cell, so its
        #: per-cycle loops visit the occupied buffers only.
        self._occupied: List[int] = [0]
        self._bit = 1
        self.total_writes = 0
        self.total_reads = 0
        self.max_occupancy = 0

    # -- occupancy ----------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of flits currently stored."""
        return len(self._fifo)

    @property
    def free_slots(self) -> int:
        """Remaining capacity in flits."""
        return self.depth - len(self._fifo)

    def is_empty(self) -> bool:
        """True when no flit is stored."""
        return not self._fifo

    def is_full(self) -> bool:
        """True when no further flit can be accepted."""
        return len(self._fifo) >= self.depth

    # -- data movement ----------------------------------------------------------------

    def push(self, flit: Flit) -> None:
        """Write one flit into the FIFO (records buffer-write energy)."""
        fifo = self._fifo
        if len(fifo) >= self.depth:
            raise CapacityError(
                f"buffer {self.name} overflow: upstream ignored credit-based flow control"
            )
        fifo.append(flit)
        self._occupied[0] |= self._bit
        self.total_writes += 1
        if len(fifo) > self.max_occupancy:
            self.max_occupancy = len(fifo)
        self.activity.slots[BUFFER_WRITE_BITS] += flit.storage_bits

    def front(self) -> Optional[Flit]:
        """The head-of-line flit without removing it (``None`` when empty)."""
        return self._fifo[0] if self._fifo else None

    def pop(self) -> Flit:
        """Remove and return the head-of-line flit (records buffer-read energy)."""
        fifo = self._fifo
        if not fifo:
            raise CapacityError(f"buffer {self.name} underflow: pop from an empty FIFO")
        flit = fifo.popleft()
        if not fifo:
            self._occupied[0] &= ~self._bit
        self.total_reads += 1
        self.activity.slots[BUFFER_READ_BITS] += flit.storage_bits
        return flit

    def reset(self) -> None:
        """Drop all stored flits and statistics."""
        self._fifo.clear()
        self._occupied[0] &= ~self._bit
        self.total_writes = 0
        self.total_reads = 0
        self.max_occupancy = 0


@dataclass(slots=True)
class InputVcState:
    """Book-keeping of one input virtual channel of the router."""

    port: Port
    vc: int
    #: Output port chosen by route computation for the packet currently
    #: occupying this VC (``None`` when idle or not yet routed).
    out_port: Optional[Port] = None
    #: Output VC allocated on that port (``None`` until VC allocation wins).
    out_vc: Optional[int] = None

    @property
    def routed(self) -> bool:
        """True once route computation has run for the current packet."""
        return self.out_port is not None

    @property
    def allocated(self) -> bool:
        """True once an output VC has been granted to the current packet."""
        return self.out_vc is not None

    def release(self) -> None:
        """Forget all per-packet state (called after the tail flit leaves)."""
        self.out_port = None
        self.out_vc = None


class OutputVcAllocator:
    """Per-output-port allocator of output virtual channels and credits."""

    def __init__(self, port: Port, num_vcs: int, downstream_buffer_depth: int) -> None:
        if num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if downstream_buffer_depth < 1:
            raise ValueError("downstream buffer depth must be positive")
        self.port = port
        self.num_vcs = num_vcs
        #: Remaining downstream buffer credit per output VC.
        self._credits: List[int] = [downstream_buffer_depth] * num_vcs
        #: Input ``(port, vc)`` holding each output VC (``None`` = free) and
        #: the same as a bit mask of the free ones, kept by allocate/release.
        self._holders: List[Optional[tuple[Port, int]]] = [None] * num_vcs
        self._free = bit_mask(num_vcs)
        self._arbiter = RoundRobinArbiter(num_vcs)
        self.allocations = 0

    # -- allocation ----------------------------------------------------------------

    def try_allocate(self, requester: tuple[Port, int]) -> Optional[int]:
        """Grant a free output VC to *requester* (an input ``(port, vc)``)."""
        choice = self._arbiter.grant(self._free)
        if choice is not None:
            self._holders[choice] = requester
            self._free &= ~(1 << choice)
            self.allocations += 1
        return choice

    def has_free_vc(self) -> bool:
        """True when :meth:`try_allocate` would currently succeed.

        Pure inspection (the round-robin pointer does not move) — used by
        the router's event-schedule stall prediction.
        """
        return self._free != 0

    def release(self, vc: int) -> None:
        """Free an output VC after the packet's tail flit has left."""
        self._check_vc(vc)
        self._holders[vc] = None
        self._free |= 1 << vc

    def holder(self, vc: int) -> Optional[tuple[Port, int]]:
        """The input (port, vc) currently holding output VC *vc*."""
        self._check_vc(vc)
        return self._holders[vc]

    # -- credits ----------------------------------------------------------------------

    def credits(self, vc: int) -> int:
        """Remaining downstream buffer credit of output VC *vc*."""
        self._check_vc(vc)
        return self._credits[vc]

    def consume_credit(self, vc: int) -> None:
        """Spend one credit when a flit is sent on output VC *vc*."""
        self._check_vc(vc)
        if self._credits[vc] <= 0:
            raise ValueError(f"no credit left on {self.port.name} VC {vc}")
        self._credits[vc] -= 1

    def add_credits(self, vc: int, amount: int) -> None:
        """Return *amount* credits (downstream freed buffer slots)."""
        self._check_vc(vc)
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        self._credits[vc] += amount

    def reset(self, downstream_buffer_depth: int) -> None:
        """Return to the power-on state with fresh credit counters."""
        for vc in range(self.num_vcs):
            self._credits[vc] = downstream_buffer_depth
            self._holders[vc] = None
        self._free = bit_mask(self.num_vcs)
        self._arbiter.reset()
        self.allocations = 0

    def _check_vc(self, vc: int) -> None:
        if not 0 <= vc < self.num_vcs:
            raise IndexError(f"virtual channel {vc} out of range 0..{self.num_vcs - 1}")


def vc_state_table(ports: List[Port], num_vcs: int) -> Dict[tuple[Port, int], InputVcState]:
    """Build the input-VC state table for a router with the given ports."""
    return {
        (port, vc): InputVcState(port=port, vc=vc)
        for port in ports
        for vc in range(num_vcs)
    }


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


def _reference_take_all_credits(link, into):
    credits = link.credits
    for vc in range(link.num_vcs):
        into[vc] = credits[vc]
        credits[vc] = 0


def _reference_with_vc(flit, vc):
    return Flit(flit.flit_type, flit.payload, flit.dest, flit.src, vc, flit.packet_id, flit.sequence)


class _ReferenceRouter(ClockedComponent):
    """The parent's per-router state clocked in two phases: ``evaluate``
    samples every incoming wire and collects every credit, ``commit`` counts
    its cycle; a nested request scan per output port, per-event counter adds.
    Its kernel runs ``strict``: it never leaps, and its next_event_cycle() is
    only compared with the datapath's."""

    NUM_PORTS = 5
    bench_schedule = "strict"

    def __init__(self, name, position=(0, 0), num_vcs=4, fifo_depth=8, data_width=16, words_per_packet=16,
                 tech=None, route=None):
        super().__init__(name)
        self.position = position
        self.route = route if route is not None else xy_route
        self.num_vcs, self.fifo_depth = num_vcs, fifo_depth
        self.activity = ActivityCounters(name)
        self.ports = ALL_PORTS[: self.NUM_PORTS]
        self.buffers = {
            (port, vc): VirtualChannelBuffer(f"{name}.{port.short_name}{vc}", fifo_depth, self.activity)
            for port in self.ports
            for vc in range(num_vcs)
        }
        self.vc_states = vc_state_table(list(self.ports), num_vcs)
        self.output_allocators = {port: OutputVcAllocator(port, num_vcs, fifo_depth) for port in self.ports}
        self.switch_arbiters = {port: RoundRobinArbiter(self.NUM_PORTS * num_vcs) for port in self.ports}
        self._input_index = [(port, vc) for port in self.ports for vc in range(num_vcs)]
        self._input_buffers = [self.buffers[key] for key in self._input_index]
        self._input_states = [self.vc_states[key] for key in self._input_index]
        self._port_allocators = [self.output_allocators[p] for p in self.ports]
        self._port_arbiters = [self.switch_arbiters[p] for p in self.ports]
        self.tile = PacketTileInterface(self, words_per_packet)
        self._rx_by_port = [None] * self.NUM_PORTS
        self._tx_by_port = [None] * self.NUM_PORTS
        self._output_prev_payload = [0] * self.NUM_PORTS
        self._last_winner = [None] * self.NUM_PORTS
        self._sampled_flits = [None] * self.NUM_PORTS
        self._sampled_credits = [[0] * num_vcs for _ in range(self.NUM_PORTS)]
        self._driven = [None] * self.NUM_PORTS
        self._credit_returns = [[] for _ in range(self.NUM_PORTS)]

    def attach_link(self, port, rx_link, tx_link):
        port = Port(port)
        self._rx_by_port[port], self._tx_by_port[port] = rx_link, tx_link

    def rx_link(self, port):
        return self._rx_by_port[Port(port)]

    def tx_link(self, port):
        return self._tx_by_port[Port(port)]

    def evaluate(self, cycle):
        sampled_flits = self._sampled_flits
        sampled_credits = self._sampled_credits
        for port in NEIGHBOR_PORTS:
            rx = self._rx_by_port[port]
            sampled_flits[port] = unpack(rx.forward) if rx is not None and rx.forward is not None else None
            tx = self._tx_by_port[port]
            credits = sampled_credits[port]
            if tx is not None:
                _reference_take_all_credits(tx, credits)
            else:
                for vc in range(self.num_vcs):
                    credits[vc] = 0

    def commit(self, cycle):
        activity = self.activity

        # 1. Credits returned by downstream routers.
        for port in NEIGHBOR_PORTS:
            allocator = self._port_allocators[port]
            for vc, amount in enumerate(self._sampled_credits[port]):
                if amount:
                    allocator.add_credits(vc, amount)

        # 2. Accept incoming flits into the input VC buffers.
        for port in NEIGHBOR_PORTS:
            flit = self._sampled_flits[port]
            if flit is not None:
                self.buffers[(port, flit.vc)].push(flit)

        # 3. Tile injection (local port): one flit per cycle if space allows.
        queue = self.tile._injection_queue
        if queue:
            flit = queue[0]
            buffer = self.buffers[(Port.TILE, flit.vc)]
            if not buffer.is_full():
                buffer.push(queue.popleft())

        # 4. Route computation and output-VC allocation for head-of-line head flits.
        input_index = self._input_index
        input_buffers = self._input_buffers
        input_states = self._input_states
        for index, buffer in enumerate(input_buffers):
            flit = buffer.front()
            if flit is None:
                continue
            state = input_states[index]
            if flit.flit_type.is_head and state.out_port is None:
                state.out_port = self.route(self.position, flit.dest)
            if state.out_port is not None and state.out_vc is None:
                out_vc = self._port_allocators[state.out_port].try_allocate(input_index[index])
                if out_vc is not None:
                    state.out_vc = out_vc
                    activity.add(ActivityKeys.VC_ALLOCATIONS, 1)

        # 5. Switch allocation and flit traversal, one winner per output port.
        credit_returns = self._credit_returns
        driven = self._driven
        for out_port in self.ports:
            is_neighbor = out_port is not Port.TILE
            allocator = self._port_allocators[out_port]
            tx_missing = is_neighbor and self._tx_by_port[out_port] is None
            requests = 0
            for index, buffer in enumerate(input_buffers):
                state = input_states[index]
                wants = (
                    state.out_port == out_port
                    and state.out_vc is not None
                    and len(buffer._fifo) != 0
                )
                if wants and is_neighbor:
                    wants = not tx_missing and allocator.credits(state.out_vc) > 0
                if wants:
                    requests |= 1 << index
            winner_index = self._port_arbiters[out_port].grant(requests)
            if winner_index is None:
                continue
            winner_key = input_index[winner_index]
            activity.add(ActivityKeys.ARBITER_DECISIONS, 1)
            last_winner = self._last_winner[out_port]
            if last_winner is not None and last_winner != winner_key:
                activity.add(ActivityKeys.ARBITER_GRANT_CHANGES, 1)
            self._last_winner[out_port] = winner_key

            state = input_states[winner_index]
            flit = input_buffers[winner_index].pop()
            out_flit = _reference_with_vc(flit, state.out_vc)
            activity.add(ActivityKeys.FLITS_ROUTED, 1)

            # Crossbar traversal and output register toggles.
            toggles = toggle_count(
                self._output_prev_payload[out_port], out_flit.payload, FLIT_PAYLOAD_BITS
            )
            if toggles:
                activity.add(ActivityKeys.REG_TOGGLE_BITS, toggles)
            self._output_prev_payload[out_port] = out_flit.payload

            if out_port == Port.TILE:
                self.tile._deliver(out_flit)
                activity.add(ActivityKeys.WORDS_DELIVERED, 0 if out_flit.flit_type.is_head else 1)
            else:
                allocator.consume_credit(state.out_vc)
                driven[out_port] = out_flit
                if toggles:
                    activity.add(ActivityKeys.LINK_TOGGLE_BITS, toggles)

            # Return a credit to the upstream router for the freed buffer slot.
            in_port, in_vc = winner_key
            if in_port is not Port.TILE:
                credit_returns[in_port].append(in_vc)

            if out_flit.flit_type.is_tail:
                self._port_allocators[state.out_port].release(state.out_vc)
                state.release()
                activity.add(ActivityKeys.PACKETS_ROUTED, 1)

        # 6. Drive the outgoing links and the upstream credit wires.
        for port in NEIGHBOR_PORTS:
            tx = self._tx_by_port[port]
            if tx is not None:
                tx.drive(None if driven[port] is None else pack(driven[port]))
                driven[port] = None
            rx = self._rx_by_port[port]
            returns = credit_returns[port]
            if returns:
                if rx is not None:
                    for vc in returns:
                        rx.return_credit(vc, 1)
                returns.clear()

        activity.cycles = cycle + 1

    def next_event_cycle(self, cycle):
        queue = self.tile._injection_queue
        if queue and not self.buffers[(Port.TILE, queue[0].vc)].is_full():
            return cycle
        for port in NEIGHBOR_PORTS:
            rx = self._rx_by_port[port]
            if rx is not None and rx.forward is not None:
                return cycle
            tx = self._tx_by_port[port]
            if tx is not None and (tx.forward is not None or any(tx.credits)):
                return cycle
        input_states = self._input_states
        for index, buffer in enumerate(self._input_buffers):
            flit = buffer.front()
            if flit is None:
                continue
            state = input_states[index]
            if state.out_port is None:
                return cycle  # route computation still pending
            if state.out_vc is None:
                if self._port_allocators[state.out_port].has_free_vc():
                    return cycle  # VC allocation would succeed
                continue
            if state.out_port == Port.TILE:
                return cycle  # an allocated tile VC always delivers
            if (
                self._tx_by_port[state.out_port] is not None
                and self._port_allocators[state.out_port].credits(state.out_vc) > 0
            ):
                return cycle  # switch traversal would succeed
        return None

    def reset(self):
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
        for port in range(self.NUM_PORTS):
            self._output_prev_payload[port] = 0
            self._last_winner[port] = None
        for tx in self._tx_by_port:
            if tx is not None:
                tx.reset()


class _ReferenceTilePacketDriver(ClockedComponent):
    """The tile stream driver as a kernel component, verbatim: paced in
    evaluate() one cycle at a time."""

    def __init__(self, name, router, word_source, dest, load=1.0, vc=0, words_per_packet=None, data_width=16,
                 lane_width=4):
        super().__init__(name)
        self.router = router
        self.word_source = word_source
        self.dest = dest
        self.vc = vc
        self.words_per_packet = words_per_packet or router.tile.words_per_packet
        self._pacer = CyclePacer(load, phits_per_packet(data_width, lane_width))
        self._pending_words = []
        self.words_offered = 0
        self.words_sent = 0

    def evaluate(self, cycle):
        if self._pacer.should_emit():
            self.words_offered += 1
            self._pending_words.append(self.word_source())
            if len(self._pending_words) >= self.words_per_packet:
                packet = Packet(
                    src=self.router.position, dest=self.dest, words=list(self._pending_words)
                )
                self.router.tile.send_packet(packet, self.vc)
                self.words_sent += len(self._pending_words)
                self._pending_words.clear()

    def commit(self, cycle):  # the router owns all clocked state
        pass

    def next_event_cycle(self, cycle):
        return self._pacer.next_emit_cycle(cycle)

    def reset(self):
        self._pacer.reset()
        self._pending_words.clear()
        self.words_offered = 0
        self.words_sent = 0


def _reference_packet_driver(driver):
    """The kernel-component twin of a :class:`TilePacketDriver` record."""
    return _ReferenceTilePacketDriver(driver.name, driver.router, driver.word_source, driver.dest,
                                      driver.pacer.load, driver.vc, driver.words_per_packet)


class _ReferencePacketStreamDriver(ClockedComponent):
    """The link stream driver as a kernel component, verbatim: paced in
    evaluate() one cycle at a time."""

    def __init__(self, name, link, word_source, dest, src, load=1.0, vc=0, words_per_packet=16,
                 downstream_buffer_depth=8, data_width=16, lane_width=4):
        super().__init__(name)
        self.link = link
        self.word_source = word_source
        self.dest = dest
        self.src = src
        self.vc = vc
        self.words_per_packet = words_per_packet
        self._pacer = CyclePacer(load, phits_per_packet(data_width, lane_width))
        self._buffer_depth = self._credits = downstream_buffer_depth
        self._flit_queue = deque()
        self._pending_words = []
        self.words_offered = 0
        self.words_sent = 0
        self.flits_sent = 0

    def evaluate(self, cycle):
        # Collect credits returned by the router for our virtual channel.
        self._credits += self.link.take_credits(self.vc)
        if self._pacer.should_emit():
            self.words_offered += 1
            self._pending_words.append(self.word_source())
            if len(self._pending_words) >= self.words_per_packet:
                self._flush()

    def _flush(self):
        if not self._pending_words:
            return
        packet = Packet(src=self.src, dest=self.dest, words=list(self._pending_words))
        self._flit_queue.extend(pack_packet(packet, self.vc))
        self.words_sent += len(self._pending_words)
        self._pending_words.clear()

    def commit(self, cycle):
        if self._flit_queue and self._credits > 0:
            flit = self._flit_queue.popleft()
            self._credits -= 1
            self.flits_sent += 1
            self.link.drive(flit)
        else:
            self.link.drive(None)

    def next_event_cycle(self, cycle):
        if (
            self._flit_queue
            or self.link.credits[self.vc]
            or self.link.forward is not None
        ):
            return cycle
        return self._pacer.next_emit_cycle(cycle)

    def reset(self):
        self._pacer.reset()
        self.link.reset()  # flits forward and credits back: both start over
        self._credits = self._buffer_depth
        self._flit_queue.clear()
        self._pending_words.clear()
        self.words_offered = 0
        self.words_sent = 0
        self.flits_sent = 0


class _ReferencePacketStreamConsumer(ClockedComponent):
    """The link stream consumer as a kernel component, verbatim: samples the
    wire in evaluate(), takes the flit and returns its credit in commit()."""

    def __init__(self, name, link):
        super().__init__(name)
        self.link = link
        self.received_flits = []
        self.received_words = []
        self._sampled = None

    def evaluate(self, cycle):
        self._sampled = self.link.read()

    def commit(self, cycle):
        flit = self._sampled
        if flit is None:
            return
        self.received_flits.append(flit)
        if not flit & HEAD_BIT:
            self.received_words.append(flit >> PAYLOAD_SHIFT & PAYLOAD_MASK)
        # An always-consuming downstream immediately frees the buffer slot.
        self.link.return_credit(flit & VC_MASK)

    def next_event_cycle(self, cycle):
        if self.link.forward is not None or self._sampled is not None:
            return cycle
        return None

    @property
    def words_received(self):
        return len(self.received_words)

    def reset(self):
        self.received_flits.clear()
        self.received_words.clear()
        self._sampled = None


def _link_streams(router):
    """The link stream endpoint classes a bench of *router* runs: the records,
    or their reference components on a reference router."""
    if isinstance(router, _ReferenceRouter):
        return _ReferencePacketStreamDriver, _ReferencePacketStreamConsumer
    return PacketStreamDriver, PacketStreamConsumer


class _ReferencePacketNoC(PacketSwitchedNoC):
    def __init__(self, topology, schedule=DEFAULT_SCHEDULE, **kwargs):
        # The reference routers never leap: *schedule* is the production twin's.
        super().__init__(topology, schedule="strict", **kwargs)

    def _build_router(self, position):
        return _ReferenceRouter(
            f"ps_{self.topology.router_name(position)}",
            position=position,
            num_vcs=self.num_vcs,
            fifo_depth=self.fifo_depth,
            words_per_packet=self.words_per_packet,
            route=self.routing.port_for,
        )

    def _register_with_kernel(self):
        for router in self.routers.values():
            self.kernel.add(router)

    def _adopt_driver(self, driver):
        return self.kernel.add(_reference_packet_driver(driver))

    def _remove_component(self, component):
        if component is not None and component._scheduler is self.kernel:
            self.kernel.remove(component)


def _fields(flit):
    """A comparable flit: everything but the process-global packet id."""
    return flit and (flit.flit_type, flit.payload, flit.dest, flit.src, flit.vc, flit.sequence)


def _wire(flit):
    return None if flit is None else _fields(unpack(flit))


def _last(arbiter):
    return -1 if arbiter._last_grant is None else arbiter._last_grant


def _router_state(router):
    """Everything a cycle can change, in one form for both router models."""
    tile = router.tile
    if isinstance(router, _ReferenceRouter):
        allocators = router._port_allocators
        state = (
            [[_fields(flit) for flit in buffer._fifo] for buffer in router._input_buffers],
            [(state.out_port, state.out_vc) for state in router._input_states],
            [allocator.credits(vc) for allocator in allocators for vc in range(router.num_vcs)],
            [allocator._free for allocator in allocators],
            [_last(allocator._arbiter) for allocator in allocators],
            [_last(arbiter) for arbiter in router._port_arbiters],
            list(router._output_prev_payload),
            [_fields(flit) for flit in tile._injection_queue],
        )
    else:
        state = (
            [[_wire(flit) for flit in fifo] for fifo in router._fifos],
            list(zip(router._route, router._out_vc)),
            list(router._credits),
            list(router._free),
            list(router._vc_last),
            list(router._grant_last),
            list(router._prev_payload),
            [_wire(flit) for flit in tile._injection_queue],
        )
    received = [(packet.src, packet.dest, packet.words) for packet in tile.received_packets]
    return (router.activity.as_dict(), router.activity.cycles), state, (received, dict(tile.words_from))


def _link_state(link):
    return _wire(link.forward), list(link.credits), link.dead, link.dropped


def _network_state(network):
    return (
        {position: _router_state(router) for position, router in network.routers.items()},
        {key: _link_state(link) for key, link in network.links.items()},
    )


def _run_lockstep(scenario, **sizes):
    """Step a datapath fabric and its reference twin through *scenario*: equal
    after every cycle, and the datapath parks only where every reference would."""
    networks = [
        scenario.build(lambda topology, **kw: cls(topology, **sizes, **kw))
        for cls in (PacketSwitchedNoC, _ReferencePacketNoC)
    ]
    production, reference = networks
    never = float("inf")
    for cycle in scenario.steps(networks):
        assert _network_state(production) == _network_state(reference), f"diverged in cycle {cycle}"
        now = production.kernel.cycle
        # The datapath sleeps no longer than the reference routers and drivers all would.
        events = [clock.next_event_cycle(now) for clock in reference.kernel.components]
        parked = production.datapath.next_event_cycle(now)
        assert (never if parked is None else parked) <= min((e for e in events if e is not None), default=never), now
    assert production.stream_statistics() == reference.stream_statistics()
    assert production.fault_drops() == reference.fault_drops()


class TestCommitEqualsReference:
    @given(
        scenario=fabric_scenarios(),
        num_vcs=st.integers(1, 4),
        fifo_depth=st.integers(1, 8),
        words_per_packet=st.sampled_from([1, 3, 16]),
    )
    @settings(max_examples=40, deadline=None)
    @example(  # a head flit waits on the only tile VC, held by a packet whose tail died with a link
        scenario=FabricScenario(
            IrregularMesh(Mesh2D(2, 2), [((0, 1), (1, 1))]),
            [(src, (1, 0), 200.0, 1.0) for src in ((0, 0), (0, 1), (1, 1))],
            120,
            (25, (0, 0), (0, 1), False),
            None,
        ),
        num_vcs=1, fifo_depth=2, words_per_packet=3,
    )
    def test_lockstep_on_drawn_fabrics(self, scenario, num_vcs, fifo_depth, words_per_packet):
        """Random channels, loads and one mid-run link fault on a drawn mesh,
        torus or irregular mesh, under both schedules: after every cycle the
        datapath leaves every router equal to its reference in counters (key
        set included), FIFOs, routes and VCs, credits, free masks, grant
        pointers, registers and tiles, and every wire (flit, credits, dead,
        dropped) equal."""
        _run_lockstep(scenario, num_vcs=num_vcs, fifo_depth=fifo_depth, words_per_packet=words_per_packet)

    @pytest.mark.parametrize("schedule", [None, "strict"])
    @pytest.mark.parametrize("fifo_depth", [1, 2])
    def test_backpressured_hotspot_with_a_link_fault(self, schedule, fifo_depth):
        """Every tile floods one: credits run out, worms stall and restart on
        returned credits, and a link into the hotspot dies mid-run."""
        topology = Mesh2D(4, 4)
        hot = (1, 2)
        channels = [(src, hot, 2000.0, 1.0) for src in sorted(topology.positions()) if src != hot]
        scenario = FabricScenario(topology, channels, 260, (120, (1, 1), hot, True), schedule)
        _run_lockstep(scenario, num_vcs=2, fifo_depth=fifo_depth, words_per_packet=3)

    def test_reference_is_wired_in(self):
        network = _ReferencePacketNoC(Mesh2D(2, 1))
        router = network.router_at((0, 0))
        assert type(router) is _ReferenceRouter and type(router.tile) is PacketTileInterface
        assert network.datapath is None and router in network.kernel.components
        network = PacketSwitchedNoC(Mesh2D(2, 1))
        assert type(network.router_at((0, 0))) is PacketSwitchedRouter
        assert network.kernel.components == (network.datapath,)


def _twin_benches(setup, **router_kwargs):
    """A datapath and a reference single-router bench, populated alike by *setup*."""
    return twin_benches(
        (PacketSwitchedRouter, _ReferenceRouter),
        lambda name, router: PacketLink(name, router.num_vcs),
        setup,
        **router_kwargs,
    )


def _bench_state(router, links, _kernel):
    wires = {port: [(_wire(link.forward), list(link.credits)) for link in pair] for port, pair in links.items()}
    return _router_state(router), wires


def _step_twins(benches, cycles):
    step_twins(benches, cycles, _bench_state)


def _endpoint_benches(setup, **router_kwargs):
    """:func:`_twin_benches`, each bench carrying the endpoints *setup* made last."""
    endpoints = {}

    def keep(router, links):
        endpoints[router] = setup(router, links)
        return endpoints[router]

    return [(*bench, endpoints[bench[0]]) for bench in _twin_benches(keep, **router_kwargs)]


def _endpoint_state(router, links, kernel, endpoints):
    """The bench state, then every endpoint's counters and receptions."""
    counters = [
        ([getattr(endpoint, key, None) for key in ("words_offered", "words_sent", "flits_sent", "received_words")],
         [_wire(flit) for flit in getattr(endpoint, "received_flits", ())])
        for endpoint in endpoints
    ]
    return _bench_state(router, links, kernel), counters


def _step_endpoint_twins(benches, cycles):
    step_twins(benches, cycles, _endpoint_state)


def _worm(router, words_in_packet, vc, dest=(2, 1)):
    router.tile.send_packet(
        Packet(src=router.position, dest=dest, words=list(range(1, words_in_packet + 1))), vc=vc
    )


def _table3_setup(name, load):
    """Feed a bench like ``run_packet_scenario``: link streams on outside wires."""

    def setup(router, links):
        components, consumers = [], {}
        stream_driver, stream_consumer = _link_streams(router)
        for index, stream in enumerate(scenario_by_name(name).streams):
            source = word_generator(BitFlipPattern.TYPICAL, seed=stream.stream_id)
            dx, dy = (0, 0) if stream.leaves_at_tile else port_offset(stream.output_port)
            dest = (1 + dx, 1 + dy)
            vc = index % router.num_vcs
            if stream.enters_at_tile:
                driver = TilePacketDriver(f"s{index}", router, source, dest, load, vc, 4)
                components.append(_reference_packet_driver(driver) if isinstance(router, _ReferenceRouter) else driver)
            else:
                dx, dy = port_offset(stream.input_port)
                components.append(stream_driver(
                    f"s{index}", links[stream.input_port][0], source, dest, (1 + dx, 1 + dy), load, vc, 4))
            if not stream.leaves_at_tile and stream.output_port not in consumers:
                consumers[stream.output_port] = stream_consumer(f"d{index}", links[stream.output_port][1])
        return components + list(consumers.values())

    return setup


class TestDirectedSwitchAllocation:
    @pytest.mark.parametrize("name", ["II", "III", "IV"])
    @pytest.mark.parametrize("load", [0.35, 1.0])
    def test_table3_benches_on_outside_wires(self, name, load):
        """The paper's single-router scenarios: stream drivers drive wires the
        datapath samples, consumers read and credit the ones it drives."""
        benches = _endpoint_benches(_table3_setup(name, load))
        _step_endpoint_twins(benches, 300)
        assert benches[0][0].activity.get(ActivityKeys.FLITS_ROUTED) > 0

    def test_two_worms_collide_on_one_output_port(self):
        """A tile worm and a west worm both want East: the switch allocator
        alternates, every alternation is one grant change, and the counters
        the router reports are the (reference) arbiters' own statistics."""

        def setup(router, links):
            for _ in range(4):  # 68 flits back to back: East is busy every cycle
                _worm(router, 16, vc=0)
            stream_driver, stream_consumer = _link_streams(router)
            return [
                stream_driver(  # a 5-flit burst every 20 cycles
                    "west", links[Port.WEST][0], words(5), dest=(2, 1), src=(0, 1), vc=1,
                    words_per_packet=4,
                ),
                stream_consumer("east", links[Port.EAST][1]),
            ]

        benches = _endpoint_benches(setup)
        _step_endpoint_twins(benches, 120)
        reference = benches[1][0]
        east = reference.switch_arbiters[Port.EAST]
        counts = benches[0][0].activity
        assert east.grant_changes >= 8, "the two worms never interleaved"
        assert counts.get(ActivityKeys.ARBITER_GRANT_CHANGES) == sum(
            arbiter.grant_changes for arbiter in reference.switch_arbiters.values()
        )
        assert counts.get(ActivityKeys.ARBITER_DECISIONS) == counts.get(ActivityKeys.FLITS_ROUTED)
        assert counts.get(ActivityKeys.FLITS_ROUTED) == sum(
            arbiter.decisions for arbiter in reference.switch_arbiters.values()
        )
        assert east.decisions <= 120, "one grant per output port per cycle"

    def test_zero_credit_stall_parks_and_resumes_on_the_credit_wake(self):
        """Nobody drains East: after fifo_depth flits the worm stalls with a
        full tile buffer and a backlogged injection queue, the bench parks
        (no self-event), and one returned credit moves exactly one flit."""

        def setup(router, links):
            _worm(router, 16, vc=0)
            return []

        benches = _twin_benches(setup, fifo_depth=4)
        _step_twins(benches, 30)
        (router, links, kernel), (reference, _, _) = benches
        out_vc = router._out_vc[0]
        assert out_vc == reference.vc_states[(Port.TILE, 0)].out_vc
        assert router._credits[Port.EAST * router.num_vcs + out_vc] == 0
        assert len(router._fifos[0]) == 4 and router.tile.injection_backlog
        for router, links, kernel in benches:
            clock = kernel.components[-1]
            assert router.activity.get(ActivityKeys.FLITS_ROUTED) == 4
            assert clock.next_event_cycle(kernel.cycle) is None
            links[Port.EAST][1].return_credit(out_vc, 1)
            assert clock.next_event_cycle(kernel.cycle) == kernel.cycle
        leaped = benches[0][2].scheduler_stats.leaped_cycles
        _step_twins(benches, 30)
        for router, _links, kernel in benches:
            assert router.activity.get(ActivityKeys.FLITS_ROUTED) == 5
            assert router.activity.cycles == kernel.cycle == 60
            assert kernel.components[-1].next_event_cycle(kernel.cycle) is None
        assert benches[0][2].scheduler_stats.leaped_cycles > leaped  # the datapath's kernel leapt the stall

    def test_single_vc_router(self):
        """num_vcs=1: masks one bit wide per port; two back-to-back worms
        share the only VC and arrive whole and in order."""

        def setup(router, links):
            _worm(router, 5, vc=0)
            _worm(router, 3, vc=0)
            stream_driver, stream_consumer = _link_streams(router)
            return [
                stream_driver(
                    "north", links[Port.NORTH][0], words(7), dest=(1, 1), src=(1, 2), vc=0,
                    words_per_packet=2, downstream_buffer_depth=2,
                ),
                stream_consumer("east", links[Port.EAST][1]),
            ]

        benches = _endpoint_benches(setup, num_vcs=1, fifo_depth=2)
        _step_endpoint_twins(benches, 80)
        router, _links, _kernel, _endpoints = benches[0]
        assert len(router._fifos) == 5 and router._free == [1] * 5
        assert router.activity.get(ActivityKeys.PACKETS_ROUTED) >= 2
        assert router.tile.words_received > 0
        assert router.tile.words_from == {(1, 2): router.tile.words_received}

    def test_validation_still_fires_in_the_hot_path(self):
        """Overflow and an out-of-range flit VC are errors, as before; a tile
        VC and the flit fields are checked once, when a packet is queued."""
        router = PacketSwitchedRouter("r", position=(1, 1), num_vcs=2, fifo_depth=1)
        rx, tx = PacketLink("rx", 2), PacketLink("tx", 2)
        router.attach_link(Port.WEST, rx, tx)
        datapath = PacketDatapath("d", [router])
        flit = pack(Flit(FlitType.HEAD, 0, (3, 1), (0, 1), 0, 1, 0))
        rx.drive(flit)
        datapath.evaluate(0), datapath.commit(0)  # fills the depth-1 buffer; no east link: it stays
        rx.drive(flit)  # the upstream ignores its exhausted credit
        datapath.evaluate(1)
        with pytest.raises(CapacityError, match="overflow"):
            datapath.commit(1)
        rx.drive(flit & ~VC_MASK | 5)
        datapath.evaluate(2)
        with pytest.raises(IndexError):
            datapath.commit(2)
        rx.drive(None)
        with pytest.raises(IndexError):
            router.tile.send_packet(Packet(src=(1, 1), dest=(2, 1), words=[1]), vc=2)
        with pytest.raises(ValueError):
            router.tile.send_packet(Packet(src=(1, 1), dest=(2, 1), words=[1 << 16]))
        with pytest.raises(ValueError):
            PacketSwitchedRouter("r", num_vcs=0)

    def test_reset_then_rerun_matches_a_fresh_router(self):
        """reset() mid-worm clears the occupancy mask, the free masks and the
        request scratch: the same worms then run as on a fresh router."""

        def setup(router, links):
            _worm(router, 16, vc=0)
            _worm(router, 16, vc=1, dest=(1, 2))
            return [_link_streams(router)[1]("east", links[Port.EAST][1])]

        (router, links, kernel), _ = _twin_benches(setup)
        kernel.run(30)  # the second worm is out of credits: buffer occupied, output VC held
        assert router._occupied == 1 << 1 and router._out_vc[1] is not None
        kernel.reset()
        for pair in links.values():
            for link in pair:
                link.reset()
        assert router._occupied == 0 and not any(router._requests)
        assert router._free == [0b1111] * 5
        setup(router, links)
        kernel.run(60)
        (fresh, _links, fresh_kernel), _ = _twin_benches(setup)
        fresh_kernel.run(60)
        mine, theirs = _router_state(router), _router_state(fresh)
        assert mine == theirs
        assert mine[0][0][ActivityKeys.PACKETS_ROUTED] == 1  # the other worm is stalled


class TestChangesBetweenCyclesOnly:
    """Wiring and routing feed the compiled datapath: inside a cycle they raise."""

    def test_attach_link_inside_a_cycle_raises(self):
        router = PacketSwitchedRouter("victim", position=(1, 1))
        kernel = SimulationKernel(25e6)
        kernel.add(PacketDatapath("d", [router]))
        router.attach_link(Port.EAST, PacketLink("a"), None)  # between cycles: allowed
        kernel.run(1)
        assert router.tx_link(Port.EAST) is None and router.rx_link(Port.EAST).name == "a"

        class Rewire(ClockedComponent):
            def evaluate(self, cycle):
                pass

            def commit(self, cycle):
                router.attach_link(Port.EAST, PacketLink("b"), None)

        kernel.add(Rewire("rewire"))
        with pytest.raises(SimulationError, match="'victim'.*inside cycle 1 .commit phase"):
            kernel.step()

    def test_refresh_routing_inside_a_cycle_raises(self):
        network = PacketSwitchedNoC(Mesh2D(3, 1))
        degraded = network.degraded_topology()

        class Reroute(ClockedComponent):
            def evaluate(self, cycle):
                network.refresh_routing(degraded)

            def commit(self, cycle):
                pass

        network.refresh_routing(degraded)  # between cycles: fine
        network.kernel.add(Reroute("reroute"))
        with pytest.raises(SimulationError, match="packet_network_datapath.*inside cycle 0 .evaluate phase"):
            network.run(1)


class TestWordsReceivedPerSource:
    def test_network_reads_the_tile_counter(self):
        """words_received_at(position, src) is the per-source counter _deliver
        keeps, equal to re-summing the delivered packets; reset() clears it."""
        network = PacketSwitchedNoC(Mesh2D(3, 1))
        network.attach_channel("a", (0, 0), (2, 0), 80.0, words(1), load=1.0)
        network.attach_channel("b", (1, 0), (2, 0), 40.0, words(2), load=1.0)
        network.run(400)
        tile = network.router_at((2, 0)).tile
        for src in ((0, 0), (1, 0)):
            resummed = sum(len(p.words) for p in tile.received_packets if p.src == src)
            assert network.words_received_at((2, 0), src) == resummed > 0
        assert network.words_received_at((2, 0), (2, 0)) == 0
        assert network.words_received_at((2, 0)) == tile.words_received == sum(tile.words_from.values())
        tile.reset()
        assert tile.words_from == {} and network.words_received_at((2, 0), (0, 0)) == 0
