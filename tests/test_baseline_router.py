"""Tests for the packet-switched baseline router."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import pytest
from conftest import fabric_scenarios, step_twins, twin_benches
from hypothesis import given, settings, strategies as st

from repro.baseline.flit import FLIT_PAYLOAD_BITS, Flit, FlitType, Packet
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketSwitchedRouter
from repro.baseline.testbench import (
    PacketStreamConsumer,
    PacketStreamDriver,
    TilePacketConsumer,
    TilePacketDriver,
)
from repro.common import NEIGHBOR_PORTS, CapacityError, ConfigurationError, Port, toggle_count
from repro.energy.activity import ActivityKeys
from repro.noc import Mesh2D, PacketSwitchedNoC
from repro.sim.engine import SimulationKernel


def words(seed: int = 0):
    rng = random.Random(seed)
    return lambda: rng.getrandbits(16)


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
        assert len(router.buffers) == 5 * 4


class TestSingleRouterTraffic:
    def test_tile_to_east(self, ps_router_with_links, kernel_25mhz):
        router, links = ps_router_with_links
        driver = TilePacketDriver("src", router, words(1), dest=(2, 1), load=1.0, vc=0)
        consumer = PacketStreamConsumer("dst", links[Port.EAST][1])
        kernel_25mhz.add_all([driver, consumer, router])
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
        consumer = TilePacketConsumer("dst", router)
        kernel_25mhz.add_all([driver, consumer, router])
        kernel_25mhz.run(600)
        assert consumer.words_received >= driver.words_sent - 32

    def test_pass_through_west_to_east(self, ps_router_with_links, kernel_25mhz):
        router, links = ps_router_with_links
        driver = PacketStreamDriver(
            "src", links[Port.WEST][0], words(3), dest=(2, 1), src=(0, 1), load=1.0, vc=2
        )
        consumer = PacketStreamConsumer("dst", links[Port.EAST][1])
        kernel_25mhz.add_all([driver, consumer, router])
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
        kernel_25mhz.add_all([tile_driver, west_driver, consumer, router])
        kernel_25mhz.run(1000)
        assert router.activity.get(ActivityKeys.ARBITER_GRANT_CHANGES) > 0
        sent = tile_driver.words_sent + west_driver.words_sent
        assert consumer.words_received >= sent - 3 * router.tile.words_per_packet

    def test_idle_router_moves_no_flits(self, ps_router_with_links, kernel_25mhz):
        router, _ = ps_router_with_links
        kernel_25mhz.add(router)
        kernel_25mhz.run(200)
        assert router.activity.get(ActivityKeys.FLITS_ROUTED) == 0
        assert router.activity.get(ActivityKeys.BUFFER_WRITE_BITS) == 0

    def test_reset(self, ps_router_with_links, kernel_25mhz):
        router, links = ps_router_with_links
        driver = TilePacketDriver("src", router, words(6), dest=(2, 1), load=1.0, vc=0)
        consumer = PacketStreamConsumer("dst", links[Port.EAST][1])
        kernel_25mhz.add_all([driver, consumer, router])
        kernel_25mhz.run(100)
        router.reset()
        assert router.activity.cycles == 0
        assert all(buffer.is_empty() for buffer in router.buffers.values())


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
        backlog_vcs = {flit.vc for flit in router.tile._injection_queue}
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
        kernel.add_all([driver, left, right])
        kernel.run(800)
        assert driver.words_sent > 0
        assert right.tile.words_received >= driver.words_sent - left.tile.words_per_packet


# ---------------------------------------------------------------------------
# The switch-allocation rewrite against the code it replaced
# ---------------------------------------------------------------------------
#
# Reference copies of the router's per-cycle code as it was before the
# rewrites: a two-phase visit (evaluate() samples every incoming wire and
# collects every credit, commit() counts its cycle), Sequence[bool] arbiter,
# per-call free list, the nested 5 x 20 request scan, per-event counter adds,
# buffer-scanning quiescent() and next_event_cycle().  Method bodies are
# verbatim; only the scratch state the new router no longer builds is set up
# in __init__.


class _ReferenceArbiter:
    def __init__(self, num_requesters):
        self.num_requesters = num_requesters
        self._pointer = 0
        self._last_grant = None
        self.decisions = 0
        self.grant_changes = 0

    def grant(self, requests):
        if len(requests) != self.num_requesters:
            raise ValueError(
                f"expected {self.num_requesters} request lines, got {len(requests)}"
            )
        if not any(requests):
            return None
        self.decisions += 1
        # Rotating priority: start searching just after the pointer.
        for offset in range(self.num_requesters):
            candidate = (self._pointer + offset) % self.num_requesters
            if requests[candidate]:
                if self._last_grant is not None and candidate != self._last_grant:
                    self.grant_changes += 1
                self._last_grant = candidate
                self._pointer = (candidate + 1) % self.num_requesters
                return candidate
        return None  # pragma: no cover - unreachable, any(requests) is true

    def reset(self):
        self._pointer = 0
        self._last_grant = None
        self.decisions = 0
        self.grant_changes = 0


@dataclass
class _ReferenceOutputVc:
    vc: int
    credits: int
    holder: Optional[tuple] = None

    @property
    def free(self):
        return self.holder is None


class _ReferenceAllocator:
    def __init__(self, port, num_vcs, downstream_buffer_depth):
        self.port = port
        self.num_vcs = num_vcs
        self._vcs = [
            _ReferenceOutputVc(vc=i, credits=downstream_buffer_depth) for i in range(num_vcs)
        ]
        self._arbiter = _ReferenceArbiter(num_vcs)
        self.allocations = 0

    def try_allocate(self, requester):
        free = [vc.free for vc in self._vcs]
        if not any(free):
            return None
        choice = self._arbiter.grant(free)
        if choice is None:  # pragma: no cover - any(free) guarantees a grant
            return None
        self._vcs[choice].holder = requester
        self.allocations += 1
        return choice

    def has_free_vc(self):
        return any(vc.free for vc in self._vcs)

    def release(self, vc):
        self._check_vc(vc)
        self._vcs[vc].holder = None

    def holder(self, vc):
        self._check_vc(vc)
        return self._vcs[vc].holder

    def credits(self, vc):
        self._check_vc(vc)
        return self._vcs[vc].credits

    def consume_credit(self, vc):
        self._check_vc(vc)
        if self._vcs[vc].credits <= 0:
            raise ValueError(f"no credit left on {self.port.name} VC {vc}")
        self._vcs[vc].credits -= 1

    def add_credits(self, vc, amount):
        self._check_vc(vc)
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        self._vcs[vc].credits += amount

    def reset(self, downstream_buffer_depth):
        for entry in self._vcs:
            entry.credits = downstream_buffer_depth
            entry.holder = None
        self._arbiter.reset()
        self.allocations = 0

    def _check_vc(self, vc):
        if not 0 <= vc < self.num_vcs:
            raise IndexError(f"virtual channel {vc} out of range 0..{self.num_vcs - 1}")


def _reference_take_all_credits(link, into):
    credits = link.credits
    for vc in range(link.num_vcs):
        into[vc] = credits[vc]
        credits[vc] = 0


def _reference_with_vc(flit, vc):
    return Flit(flit.flit_type, flit.payload, flit.dest, flit.src, vc, flit.packet_id, flit.sequence)


class _ReferenceRouter(PacketSwitchedRouter):
    settles_at_sync = False  # counts its cycles itself, cycle by cycle

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        num_ports, num_vcs = self.NUM_PORTS, self.num_vcs
        self.output_allocators = {
            port: _ReferenceAllocator(port, num_vcs, self.fifo_depth) for port in self.ports
        }
        self.switch_arbiters = {
            port: _ReferenceArbiter(num_ports * num_vcs) for port in self.ports
        }
        self._port_allocators = [self.output_allocators[p] for p in self.ports]
        self._port_arbiters = [self.switch_arbiters[p] for p in self.ports]
        self._last_winner = [None] * num_ports
        self._sampled_flits = [None] * num_ports
        self._sampled_credits = [[0] * num_vcs for _ in range(num_ports)]
        self._requests = [False] * (num_ports * num_vcs)
        self._driven = [None] * num_ports
        self._credit_returns = [[] for _ in range(num_ports)]

    def evaluate(self, cycle):
        sampled_flits = self._sampled_flits
        sampled_credits = self._sampled_credits
        for port in NEIGHBOR_PORTS:
            rx = self._rx_by_port[port]
            sampled_flits[port] = rx.forward if rx is not None else None
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
        requests = self._requests
        for out_port in self.ports:
            is_neighbor = out_port is not Port.TILE
            allocator = self._port_allocators[out_port]
            tx_missing = is_neighbor and self._tx_by_port[out_port] is None
            for index, buffer in enumerate(input_buffers):
                state = input_states[index]
                wants = (
                    state.out_port == out_port
                    and state.out_vc is not None
                    and len(buffer._fifo) != 0
                )
                if wants and is_neighbor:
                    wants = not tx_missing and allocator.credits(state.out_vc) > 0
                requests[index] = wants
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
                tx.drive(driven[port])
                driven[port] = None
            rx = self._rx_by_port[port]
            returns = credit_returns[port]
            if returns:
                if rx is not None:
                    for vc in returns:
                        rx.return_credit(vc, 1)
                returns.clear()

        activity.cycles = cycle + 1

    def idle_tick(self, start_cycle, cycles):
        self.activity.cycles = start_cycle + cycles

    def quiescent(self):
        if self.tile._injection_queue:
            return False
        for port in NEIGHBOR_PORTS:
            rx = self._rx_by_port[port]
            if rx is not None and rx.forward is not None:
                return False
            tx = self._tx_by_port[port]
            if tx is not None and (tx.forward is not None or any(tx.credits)):
                return False
        for buffer in self._input_buffers:
            if buffer._fifo:
                return False
        return True

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


class _ReferencePacketNoC(PacketSwitchedNoC):
    def _build_router(self, position):
        return _ReferenceRouter(
            f"ps_{self.topology.router_name(position)}",
            position=position,
            num_vcs=self.num_vcs,
            fifo_depth=self.fifo_depth,
            data_width=self.data_width,
            words_per_packet=self.words_per_packet,
            tech=self.tech,
            route=self.routing.port_for,
        )


def _arbiter_state(arbiter):
    return (arbiter._pointer, arbiter._last_grant, arbiter.decisions, arbiter.grant_changes)


def _flits(flits):
    """Comparable flits: everything but the process-global packet id."""
    return [
        flit and (flit.flit_type, flit.payload, flit.dest, flit.src, flit.vc, flit.sequence)
        for flit in flits
    ]


def _router_state(router):
    """Everything a commit can change, in comparable form (old and new internals)."""
    vcs = range(router.num_vcs)
    return {
        "activity": (router.activity.as_dict(), router.activity.cycles),
        "buffers": {
            key: (_flits(b._fifo), b.total_writes, b.total_reads, b.max_occupancy)
            for key, b in router.buffers.items()
        },
        "vc_states": {key: (s.out_port, s.out_vc) for key, s in router.vc_states.items()},
        "switch": {port: _arbiter_state(a) for port, a in router.switch_arbiters.items()},
        "outputs": {
            port: (
                [(a.credits(vc), a.holder(vc)) for vc in vcs],
                a.has_free_vc(),
                a.allocations,
                _arbiter_state(a._arbiter),
            )
            for port, a in router.output_allocators.items()
        },
        "registers": list(router._output_prev_payload),
        "tile": (
            _flits(router.tile._injection_queue),
            list(router.tile.received_words),
            len(router.tile.received_packets),
        ),
        "parked": router.next_event_cycle(router.activity.cycles),
    }


def _network_state(network):
    return (
        {position: _router_state(router) for position, router in network.routers.items()},
        {
            key: (_flits([link.forward]), list(link.credits), link.dead, link.dropped)
            for key, link in network.links.items()
        },
    )


class TestCommitEqualsReference:
    @given(
        scenario=fabric_scenarios(),
        num_vcs=st.integers(1, 4),
        fifo_depth=st.integers(1, 8),
        words_per_packet=st.sampled_from([1, 3, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_lockstep_on_drawn_fabrics(self, scenario, num_vcs, fifo_depth, words_per_packet):
        """Random channels, loads and one mid-run link fault on a drawn mesh,
        torus or irregular mesh: after every cycle the rewritten router equals
        the reference in counters (key set included), buffers, VC states,
        arbiter pointers and statistics, credits and link wires - and it parks
        exactly when the reference would."""
        sizes = dict(num_vcs=num_vcs, fifo_depth=fifo_depth, words_per_packet=words_per_packet)
        scenario.run_in_lockstep(
            lambda topology, **kw: PacketSwitchedNoC(topology, **sizes, **kw),
            lambda topology, **kw: _ReferencePacketNoC(topology, **sizes, **kw),
            _network_state,
        )

    def test_reference_is_wired_in(self):
        network = _ReferencePacketNoC(Mesh2D(2, 1))
        router = network.router_at((0, 0))
        assert type(router) is _ReferenceRouter
        assert isinstance(router._port_arbiters[0], _ReferenceArbiter)
        assert type(PacketSwitchedNoC(Mesh2D(2, 1)).router_at((0, 0))) is PacketSwitchedRouter


def _twin_benches(setup, **router_kwargs):
    """A new and a reference single-router bench, populated alike by *setup*."""
    return twin_benches(
        (PacketSwitchedRouter, _ReferenceRouter),
        lambda name, router: PacketLink(name, router.num_vcs),
        setup,
        **router_kwargs,
    )


def _bench_state(router, links, _kernel):
    wires = {
        port: [(_flits([link.forward]), list(link.credits)) for link in pair]
        for port, pair in links.items()
    }
    return _router_state(router), wires


def _step_twins(benches, cycles):
    step_twins(benches, cycles, _bench_state)


def _worm(router, words_in_packet, vc, dest=(2, 1)):
    router.tile.send_packet(
        Packet(src=router.position, dest=dest, words=list(range(1, words_in_packet + 1))), vc=vc
    )


class TestDirectedSwitchAllocation:
    def test_two_worms_collide_on_one_output_port(self):
        """A tile worm and a west worm both want East: the switch allocator
        alternates, every alternation is one grant change, and the counters
        the router reports are the arbiters' own statistics."""

        def setup(router, links):
            for _ in range(4):  # 68 flits back to back: East is busy every cycle
                _worm(router, 16, vc=0)
            return [
                PacketStreamDriver(  # a 5-flit burst every 20 cycles
                    "west", links[Port.WEST][0], words(5), dest=(2, 1), src=(0, 1), vc=1,
                    words_per_packet=4,
                ),
                PacketStreamConsumer("east", links[Port.EAST][1]),
            ]

        benches = _twin_benches(setup)
        _step_twins(benches, 120)
        router = benches[0][0]
        east = router.switch_arbiters[Port.EAST]
        counts = router.activity
        assert east.grant_changes >= 8, "the two worms never interleaved"
        assert counts.get(ActivityKeys.ARBITER_GRANT_CHANGES) == sum(
            arbiter.grant_changes for arbiter in router.switch_arbiters.values()
        )
        assert counts.get(ActivityKeys.ARBITER_DECISIONS) == counts.get(ActivityKeys.FLITS_ROUTED)
        assert counts.get(ActivityKeys.FLITS_ROUTED) == sum(
            arbiter.decisions for arbiter in router.switch_arbiters.values()
        )
        assert east.decisions <= 120, "one grant per output port per cycle"

    def test_zero_credit_stall_parks_and_resumes_on_the_credit_wake(self):
        """Nobody drains East: after fifo_depth flits the worm stalls with a
        full tile buffer and a backlogged injection queue, the router parks
        (no self-event), and one returned credit moves exactly one flit."""

        def setup(router, links):
            _worm(router, 16, vc=0)
            return []

        benches = _twin_benches(setup, fifo_depth=4)
        _step_twins(benches, 30)
        for router, links, kernel in benches:
            assert router.activity.get(ActivityKeys.FLITS_ROUTED) == 4
            assert router.output_allocators[Port.EAST].credits(router.vc_states[(Port.TILE, 0)].out_vc) == 0
            assert router.buffers[(Port.TILE, 0)].is_full() and router.tile.injection_backlog
            assert router.next_event_cycle(kernel.cycle) is None
            assert kernel.sleeping_components == 1
            links[Port.EAST][1].return_credit(router.vc_states[(Port.TILE, 0)].out_vc, 1)
            assert kernel.sleeping_components == 0
        _step_twins(benches, 30)
        for router, _links, kernel in benches:
            assert router.activity.get(ActivityKeys.FLITS_ROUTED) == 5
            assert router.activity.cycles == kernel.cycle == 60
            assert kernel.sleeping_components == 1

    def test_single_vc_router(self):
        """num_vcs=1: masks one bit wide per port; two back-to-back worms
        share the only VC and arrive whole and in order."""

        def setup(router, links):
            _worm(router, 5, vc=0)
            _worm(router, 3, vc=0)
            return [
                PacketStreamDriver(
                    "north", links[Port.NORTH][0], words(7), dest=(1, 1), src=(1, 2), vc=0,
                    words_per_packet=2, downstream_buffer_depth=2,
                ),
                PacketStreamConsumer("east", links[Port.EAST][1]),
            ]

        benches = _twin_benches(setup, num_vcs=1, fifo_depth=2)
        _step_twins(benches, 80)
        router, links, _kernel = benches[0]
        assert router.switch_arbiters[Port.EAST].num_requesters == 5
        assert router.activity.get(ActivityKeys.PACKETS_ROUTED) >= 2
        assert router.tile.words_received > 0
        assert router.tile.words_from == {(1, 2): router.tile.words_received}

    def test_validation_still_fires_in_the_hot_path(self):
        """Overflow, an out-of-range flit VC and a spent credit are errors, as before."""
        router = PacketSwitchedRouter("r", position=(1, 1), num_vcs=2, fifo_depth=1)
        rx, tx = PacketLink("rx", 2), PacketLink("tx", 2)
        router.attach_link(Port.WEST, rx, tx)
        flit = Flit(FlitType.HEAD, 0, (3, 1), (0, 1), 0, 1, 0)
        rx.drive(flit)
        router.evaluate(0), router.commit(0)  # fills the depth-1 buffer; no tx link: it stays
        rx.drive(flit)  # the upstream ignores its exhausted credit
        router.evaluate(1)
        with pytest.raises(CapacityError, match="overflow"):
            router.commit(1)
        rx.drive(flit.with_vc(5))
        router.evaluate(2)
        with pytest.raises(IndexError):
            router.commit(2)
        rx.drive(None)
        router.tile.send_packet(Packet(src=(1, 1), dest=(2, 1), words=[1]), vc=2)
        router.evaluate(3)
        with pytest.raises(IndexError):
            router.commit(3)
        allocator = router.output_allocators[Port.EAST]
        allocator.consume_credit(0)
        with pytest.raises(ValueError, match="no credit left"):
            allocator.consume_credit(0)

    def test_reset_then_rerun_matches_a_fresh_router(self):
        """reset() mid-worm clears the occupancy mask, the free masks and the
        request scratch: the same worms then run as on a fresh router."""

        def setup(router, links):
            _worm(router, 16, vc=0)
            _worm(router, 16, vc=1, dest=(1, 2))
            return [PacketStreamConsumer("east", links[Port.EAST][1])]

        (router, links, kernel), _ = _twin_benches(setup)
        kernel.run(30)  # the second worm is out of credits: buffer occupied, output VC held
        assert router._occupied[0] == 1 << 1 and router.vc_states[(Port.TILE, 1)].allocated
        kernel.reset()
        for pair in links.values():
            for link in pair:
                link.reset()
        assert router._occupied == [0]
        assert all(a.has_free_vc() and a._free == 0b1111 for a in router.output_allocators.values())
        setup(router, links)
        kernel.run(60)
        (fresh, _links, fresh_kernel), _ = _twin_benches(setup)
        fresh_kernel.run(60)
        mine, theirs = _router_state(router), _router_state(fresh)
        assert mine == theirs
        assert mine["activity"][0][ActivityKeys.PACKETS_ROUTED] == 1  # the other worm is stalled


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
