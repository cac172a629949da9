"""What lets the packet and GT datapaths run a cycle in one pass.

Neither datapath books a per-cycle constant in ``commit``, and the event
schedule asks each one question.  That rests on three things, each tested
here where it is defined rather than through a fabric: a reader sees a wire
as it stood when the cycle began, whichever end registered first (the
datapaths sample the wires driven from outside in ``evaluate``), constant
accounting that the kernel settles at ``sync()`` / ``remove()``, and a
``next_event_cycle`` that covers every quiescent state.
"""

from __future__ import annotations

import pytest
from conftest import clock_of, fabric_scenarios, twin_benches
from hypothesis import given, settings, strategies as st
from test_baseline_router import _ReferenceRouter
from test_gt_network import _ReferenceSlotTableRouter

from repro.apps.traffic import BitFlipPattern, word_generator
from repro.baseline.flit import Flit, FlitType, pack
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.common import Port
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter
from repro.core.testbench import LaneStreamConsumer, TileStreamDriver
from repro.energy.activity import ActivityKeys
from repro.noc import build_network
from repro.noc.gt_network import GtLinkStreamDriver, SlotTableRouter, TdmaDatapath, TdmaLink
from repro.sim.engine import DEFAULT_SCHEDULE, ClockedComponent, SimulationKernel

SCHEDULES = ("strict", DEFAULT_SCHEDULE)


class _Script(ClockedComponent):
    """Writes wires at the clock edge: ``actions[cycle](cycle)`` in its commit."""

    def __init__(self, name, actions):
        super().__init__(name)
        self.actions = actions

    def evaluate(self, cycle):
        pass

    def commit(self, cycle):
        if cycle in self.actions:
            self.actions[cycle](cycle)


#: The one-pass readers and their two-phase references: all must read a wire alike.
GT_READERS = (SlotTableRouter, _ReferenceSlotTableRouter)
PACKET_READERS = (PacketSwitchedRouter, _ReferenceRouter)
#: Registration orders of one writer (index 0) around the reader (``None``).
AROUND = ((0, None), (None, 0))


def _histories(readers, bench, observe, orders=AROUND, cycles=6):
    """Per-cycle observations of every reader class x schedule x registration
    order (``bench(reader_class)`` returns the reader and its writer scripts)."""
    histories = {}
    for reader_class in readers:
        for schedule in SCHEDULES:
            for order in orders:
                reader, scripts = bench(reader_class)
                clock = clock_of(reader)
                kernel = SimulationKernel(25e6, schedule=schedule)
                kernel.add_all([clock if index is None else scripts[index] for index in order])
                history = []
                for _ in range(cycles):
                    kernel.step()
                    history.append(observe(reader))
                histories[reader_class.__name__, schedule, order] = history
    return histories


def _assert_all_equal(histories, expected):
    for key, history in histories.items():
        assert history == expected, f"{key} saw {history}"


class TestWiresRememberOneClockEdge:
    """One link driven twice around a reader, writer registered before and after
    it: the datapaths read it as the two-phase references do, as it stood when
    the cycle began (the wires keep no memory; the datapath samples them first)."""

    def test_tdma_word(self):
        def bench(reader_class):
            router = reader_class("dut", slots=1)
            wire = TdmaLink("west")
            router.attach_link(Port.WEST, wire, None)
            router.program(Port.TILE, 0, Port.WEST, "a")
            words = {0: 0x11, 1: 0x22, 2: None}
            return router, [_Script("w", {cycle: lambda c: wire.drive(words[c]) for cycle in words})]

        histories = _histories(GT_READERS, bench, lambda router: list(router.tile.received.get("a", ())))
        _assert_all_equal(histories, [[], [0x11], [0x11, 0x22], [0x11, 0x22], [0x11, 0x22], [0x11, 0x22]])

    def test_flit(self):
        flits = [
            pack(Flit(FlitType.HEAD, 0x1, (1, 1), (0, 1), 0, 1, 0)),
            pack(Flit(FlitType.TAIL, 0xABCD, (1, 1), (0, 1), 0, 1, 1)),
        ]

        def bench(reader_class):
            router = reader_class("dut", position=(1, 1))
            wire = PacketLink("west", router.num_vcs)
            router.attach_link(Port.WEST, wire, None)
            script = _Script("w", {0: lambda c: wire.drive(flits[0]), 1: lambda c: wire.drive(flits[1]),
                                   2: lambda c: wire.drive(None)})
            return router, [script]

        def observe(router):
            wire = router.rx_link(Port.WEST)
            writes = router.activity.get(ActivityKeys.BUFFER_WRITE_BITS) // Flit.storage_bits
            return writes, list(router.tile.received_words), list(wire.credits)

        histories = _histories(PACKET_READERS, bench, observe)
        # Driven in cycles 0 and 1, so in - and through to the tile, the credit
        # back - in cycles 1 and 2; nobody collects the credits: they add up.
        busy = [(0, [], [0, 0, 0, 0]), (1, [], [1, 0, 0, 0]), (2, [0xABCD], [2, 0, 0, 0])]
        _assert_all_equal(histories, busy + busy[-1:] * 3)

    def test_credit(self):
        def bench(reader_class):
            router = reader_class("dut", position=(1, 1))
            wire = PacketLink("east", router.num_vcs)
            router.attach_link(Port.EAST, None, wire)
            script = _Script("w", {0: lambda c: wire.return_credit(2), 1: lambda c: wire.return_credit(2),
                                   3: lambda c: (wire.return_credit(1), wire.return_credit(2))})
            return router, [script]

        def observe(router):
            if isinstance(router, PacketSwitchedRouter):
                credits = [router._credits[Port.EAST * router.num_vcs + vc] for vc in (1, 2)]
            else:
                credits = [router.output_allocators[Port.EAST].credits(vc) for vc in (1, 2)]
            return credits, list(router.tx_link(Port.EAST).credits)

        histories = _histories(PACKET_READERS, bench, observe)
        # A credit returned in cycle c sits on the wire after c and is the sender's after c + 1.
        _assert_all_equal(histories, [
            ([8, 8], [0, 0, 1, 0]), ([8, 9], [0, 0, 1, 0]), ([8, 10], [0, 0, 0, 0]),
            ([8, 10], [0, 1, 1, 0]), ([9, 11], [0, 0, 0, 0]), ([9, 11], [0, 0, 0, 0]),
        ])

    def test_a_write_between_cycles_is_seen_at_once_and_reset_forgets(self):
        """A flit and a credit written between cycles are there for the next
        cycle's sample; reset() clears both (the drive stamp keeps counting)."""
        router = PacketSwitchedRouter("dut", position=(1, 1))
        rx, tx = PacketLink("rx"), PacketLink("tx")
        router.attach_link(Port.WEST, rx, tx)
        datapath = PacketDatapath("d", [router])
        rx.drive(pack(Flit(FlitType.HEAD, 0, (2, 1), (0, 1), 2, 1, 0)))
        tx.return_credit(1)
        datapath.evaluate(0)
        datapath.commit(0)
        assert list(router._fifos[Port.WEST * 4 + 2]) == [rx.forward]
        assert router._credits[Port.WEST * 4 + 1] == 9 and not any(tx.credits)
        rx.return_credit(3)
        rx.reset()
        assert (rx.forward, rx.drives) == (None, 1)
        assert not any(rx.credits)


class TestConstantAccountingSettlesAtSync:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("load", [0.0, 1.0])
    def test_bare_kernel_gt_bench_books_idle_bits_times_cycles(self, schedule, load):
        """commit() books no constant: after run(), step() and remove() - the
        router asleep (no load) or busy every cycle - the clocked bits are
        exactly the idle bits of every elapsed cycle."""
        router = SlotTableRouter("dut", slots=4)
        wire = TdmaLink("west")
        router.attach_link(Port.WEST, wire, TdmaLink("unused"))
        router.program(Port.TILE, 1, Port.WEST, "a")
        driver = GtLinkStreamDriver(
            "src", wire, 4, frozenset({1}), word_generator(BitFlipPattern.TYPICAL, seed=1), load
        )
        kernel = SimulationKernel(25e6, schedule=schedule)
        datapath = TdmaDatapath("datapath", [router])
        datapath.adopt(driver)
        # An idle bystander keeps the kernel clocking once the datapath leaves it.
        kernel.add_all([datapath, TdmaDatapath("bystander", [SlotTableRouter("idle", slots=4)])])

        def booked():
            return router.activity.get(ActivityKeys.REG_CLOCKED_BITS), router.activity.cycles

        assert ActivityKeys.REG_CLOCKED_BITS not in router.activity.as_dict()
        kernel.run(37)
        assert booked() == (router._idle_clock_bits * 37, 37)
        datapath.evaluate(37), datapath.commit(37)  # a cycle on its own books nothing constant
        assert booked() == (router._idle_clock_bits * 37, 37)
        kernel.step()
        assert booked() == (router._idle_clock_bits * 38, 38)
        # Removed between two runs, before cycle 44.
        kernel.run(6)
        kernel.remove(datapath)
        kernel.run(4)
        assert kernel.cycle == 48 and datapath not in kernel.components
        assert booked() == (router._idle_clock_bits * 44, 44)
        assert (router.tile.words_received("a") > 0) == (load > 0)

    def test_reset_starts_the_settled_span_over(self):
        router = PacketSwitchedRouter("dut")
        kernel = SimulationKernel(25e6)
        kernel.add(PacketDatapath("datapath", [router]))
        kernel.run(20)
        kernel.reset()
        kernel.run(7)
        assert router.activity.cycles == kernel.cycle == 7


def _quiescent(clock):
    """The sleep test of the retired per-cycle schedule: another cycle with
    unchanged inputs would change nothing."""
    if isinstance(clock, TdmaDatapath):
        return not (clock._held or any(wire.forward is not None for wire in clock._outside_rx)
                    or any(router.tile._queued for router in clock.routers))
    if isinstance(clock, PacketDatapath):
        return not any(
            router.tile._injection_queue or router._occupied or router._driven
            or any(wire is not None and (wire.forward is not None or any(wire.credits))
                   for wire in (*router._rx_by_port, *router._tx_by_port))
            for router in clock.routers
        )
    converter = clock.converter
    if clock._latched or not all(unit.quiescent for unit in (*converter.serializers, *converter.deserializers)):
        return False
    # A fixed point of the live inputs: a drained converter drives idle
    # phits and no acknowledge pulse, the neighbour ports what their wires hold.
    lanes, crossbar = clock.lanes_per_port, clock.crossbar

    def wire(idx, link_of, values):
        port, lane = divmod(idx, lanes)
        link = link_of(port) if port else None
        return getattr(link, values)[lane] if link is not None else 0

    return all(
        crossbar.committed_data[out_idx] == wire(src_idx, clock.rx_link, "forward")
        for out_idx, src_idx in crossbar.active_routes()
    ) and all(
        crossbar.committed_acks[in_idx] == any(wire(out_idx, clock.tx_link, "ack") for out_idx in outs)
        for in_idx, outs in crossbar.ack_fanins()
    )


class TestOneSchedulingQuestion:
    """Under the event schedule a timed component is asked next_event_cycle()
    only, so the answer must cover every quiescent state."""

    @given(
        scenario=fabric_scenarios(max_cycles=120),
        kind=st.sampled_from(["circuit", "circuit-gated", "packet", "gt"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_quiescent_routers_have_no_next_event_on_drawn_fabrics(self, scenario, kind):
        name, _, gated = kind.partition("-")
        extra = {"clock_gating": True} if gated else {}
        network = scenario.build(lambda topology, **kw: build_network(name, topology, **extra, **kw))
        quiescent = 0
        clocks = [network.datapath] if name in ("gt", "packet") else network.routers.values()
        for _cycle in scenario.steps([network]):
            now = network.kernel.cycle
            for clock in clocks:
                if _quiescent(clock):
                    quiescent += 1
                    if name == "circuit":  # the lane datapath's question about one router
                        assert network.datapath.frozen(clock), f"{clock.name} at cycle {now}"
                        continue
                    # A datapath's own answer is "never": it waits for its earliest driver only.
                    assert clock.next_event_cycle(now) == clock.drivers.next_due, f"{clock.name} at cycle {now}"
        assert quiescent > 0

    def test_gated_circuit_router_sleeps_between_words(self):
        """A clock-gated router used to answer "now" where it is quiescent:
        asked that one question, it would never have slept."""
        router = CircuitSwitchedRouter("dut", clock_gating=True)
        tx = LaneLink("tx_e")
        router.attach_link(Port.EAST, LaneLink("rx_e"), tx)
        router.configure(Port.EAST, 0, Port.TILE, 0)
        source = word_generator(BitFlipPattern.TYPICAL, width=router.data_width, seed=3)
        kernel = SimulationKernel(25e6)
        datapath = clock_of(
            router, TileStreamDriver("src", router, 0, source, load=0.1), LaneStreamConsumer("dst", tx, 0)
        )
        kernel.add(datapath)
        slept = 0
        for _ in range(400):
            kernel.step()
            if _quiescent(router):
                assert datapath.frozen(router)
                slept += datapath.next_event_cycle(kernel.cycle) != kernel.cycle
        assert slept > 100

    @pytest.mark.parametrize("classes,make_link", [
        ((SlotTableRouter,), lambda name, router: TdmaLink(name, router.data_width)),
        ((PacketSwitchedRouter,), lambda name, router: PacketLink(name, router.num_vcs)),
    ])
    def test_single_router_benches_park_when_quiescent(self, classes, make_link):
        def setup(router, links):
            if isinstance(router, SlotTableRouter):
                router.program(Port.EAST, 0, Port.TILE, "a")
                for word in (1, 2, 3):
                    router.tile.send("a", word)
            else:
                router.tile.send_words((2, 1), [1, 2, 3])

        ((router, _links, kernel),) = twin_benches(classes, make_link, setup)
        kernel.run(60)
        clock = kernel.components[-1]
        assert _quiescent(clock) and clock.next_event_cycle(kernel.cycle) is None
        assert kernel.scheduler_stats.leaped_cycles > 0
