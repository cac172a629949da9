"""Tests for the simulated Æthereal-style TDMA network (repro.noc.gt_network)."""

from __future__ import annotations

from bisect import bisect_left

import pytest
from conftest import fabric_scenarios, step_twins, twin_benches
from hypothesis import given, settings, strategies as st
from pacing import CyclePacer

from repro.apps import drm, hiperlan2, umts
from repro.apps.traffic import BitFlipPattern, scenario_by_name, word_generator
from repro.common import NEIGHBOR_PORTS, ConfigurationError, Port, SimulationError, toggle_count
from repro.energy.activity import ActivityKeys
from repro.experiments.harness import run_app_traffic, run_gt_scenario, run_scenario
from repro.noc import Mesh2D, SlotTableAllocator, TimeDivisionNoC, Torus2D, build_network
from repro.noc.gt_network import (GtLinkStreamConsumer, GtLinkStreamDriver, GtStreamDriver, SlotTableRouter,
                                  TdmaDatapath, TdmaLink, TdmaTileInterface)
from repro.sim.engine import DEFAULT_SCHEDULE, ClockedComponent, SimulationKernel

FREQUENCY_HZ = 100e6


class TestFactoryRegistration:
    def test_gt_aliases_build_the_tdma_network(self):
        for kind in ("gt", "aethereal", "tdma", "time_division"):
            network = build_network(kind, Mesh2D(2, 2), frequency_hz=FREQUENCY_HZ)
            assert isinstance(network, TimeDivisionNoC)
            assert network.kind == "time_division_gt"

    def test_admission_controller_matches_the_network_geometry(self):
        network = build_network("gt", Mesh2D(2, 2), slots=8)
        assert isinstance(network.admission, SlotTableAllocator)
        assert network.admission.slots_per_link == 8


class TestSlotTableRouter:
    def test_program_rejects_double_booking(self):
        router = SlotTableRouter("r", slots=4)
        router.program(Port.EAST, 1, Port.TILE, "a")
        with pytest.raises(ConfigurationError):
            router.program(Port.EAST, 1, Port.WEST, "b")
        router.clear(Port.EAST, 1)
        router.program(Port.EAST, 1, Port.WEST, "b")
        assert router.table_entry(Port.EAST, 1) == (Port.WEST, "b")

    def test_slot_bounds_checked(self):
        router = SlotTableRouter("r", slots=4)
        with pytest.raises(ConfigurationError):
            router.program(Port.EAST, 4, Port.TILE, "a")

    def test_link_geometry_checked(self):
        router = SlotTableRouter("r", data_width=16)
        with pytest.raises(ConfigurationError):
            router.attach_link(Port.EAST, TdmaLink("rx", data_width=8), None)

    def test_area_is_the_published_constant(self):
        router = SlotTableRouter("r")
        assert router.total_area_mm2 == pytest.approx(0.175)
        assert router.max_frequency_mhz() == pytest.approx(500.0)


class TestEndToEndDelivery:
    def test_single_stream_latency_is_one_cycle_per_hop(self):
        """A word pulled from the source tile at slot s arrives hop_count - 1
        cycles later: one registered stage per router."""
        mesh = Mesh2D(3, 1)
        network = build_network("gt", mesh, frequency_hz=FREQUENCY_HZ, slots=4)
        allocation = network.admission.allocate("s", (0, 0), (2, 0), 100.0, FREQUENCY_HZ)
        network.apply_allocation(allocation)
        circuit = allocation.circuits[0]
        assert circuit.delivery_slot == (circuit.source_slot + circuit.hop_count - 1) % 4
        network.add_stream("s", allocation, word_generator(BitFlipPattern.TYPICAL, seed=3))
        network.run(200)
        endpoints = network.streams["s"]
        assert endpoints.words_received > 0
        assert endpoints.words_sent - endpoints.words_received <= 8 + circuit.hop_count

    def test_words_arrive_in_order_and_uncorrupted(self):
        mesh = Mesh2D(2, 2)
        network = build_network("gt", mesh, frequency_hz=FREQUENCY_HZ)
        sent_words = []
        generator = word_generator(BitFlipPattern.TYPICAL, seed=7)

        def recording_source():
            word = generator()
            sent_words.append(word)
            return word

        network.attach_channel("s", (0, 0), (1, 1), 200.0, recording_source, load=1.0)
        network.run(400)
        received = network.routers[(1, 1)].tile.received["s"]
        assert len(received) > 0
        assert received == sent_words[: len(received)]

    def test_no_two_programmed_entries_share_a_link_slot(self):
        """The admission guarantee holds in the live fabric: across all
        programmed slot tables, every (router, out_port, slot) is unique per
        connection and every owned link slot appears exactly once."""
        network = build_network("gt", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=1)
        pairs = [((0, 0), (3, 3)), ((0, 3), (3, 0)), ((1, 0), (1, 3)), ((2, 3), (2, 0))]
        for index, (src, dst) in enumerate(pairs):
            network.attach_channel(f"c{index}", src, dst, 250.0, generator, load=0.5)
        owners: dict = {}
        for allocation in network.admission.allocations:
            for circuit in allocation.circuits:
                for (a, b), hop in zip(
                    zip(circuit.route, circuit.route[1:]), circuit.hops
                ):
                    key = (a, b, hop.slot)
                    assert key not in owners, f"{key} owned by {owners[key]}"
                    owners[key] = circuit.channel_name
        # And the router tables agree with the admission records.
        for allocation in network.admission.allocations:
            for circuit in allocation.circuits:
                for hop in circuit.hops:
                    entry = network.router_at(hop.position).table_entry(hop.out_port, hop.slot)
                    assert entry == (hop.in_port, circuit.channel_name)

    def test_teardown_frees_table_entries(self):
        network = build_network("gt", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ)
        allocation = network.admission.allocate("s", (0, 0), (2, 2), 100.0, FREQUENCY_HZ)
        network.apply_allocation(allocation)
        assert network.occupied_slots() == allocation.circuits[0].hop_count
        network.remove_allocation(allocation)
        network.admission.release("s")
        assert network.occupied_slots() == 0


class TestApplicationTraffic:
    """Acceptance: UMTS + HiperLAN/2 app traffic end to end on mesh and torus."""

    @pytest.mark.parametrize("app", [hiperlan2, umts], ids=["hiperlan2", "umts"])
    @pytest.mark.parametrize(
        "topology", [Mesh2D(4, 4), Torus2D(4, 4)], ids=["mesh", "torus"]
    )
    def test_gt_carries_the_wireless_applications(self, app, topology):
        result = run_app_traffic(
            "gt", topology, app.build_process_graph(), cycles=1500, load=0.5
        )
        assert result.kind == "time_division_gt"
        assert result.total_received > 0
        assert result.delivery_ok()

    def test_drm_runs_on_the_gt_network(self):
        # DRM's communication load is a factor 1000 below HiperLAN/2
        # (Section 3), so its SoC clocks the NoC three orders of magnitude
        # slower; streams are bandwidth-paced, hence the slow clock is what
        # makes the kbit/s channels visible within a short simulation.
        result = run_app_traffic(
            "gt", Mesh2D(4, 4), drm.build_process_graph(),
            frequency_hz=100e3, cycles=1500, load=0.5,
        )
        assert result.total_received > 0
        assert result.delivery_ok()

    def test_all_three_kinds_carry_identical_traffic(self):
        results = {
            kind: run_app_traffic(
                kind, Mesh2D(4, 4), hiperlan2.build_process_graph(), cycles=1200, load=0.5
            )
            for kind in ("circuit", "packet", "gt")
        }
        delivered = {kind: r.total_received for kind, r in results.items()}
        assert all(count > 0 for count in delivered.values())
        # Streams are paced at the channel bandwidth on every kind, so the
        # delivered word counts agree within the in-flight/packetisation slack.
        low, high = min(delivered.values()), max(delivered.values())
        assert high - low <= 0.2 * high
        # The paper's energy ordering: circuit < TDMA slot table < packet.
        assert (
            results["circuit"].energy_pj_per_bit
            < results["gt"].energy_pj_per_bit
            < results["packet"].energy_pj_per_bit
        )


class TestSingleRouterScenarios:
    def test_table3_scenarios_deliver_on_the_gt_router(self):
        for name in ("I", "II", "III", "IV"):
            run = run_gt_scenario(name, cycles=800)
            assert run.delivery_ok(tolerance_words=16), name

    def test_run_scenario_dispatches_gt_aliases(self):
        run = run_scenario("aethereal", "I", cycles=400)
        assert run.router_kind == "time_division_gt"
        assert run.power.total_uw > 0


class TestAttachChannelParity:
    def test_multi_lane_channel_stripes_across_all_circuits(self):
        """A channel wider than one lane gets one driver per allocated lane
        circuit, so the circuit kind carries the full requested bandwidth."""
        network = build_network("circuit", Mesh2D(3, 1), frequency_hz=25e6)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=4)
        # 200 Mbit/s at 80 Mbit/s per lane -> 3 lane circuits.
        endpoints = network.attach_channel("wide", (0, 0), (2, 0), 200.0, generator, load=1.0)
        assert len(endpoints) == 3
        assert set(network.streams) == {"wide#0", "wide#1", "wide#2"}
        network.run(1000)
        for endpoint in endpoints:
            assert endpoint.words_received > 0
        total = sum(e.words_received for e in endpoints)
        # Three striped lanes at full load deliver ~3 words per 5 cycles.
        assert total > 1.5 * 1000 / 5

    def test_verify_scenarios_accepts_registry_aliases(self):
        from repro.experiments.scenarios import verify_scenarios

        results = verify_scenarios(cycles=400, kinds=("cs", "aethereal"))
        assert all(all(per.values()) for per in results.values())


# ---------------------------------------------------------------------------
# The compiled per-slot datapath against the code it replaced
# ---------------------------------------------------------------------------
#
# A self-contained two-phase reference: each slot-table router is its own
# kernel component again, as before the rewrites (evaluate() samples every
# incoming wire, commit() walks all five output ports, drives every attached
# wire and books the constant clocked bits every cycle), with the backlog test
# and the _datapath_idle() scan of the old router.  Method bodies are
# verbatim; the tables, wiring and registers are SlotTableRouter's, with no
# datapath.  The tile stream drivers are kernel components again too
# (_ReferenceGtStreamDriver).  Every reference kernel runs ``strict``: the
# references never leap, and their next_event_cycle() is only compared with
# the datapath's.


class _ReferenceTile(TdmaTileInterface):
    def _pop_tx(self, connection):
        queue = self._tx.get(connection)
        if queue:
            self._queued -= 1
            return queue.popleft()
        return None

    def _has_backlog(self):
        return any(self._tx.values())

    def _deliver(self, connection, word):
        self.received.setdefault(connection, []).append(word)


class _ReferenceSlotTableRouter(SlotTableRouter, ClockedComponent):
    bench_schedule = "strict"

    def __init__(self, name, *args, **kwargs):
        SlotTableRouter.__init__(self, name, *args, **kwargs)
        ClockedComponent.__init__(self, name)
        self.tile = _ReferenceTile(self)
        self._sampled = [None] * self.NUM_PORTS

    def evaluate(self, cycle):
        sampled = self._sampled
        for port in NEIGHBOR_PORTS:
            rx = self._rx_by_port[port]
            sampled[port] = rx.forward if rx is not None else None

    def commit(self, cycle):
        activity = self.activity
        slot = cycle % self.slots
        data_width = self.data_width

        for out_port in range(self.NUM_PORTS):
            entry = self._table[out_port][slot]
            word = None
            connection = ""
            if entry is not None:
                in_port, connection = entry
                if in_port == Port.TILE:
                    word = self.tile._pop_tx(connection)
                    if word is not None:
                        activity.add(ActivityKeys.WORDS_INJECTED, 1)
                else:
                    word = self._sampled[in_port]

            payload = word if word is not None else 0
            previous = self._out_prev[out_port]
            if payload != previous:
                toggles = toggle_count(previous, payload, data_width)
                activity.add(ActivityKeys.REG_TOGGLE_BITS, toggles)
                if out_port != Port.TILE:
                    activity.add(ActivityKeys.LINK_TOGGLE_BITS, toggles)
                self._out_prev[out_port] = payload
            self._out_reg[out_port] = word

            if out_port == Port.TILE:
                if word is not None:
                    self.tile._deliver(connection, word)
                    activity.add(ActivityKeys.WORDS_DELIVERED, 1)
            else:
                tx = self._tx_by_port[out_port]
                if tx is not None:
                    tx.drive(word)

        activity.add(ActivityKeys.REG_CLOCKED_BITS, self._idle_clock_bits)
        activity.cycles = cycle + 1

    def quiescent(self):
        return not self.tile._has_backlog() and self._datapath_idle()

    def _datapath_idle(self):
        for port in NEIGHBOR_PORTS:
            rx = self._rx_by_port[port]
            if rx is not None and rx.forward is not None:
                return False
            tx = self._tx_by_port[port]
            if tx is not None and tx.forward is not None:
                return False
        for word in self._out_reg:
            if word is not None:
                return False
        return True

    def next_event_cycle(self, cycle):
        if not self._datapath_idle():
            return cycle
        if not self.tile._has_backlog():
            return None
        table = self._table
        slots = self.slots
        backlog = self.tile.backlog
        for offset in range(slots):
            slot = (cycle + offset) % slots
            for out_port in range(self.NUM_PORTS):
                entry = table[out_port][slot]
                if entry is not None and entry[0] == Port.TILE and backlog(entry[1]):
                    return cycle + offset
        return None

    def reset(self):
        self.tile.reset()
        self.activity.reset()
        for port in range(self.NUM_PORTS):
            self._out_reg[port] = None
            self._out_prev[port] = 0
            self._sampled[port] = None
        for tx in self._tx_by_port:
            if tx is not None:
                tx.drive(None)


class _ReferenceGtStreamDriver(ClockedComponent):
    """The tile stream driver as a kernel component, verbatim: paced in
    evaluate() one cycle at a time."""

    def __init__(self, name, router, connection, word_source, load=1.0, cycles_per_word=1, queue_limit=8):
        super().__init__(name)
        self.router = router
        self.connection = connection
        self.word_source = word_source
        self.queue_limit = queue_limit
        self._pacer = CyclePacer(load, cycles_per_word)
        self.words_offered = 0
        self.words_sent = 0
        self.words_dropped = 0

    def evaluate(self, cycle):
        if not self._pacer.should_emit():
            return
        self.words_offered += 1
        if self.router.tile.backlog(self.connection) < self.queue_limit:
            self.router.tile.send(self.connection, self.word_source())
            self.words_sent += 1
        else:
            self.words_dropped += 1

    def commit(self, cycle):  # the router itself owns the clocked state
        pass

    def next_event_cycle(self, cycle):
        return self._pacer.next_emit_cycle(cycle)

    def reset(self):
        self._pacer.reset()
        self.words_offered = 0
        self.words_sent = 0
        self.words_dropped = 0


def _reference_gt_driver(driver):
    """The kernel-component twin of a :class:`GtStreamDriver` record."""
    return _ReferenceGtStreamDriver(driver.name, driver.router, driver.connection, driver.word_source,
                                    driver.pacer.load, driver.pacer.cycles_per_word, driver.queue_limit)


class _ReferenceGtLinkStreamDriver(ClockedComponent):
    """The link stream driver as a kernel component, verbatim: drives a word
    or idle in every commit it runs, its pacer consulted per owned slot
    opportunity."""

    def __init__(self, name, link, slots, inject_slots, word_source, load=1.0):
        super().__init__(name)
        if not inject_slots:
            raise ValueError("a link stream needs at least one slot")
        self.link = link
        self.slots = slots
        self.inject_slots = frozenset(inject_slots)
        self.word_source = word_source
        self._pacer = CyclePacer(load, 1)  # gated once per slot opportunity
        #: Cycle residues (mod slots) at which this driver commits into an
        #: owned slot: cycle c feeds slot (c+1) % slots.
        self._inject_residues = sorted((s - 1) % slots for s in self.inject_slots)
        self.words_sent = 0

    def evaluate(self, cycle):  # the wire is driven at the clock edge
        pass

    def commit(self, cycle):
        # A word committed now is sampled during cycle + 1 and latched at the
        # downstream router's slot (cycle + 1) % S.
        target_slot = (cycle + 1) % self.slots
        if target_slot in self.inject_slots and self._pacer.should_emit():
            self.link.drive(self.word_source())
            self.words_sent += 1
        else:
            self.link.drive(None)

    def next_event_cycle(self, cycle):
        if self.link.forward is not None:
            return cycle
        emit_calls = self._pacer.cycles_until_emit()
        if emit_calls is None:
            return None  # zero load: every opportunity drives idle onto idle
        # The k-th opportunity from *cycle* on, counted from this revolution's start.
        residues, now = self._inject_residues, cycle % self.slots
        revolutions, index = divmod(emit_calls - 1 + bisect_left(residues, now), len(residues))
        return cycle - now + residues[index] + revolutions * self.slots

    def reset(self):
        self._pacer.reset()
        self.link.reset()
        self.words_sent = 0


class _ReferenceGtLinkStreamConsumer(ClockedComponent):
    """The link stream consumer as a kernel component, verbatim: samples the
    wire in evaluate(), counts the word in commit()."""

    def __init__(self, name, link, slots):
        super().__init__(name)
        self.link = link
        self.slots = slots
        #: Slot index -> stream id owning it (filled by the test bench).
        self.slot_owner = {}
        self.received = {}
        self._sampled = None
        self._sampled_slot = 0

    def claim(self, stream_id, slots):
        """Record that *stream_id* owns the given latch slots."""
        for slot in slots:
            self.slot_owner[slot] = stream_id

    def evaluate(self, cycle):
        self._sampled = self.link.forward
        self._sampled_slot = (cycle - 1) % self.slots

    def commit(self, cycle):
        if self._sampled is not None:
            owner = self.slot_owner.get(self._sampled_slot, -1)
            self.received[owner] = self.received.get(owner, 0) + 1
            self._sampled = None

    def next_event_cycle(self, cycle):
        if self.link.forward is not None or self._sampled is not None:
            return cycle
        return None

    def words_received_for(self, stream_id):
        """Words attributed to *stream_id*."""
        return self.received.get(stream_id, 0)

    def reset(self):
        self.received.clear()
        self._sampled = None


class _ReferenceGtNoC(TimeDivisionNoC):
    def __init__(self, topology, schedule=DEFAULT_SCHEDULE, **kwargs):
        # The reference routers never leap: *schedule* is the production twin's.
        super().__init__(topology, schedule="strict", **kwargs)

    def _register_with_kernel(self):
        for router in self.routers.values():
            self.kernel.add(router)

    def _adopt_driver(self, driver):
        return self.kernel.add(_reference_gt_driver(driver))

    def _remove_component(self, component):
        if component is not None and component._scheduler is self.kernel:
            self.kernel.remove(component)

    def _build_router(self, position):
        return _ReferenceSlotTableRouter(
            f"gt_{self.topology.router_name(position)}",
            slots=self.slots,
            data_width=self.data_width,
            position=position,
            tech=self.tech,
        )


def _gt_router_state(router):
    return {
        "activity": (router.activity.as_dict(), router.activity.cycles),
        "registers": (list(router._out_reg), list(router._out_prev)),
        "tile": (
            {name: list(queue) for name, queue in router.tile._tx.items()},
            router.tile.received,
        ),
    }


def _parked(clocks, cycle):
    """The earliest event any of the clocks predicts: the datapath, or the
    reference routers and tile stream drivers together."""
    events = [event for event in (clock.next_event_cycle(cycle) for clock in clocks) if event is not None]
    return min(events, default=None)


def _reference_clocks(kernel):
    """What a reference bench or fabric clocks in place of a datapath."""
    return [c for c in kernel.components if isinstance(c, (
        _ReferenceSlotTableRouter, _ReferenceGtStreamDriver, _ReferenceGtLinkStreamDriver, _ReferenceGtLinkStreamConsumer))]


def _gt_network_state(network):
    clocks = [network.datapath] if network.datapath else _reference_clocks(network.kernel)
    return (
        {position: _gt_router_state(router) for position, router in network.routers.items()},
        {key: (link.forward, link.dead, link.dropped) for key, link in network.links.items()},
        _parked(clocks, network.kernel.cycle),
    )


def _gt_twin_benches(setup, **router_kwargs):
    """A new and a reference single-router bench, programmed alike by *setup*."""
    return twin_benches(
        (SlotTableRouter, _ReferenceSlotTableRouter),
        lambda name, router: TdmaLink(name, router.data_width),
        setup,
        **router_kwargs,
    )


def _gt_bench_state(router, links, kernel):
    wires = {port: [(link.forward, link.dropped) for link in pair] for port, pair in links.items()}
    clocks = [router.datapath] if router.datapath else _reference_clocks(kernel)
    return _gt_router_state(router), wires, _parked(clocks, kernel.cycle)


def _gt_step_twins(benches, cycles):
    step_twins(benches, cycles, _gt_bench_state)


def _table3_setup(name, load, slots=16):
    """Program and feed a bench like ``run_gt_scenario``: link streams on external wires."""

    def setup(router, links):
        components, consumers, taken = [], {}, {}
        reference = isinstance(router, _ReferenceSlotTableRouter)
        link_driver, link_consumer = ((_ReferenceGtLinkStreamDriver, _ReferenceGtLinkStreamConsumer) if reference
                                      else (GtLinkStreamDriver, GtLinkStreamConsumer))
        for stream in scenario_by_name(name).streams:
            ports = (stream.input_port, -1 - stream.output_port)  # input and output side
            owned = frozenset([s for s in range(slots) if all(s not in taken.get(p, ()) for p in ports)][:4])
            for port in ports:
                taken.setdefault(port, set()).update(owned)
            connection, source = f"s{stream.stream_id}", word_generator(BitFlipPattern.TYPICAL, seed=stream.stream_id)
            for slot in owned:
                router.program(stream.output_port, slot, stream.input_port, connection)
            if stream.enters_at_tile:
                driver = GtStreamDriver(f"{connection}_src", router, connection, source, load, 4)
                components.append(_reference_gt_driver(driver) if reference else driver)
            else:
                components.append(
                    link_driver(f"{connection}_src", links[stream.input_port][0], slots, owned, source, load))
            if not stream.leaves_at_tile:
                consumer = consumers.setdefault(stream.output_port, link_consumer(
                    f"{connection}_dst", links[stream.output_port][1], slots))
                consumer.claim(stream.stream_id, owned)
        return components + list(consumers.values())

    return setup


def _table3_benches(name, load):
    """Twin :func:`_table3_setup` benches, production first; each bench
    carries its endpoints last."""
    endpoints, setup = {}, _table3_setup(name, load)

    def keep(router, links):
        endpoints[router] = setup(router, links)
        return endpoints[router]

    return [(router, links, kernel, endpoints[router]) for router, links, kernel in _gt_twin_benches(keep)]


def _step_table3(benches, cycles):
    """Step the benches together: equal bench states and equal endpoint
    counters and receptions after every cycle."""
    keys = ("words_offered", "words_sent", "words_dropped", "received")
    for _ in range(cycles):
        for _router, _links, kernel, _endpoints in benches:
            kernel.step()
        states = [(_gt_bench_state(router, links, kernel), [[getattr(e, key, None) for key in keys] for e in endpoints])
                  for router, links, kernel, endpoints in benches]
        assert states[0] == states[1], f"diverged in cycle {benches[0][2].cycle - 1}"


class TestCommitEqualsReference:
    @given(scenario=fabric_scenarios(), slots=st.sampled_from([4, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_lockstep_on_drawn_fabrics(self, scenario, slots):
        """Random admitted channels, loads and one mid-run dead wire on a drawn
        mesh, torus or irregular mesh: after every cycle the datapath leaves
        every router equal to its reference in counters (key set included),
        output registers, tile queues and link wires - and it parks exactly
        when the earliest of the references would."""
        scenario.run_in_lockstep(
            lambda topology, **kw: TimeDivisionNoC(topology, slots=slots, **kw),
            lambda topology, **kw: _ReferenceGtNoC(topology, slots=slots, **kw),
            _gt_network_state,
        )

    def test_reference_is_wired_in(self):
        network = _ReferenceGtNoC(Mesh2D(2, 1))
        router = network.router_at((0, 0))
        assert type(router) is _ReferenceSlotTableRouter and type(router.tile) is _ReferenceTile
        assert network.datapath is None and router in network.kernel.components
        network = TimeDivisionNoC(Mesh2D(2, 1))
        assert type(network.router_at((0, 0))) is SlotTableRouter and network.kernel.components == (network.datapath,)

    @pytest.mark.parametrize("name", ["II", "III", "IV"])
    @pytest.mark.parametrize("load", [0.35, 1.0])
    def test_table3_benches_on_external_wires(self, name, load):
        """The paper's single-router scenarios: link streams drive external
        wires the datapath samples, the consumers read its outgoing ones."""
        benches = _table3_benches(name, load)
        _step_table3(benches, 150)
        assert benches[0][0].activity.get(ActivityKeys.REG_TOGGLE_BITS) > 0

    def test_reset_then_rerun_matches_the_reference(self):
        """The datapath resets its link stream records with its routers: after
        a run, a slot-table write and ``kernel.reset()`` the rerun equals the
        reference bench's, whose kernel resets its endpoint components."""
        benches = _table3_benches("IV", 1.0)
        for router, _links, kernel, _endpoints in benches:
            kernel.run(83)
            router.clear(Port.EAST, 4)  # the west stream loses one of its slots
            kernel.run(40)
            kernel.reset()
        assert all(endpoint.words_sent == 0 for endpoint in benches[0][3] if hasattr(endpoint, "pacer"))
        _step_table3(benches, 150)
        assert benches[0][3][-1].words_received_for(3) > 0

    def test_a_word_repeated_on_an_outside_wire_counts_twice(self):
        """The same word leaves in two consecutive slots: the wire holds it two
        cycles running, and the link consumer counts it twice."""
        consumers = {}

        def setup(router, links):
            for slot in (0, 1):
                router.program(Port.EAST, slot, Port.TILE, "a")
                router.tile.send("a", 0x1234)
            reference = isinstance(router, _ReferenceSlotTableRouter)
            consumer = (_ReferenceGtLinkStreamConsumer if reference else GtLinkStreamConsumer)(
                "dst", links[Port.EAST][1], 4)
            consumer.claim(7, frozenset({0, 1}))
            consumers[router] = consumer
            return [consumer]

        benches = _gt_twin_benches(setup, slots=4)
        _gt_step_twins(benches, 6)
        assert [consumers[router].received for router, _links, _kernel in benches] == [{7: 2}, {7: 2}]

    def test_slots_cleared_while_a_word_sits_in_the_output_register(self):
        """The connection is torn down with its last word still registered:
        no entry names the port any more, yet the next cycle must latch it
        idle (toggles counted, wire falls idle) - once, then nothing moves."""

        def setup(router, links):
            for slot in (0, 1):
                router.program(Port.EAST, slot, Port.TILE, "a")
            for word in (0xFFFF, 0x00FF):
                router.tile.send("a", word)

        benches = _gt_twin_benches(setup, slots=4)
        _gt_step_twins(benches, 2)
        for router, links, _kernel in benches:
            assert router._out_reg[Port.EAST] == 0x00FF == links[Port.EAST][1].forward
            for slot in (0, 1):
                router.clear(Port.EAST, slot)
        assert benches[0][0].occupied_slots() == 0 and list(benches[0][0].datapath._held) == [Port.EAST]
        before = benches[0][0].activity.get(ActivityKeys.REG_TOGGLE_BITS)
        _gt_step_twins(benches, 1)
        for router, links, _kernel in benches:
            assert router._out_reg[Port.EAST] is None and links[Port.EAST][1].forward is None
            assert router.activity.get(ActivityKeys.REG_TOGGLE_BITS) == before + 8
        _gt_step_twins(benches, 6)
        router, _links, kernel = benches[0]
        assert not router.datapath._held and router.datapath.next_event_cycle(kernel.cycle) is None
        assert router.activity.get(ActivityKeys.REG_TOGGLE_BITS) == before + 8

    def test_dead_wire_swallows_and_counts_every_word(self):
        """A dead outgoing wire never carries a word, the register in front
        of it still latches (and toggles), and every word latched towards it
        is counted as dropped - also a word repeated from the cycle before."""

        def setup(router, links):
            for slot in (0, 1, 2):
                router.program(Port.EAST, slot, Port.TILE, "a")
            router.program(Port.TILE, 3, Port.WEST, "b")
            for word in (0x1234, 0x1234, 0x0F0F):
                router.tile.send("a", word)
            links[Port.EAST][1].fail()

        benches = _gt_twin_benches(setup, slots=4)
        _gt_step_twins(benches, 8)
        for router, links, _kernel in benches:
            wire = links[Port.EAST][1]
            assert wire.forward is None and wire.dropped == 3
            assert router.activity.get(ActivityKeys.WORDS_INJECTED) == 3
            assert router.activity.get(ActivityKeys.LINK_TOGGLE_BITS) > 0

    def test_word_width_is_still_checked_on_the_wire(self):
        router = SlotTableRouter("r", slots=2)
        rx, tx = TdmaLink("rx"), TdmaLink("tx")
        router.attach_link(Port.EAST, rx, tx)
        router.attach_link(Port.WEST, TdmaLink("wrx"), TdmaLink("wtx"))
        router.program(Port.WEST, 0, Port.EAST, "a")
        datapath = TdmaDatapath("datapath", [router])
        rx.forward = 1 << 16  # a neighbour bypassing drive()
        datapath.evaluate(0)
        with pytest.raises(ValueError, match="does not fit"):
            datapath.commit(0)

    def test_backlog_count_follows_send_pop_forget_and_reset(self):
        router = SlotTableRouter("r", slots=2)
        datapath, tile = TdmaDatapath("datapath", [router]), router.tile
        router.program(Port.EAST, 0, Port.TILE, "a")
        for word in (1, 2, 3):
            tile.send("a", word)
        tile.send("b", 4)
        assert tile._queued == 4 and datapath.next_event_cycle(0) == 0
        datapath.evaluate(0), datapath.commit(0)
        assert tile._queued == 3 and tile.backlog("a") == 2
        tile.forget("a")
        assert tile._queued == 1 and datapath.next_event_cycle(1) == 1  # the word still registered
        tile.forget("never-seen")
        tile.reset()
        assert tile._queued == 0


class TestLinkStreamSlots:
    """A link stream's slots are checked where it is built and where it is adopted."""

    def test_a_slot_outside_the_table_raises(self):
        """Owning slot 16 of a 16-slot table used to send nothing, with no error."""
        for owned in (frozenset({16}), frozenset({-1, 3}), frozenset()):
            with pytest.raises(ValueError, match="slots of 0..15"):
                GtLinkStreamDriver("src", TdmaLink("rx"), 16, owned, lambda: 1)
        consumer = GtLinkStreamConsumer("dst", TdmaLink("tx"), 16)
        with pytest.raises(ValueError, match="slots of 0..15"):
            consumer.claim(1, frozenset({16}))
        assert consumer.slot_owner == [-1] * 16

    def test_a_link_stream_of_another_slot_count_is_refused(self):
        """A driver and a consumer built for 8 slots on a 16-slot router used to
        run: 40 words sent, 20 received."""
        router = SlotTableRouter("dut", slots=16)
        rx, tx = TdmaLink("rx"), TdmaLink("tx")
        router.attach_link(Port.WEST, rx, TdmaLink("west_tx"))
        router.attach_link(Port.EAST, TdmaLink("east_rx"), tx)
        datapath = TdmaDatapath("datapath", [router])
        for record in (GtLinkStreamDriver("src", rx, 8, frozenset({1}), lambda: 1), GtLinkStreamConsumer("dst", tx, 8)):
            with pytest.raises(ConfigurationError, match="'(src|dst)' counts 8 slots, not 16"):
                datapath.adopt(record)
        assert not datapath._units and datapath.drivers.next_due is None


class TestScheduleChangesBetweenCycles:
    """Frames, slot-table writes and faults between two cycles act at the next; inside one a write raises."""

    def test_boundary_frame_word_then_program_after_clear(self):
        def setup(router, links):
            router.program(Port.TILE, 2, Port.WEST, "a")
            router.program(Port.EAST, 0, Port.TILE, "a")

        benches = _gt_twin_benches(setup, slots=4)
        _gt_step_twins(benches, 5)
        assert benches[0][0].datapath.next_event_cycle(benches[0][2].cycle) is None
        for router, links, _kernel in benches:
            links[Port.WEST][0].forward = 0x7  # what a shard's boundary frame writes
            links[Port.WEST][0].forward_dirty.mark()
            router.clear(Port.EAST, 0)
            router.program(Port.EAST, 0, Port.TILE, "b")
            router.tile.send("a", 0x22), router.tile.send("b", 0x33)
        _gt_step_twins(benches, 4)  # cycles 5-8: slots 1, 2, 3, 0
        for router, links, _kernel in benches:
            assert router.tile.received == {"a": [0x7]} and links[Port.EAST][1].forward == 0x33

    def test_fault_mid_train_takes_effect_next_cycle(self):
        networks = [cls(Mesh2D(4, 1), slots=4) for cls in (TimeDivisionNoC, _ReferenceGtNoC)]
        for network in networks:
            network.attach_channel("s", (0, 0), (3, 0), 100.0, word_generator(BitFlipPattern.TYPICAL, seed=5))
        while networks[0].link((1, 0), (2, 0)).forward is None:
            for network in networks:
                network.kernel.step()
        assert [network.fail_link((1, 0), (2, 0)) for network in networks] == [1, 1]
        for _ in range(40):
            for network in networks:
                network.kernel.step()
            assert _gt_network_state(networks[0]) == _gt_network_state(networks[1])
        assert networks[0].streams["s"].words_received == 0 and networks[0].fault_drops() > 1

    @pytest.mark.parametrize("phase", ["evaluate", "commit"])
    def test_slot_table_write_inside_a_cycle_raises(self, phase):
        router, kernel = SlotTableRouter("victim", slots=4), SimulationKernel(25e6)
        write = {phase: lambda self, cycle: router.program(Port.EAST, 1, Port.TILE, "a")}
        writer = type("Writer", (ClockedComponent,), {"evaluate": id, "commit": id, **write})("writer")
        kernel.add_all([writer, TdmaDatapath("datapath", [router])])
        with pytest.raises(SimulationError, match="'victim'"):
            kernel.step()
        assert router.occupied_slots() == 0

    def test_attach_link_inside_a_cycle_raises(self):
        router, kernel = SlotTableRouter("victim", slots=4), SimulationKernel(25e6)
        kernel.add(TdmaDatapath("datapath", [router]))
        router.attach_link(Port.EAST, TdmaLink("a"), None)  # between cycles: allowed
        kernel.run(1)
        assert router.tx_link(Port.EAST) is None and router.rx_link(Port.EAST).name == "a"
        rewire = {"commit": lambda self, cycle: router.attach_link(Port.EAST, TdmaLink("b"), None)}
        kernel.add(type("Rewire", (ClockedComponent,), {"evaluate": id, **rewire})("rewire"))
        with pytest.raises(SimulationError, match="'victim'.*inside cycle 1 .commit phase"):
            kernel.step()
        assert router.rx_link(Port.EAST).name == "a"


class TestDriversInTheDatapath:
    """Tile stream drivers are records the datapath fires, not kernel components."""

    @pytest.mark.parametrize("kind", ["gt", "packet"])
    def test_two_channels_sharing_a_source_pull_in_adoption_order(self, kind):
        """Both channels are due in the same cycles: their drivers pull the
        one source in the order they were adopted (the kernel registration
        order they had as components), whatever their names."""
        network = build_network(kind, Mesh2D(3, 1), frequency_hz=FREQUENCY_HZ)
        pulls = iter(range(1 << 16))
        for name, dst in (("z_first", (2, 0)), ("a_second", (1, 0))):
            network.attach_channel(name, (0, 0), dst, 100.0, lambda: next(pulls), load=1.0)
        assert network.kernel.components == (network.datapath,)
        with pytest.raises(TypeError):
            network.kernel.add(network.streams["z_first"].source)
        network.run(400)
        if kind == "gt":
            first, second = (network.router_at(dst).tile.received[name]
                             for name, dst in (("z_first", (2, 0)), ("a_second", (1, 0))))
        else:
            first, second = (network.router_at(dst).tile.received_words for dst in ((2, 0), (1, 0)))
        assert len(first) > 8 and len(second) > 8
        assert first == list(range(0, 2 * len(first), 2)) and second == list(range(1, 2 * len(second), 2))
