"""The columnar vector schedule: bit-identity with strict and plane guards.

The :class:`repro.sim.vector.VectorPlane` must be an *invisible*
optimisation: ``schedule="vector"`` has to leave the strict reference's
``network.snapshot()`` — per-router activity counters, delivered words,
drop counts, cycle counts — and, after every ``run()``, its converter
lanes (:func:`_lane_state`) on either side of the live-route gate,
including mid-run reconfiguration, live faults and sharded execution.
Seeded draws compare strict with both gate sides; these tests also pin the
plane's version guards (reconfiguration and fault injection must
invalidate the compiled gather), its gate, its lane columns and the
correlated fault models (row cuts, power-domain region kills).
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import BitFlipPattern, word_generator
from repro.common import CapacityError, FaultError, Port
from repro.core.flow_control import FlowControlConfig
from repro.core.header import phits_per_packet
from repro.core.testbench import TileStreamConsumer, TileStreamDriver
from repro.experiments.storm import storm_schedule
from repro.noc.ccn import CentralCoordinationNode
from repro.noc.fabric import build_network
from repro.noc.faults import (
    FaultInjector,
    FaultSpec,
    region_chooser,
    row_cut_chooser,
)
from repro.noc.topology import Mesh2D

from conftest import FabricScenario, drawn, fabric_scenarios
from oracle import SCHEDULES, SHIPPED_GATE, assert_identical, assert_same, gate_at, ran

FREQUENCY_HZ = 100e6

#: Strict against the vector schedule named outright.
VECTOR = {"strict": {"schedule": "strict"}, "vector": {"schedule": "vector"}}


@pytest.fixture
def open_gate():
    """One live route batches: for tests about the columns whose fabric is
    smaller than the shipped gate.  Every other test runs the gate as shipped."""
    with gate_at(1):
        yield


def _full_load_circuit(schedule, size=4):
    """A size×size circuit mesh with one full-load row stream per row."""
    from repro.noc.path_allocation import LaneAllocator

    mesh = Mesh2D(size, size)
    network = build_network("circuit", mesh, frequency_hz=FREQUENCY_HZ, schedule=schedule)
    allocator = LaneAllocator(mesh)
    for row in range(size):
        name = f"row{row}"
        allocation = allocator.allocate(
            name, (0, row), (size - 1, row), 100.0, FREQUENCY_HZ
        )
        network.apply_allocation(allocation)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=row)
        network.add_stream(name, allocation, generator, load=1.0)
    return network


@pytest.mark.parametrize("seed", range(8))
def test_random_scenarios_are_quadmodal_identical(seed):
    """A seeded draw of :func:`conftest.fabric_scenarios` (kind × mesh /
    torus / irregular × channels × load × churn × live fault): strict =
    vector with the gate as shipped = vector batching from one route, per
    router and per stream.  ("Quadmodal" is from when four schedules were
    compared.)"""
    scenario = dataclasses.replace(drawn(fabric_scenarios(max_cycles=400), seed), gate=None)
    assert_identical(scenario, {**VECTOR, "vector from one route": {"schedule": "vector", "gate": 1}})


def test_vector_plane_batches_busy_cycles():
    """On a saturated circuit fabric the plane must actually take the fast
    path (batched fabric-wide cycles), not silently fall back."""
    vector = assert_identical(lambda schedule: ran(_full_load_circuit(schedule), 400), VECTOR)["vector"]
    stats = vector.kernel.scheduler_stats
    assert stats.vector_batches > 300
    assert stats.vector_components == stats.vector_batches * len(vector.routers)


def test_vector_on_gt_and_packet_degrades_to_event():
    """Non-circuit fabrics accept schedule="vector" but register no plane,
    and say so."""
    for kind in ("packet", "gt"):
        network = build_network(
            kind, Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule="vector"
        )
        assert network.datapath.plane is None
        report = network.schedule_report()
        assert (report["requested"], report["effective"]) == ("vector", "event")
        assert "no vector plane" in report["reason"] and report["live_routes"] is None
        generator = word_generator(BitFlipPattern.TYPICAL, seed=5)
        network.attach_channel("a", (0, 0), (2, 2), 100.0, generator, load=0.5)
        network.run(300)
        assert network.kernel.scheduler_stats.vector_batches == 0


def test_clock_gated_circuit_registers_no_plane():
    """The gated commit holds register values the columnar latch would
    overwrite, so gated fabrics run plain event-driven."""
    from repro.noc.network import CircuitSwitchedNoC

    network = CircuitSwitchedNoC(
        Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule="vector", clock_gating=True
    )
    assert network.datapath.plane is None
    report = network.schedule_report()
    assert report["effective"] == "event" and "clock gating" in report["reason"]


# ---------------------------------------------------------------------------
# Version guards: reconfiguration and faults invalidate the compiled gather
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("open_gate")
def test_reconfiguration_invalidates_compiled_gather():
    """A post-start circuit write must force a scalar cycle + recompile,
    and the recompiled plane must still match strict bit for bit."""
    from repro.noc.path_allocation import LaneAllocator

    def scenario(schedule):
        mesh = Mesh2D(4, 4)
        network = build_network(
            "circuit", mesh, frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        allocator = LaneAllocator(mesh)
        first = allocator.allocate("a", (0, 0), (3, 3), 100.0, FREQUENCY_HZ)
        network.apply_allocation(first)
        network.add_stream(
            "a", first, word_generator(BitFlipPattern.TYPICAL, seed=2), load=0.8
        )
        network.run(250)
        second = allocator.allocate("b", (3, 0), (0, 3), 100.0, FREQUENCY_HZ)
        network.apply_allocation(second)
        network.add_stream(
            "b", second, word_generator(BitFlipPattern.TYPICAL, seed=4), load=1.0
        )
        network.run(250)
        network.remove_allocation(first)
        return ran(network, 150)

    vector = assert_identical(scenario, VECTOR)["vector"]
    assert vector.datapath.plane is not None
    # The plane ended the run recompiled against the *current* configuration.
    assert vector.schedule_report()["effective"] == "vector"
    assert vector.datapath.live_routes == vector.configured_circuits() > 0


def test_live_fault_desyncs_and_recompiles_the_plane():
    """A live fault between two runs finds the wires flushed (exact
    in-flight drop counts), releases the plane and reclassifies the dead
    bundle on recompile."""

    def scenario(schedule):
        network = _full_load_circuit(schedule)
        network.run(200)
        network.fail_link((1, 1), (2, 1))
        network.refresh_routing(network.degraded_topology())
        return ran(network, 200)

    # The dead bundle swallowed the identical in-flight payload.
    vector = assert_identical(scenario, VECTOR)["vector"]
    assert vector.fault_drops() > 0
    assert vector.schedule_report()["effective"] == "vector"


def test_sync_flush_makes_scalar_state_observable():
    """After every run() the crossbar registers and wires must hold the
    same values the strict schedule leaves behind (the flush contract)."""
    strict = _full_load_circuit("strict")
    vector = _full_load_circuit("vector")
    strict.run(157)
    vector.run(157)
    for position in strict.routers:
        s_router = strict.routers[position]
        v_router = vector.routers[position]
        assert v_router.crossbar.committed_data == s_router.crossbar.committed_data
        assert v_router.crossbar.committed_acks == s_router.crossbar.committed_acks
    for key in strict.links:
        assert vector.links[key].forward == strict.links[key].forward
        assert vector.links[key].ack == strict.links[key].ack


def test_kernel_reset_resets_the_plane():
    network = _full_load_circuit("vector")
    network.run(200)
    assert network.kernel.scheduler_stats.vector_batches > 0
    network.kernel.reset()
    report = network.schedule_report()
    assert report["effective"] == "event" and report["live_routes"] is None
    assert network.kernel.scheduler_stats.vector_batches == 0
    # The plane comes back: the routers run the first cycle, then batching.
    network.run(120)
    assert network.schedule_report()["effective"] == "vector"
    assert network.kernel.scheduler_stats.vector_batches > 0


# ---------------------------------------------------------------------------
# The live-route gate: batch when NumPy pays, step the members otherwise
# ---------------------------------------------------------------------------


def test_plane_crosses_its_gate_both_ways_and_stays_identical():
    """One row (3 live routes, below the gate) → all rows (9, above) → one
    row again, under the default schedule and the gate as shipped: every
    stage equals ``strict`` lane for lane, and the report shows that the
    routers ran both their own programs and batched."""
    size = 3
    assert size < SHIPPED_GATE <= size * size

    def rows(network, which):
        for row in which:
            network.attach_channel(
                f"row{row}", (0, row), (size - 1, row), 100.0,
                word_generator(BitFlipPattern.TYPICAL, seed=row), load=1.0,
            )

    networks = {
        name: build_network("circuit", Mesh2D(size, size), frequency_hz=FREQUENCY_HZ, **params)
        for name, params in SCHEDULES.items()
    }
    default = networks["default"]
    reports = []
    for stage in ("one row", "all rows", "one row again"):
        for network in networks.values():
            if stage == "one row":
                rows(network, [0])
            elif stage == "all rows":
                rows(network, range(1, size))
            else:
                for row in range(1, size):
                    network.detach_channel(f"row{row}", drain_cycles=23)
            network.run(131)  # never a multiple of the packet length
        assert_same(networks, _lane_state, stage)
        reports.append(default.schedule_report())

    below, above, below_again = reports
    assert below["requested"] == above["requested"] == "vector"
    assert below["effective"] == "event" and "live-route gate" in below["reason"]
    assert below["batched_cycles"] == 0 and below["scalar_cycles"] > 0
    # The gate's input reads off the report, not out of the reason string.
    assert [r["live_routes"] for r in reports] == [size, size * size, size]
    assert above["effective"] == "vector" and above["reason"] is None
    assert above["batched_cycles"] > 100
    assert below_again["effective"] == "event" and "live-route gate" in below_again["reason"]
    # Back below the gate the kernel runs the routers again: only the
    # teardown drains were still batched.
    assert below_again["scalar_cycles"] > above["scalar_cycles"] + 100
    assert below_again["batched_cycles"] <= above["batched_cycles"] + (size - 1) * 23


def test_idle_fabric_parks_without_batching():
    """No live route: the datapath parks every router after the first cycle
    and the kernel leaps the rest — nothing is ever compiled."""
    network = build_network("circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
    strict = build_network("circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ, schedule="strict")
    assert network.schedule_report()["live_routes"] is None  # not counted yet
    network.run(500)
    strict.run(500)
    assert_same({"strict": strict, "default": network})
    report = network.schedule_report()
    assert report["batched_cycles"] == 0 and report["scalar_cycles"] == 500
    assert report["live_routes"] == 0
    assert network.kernel.components == (network.datapath,)
    assert network.kernel.scheduler_stats.evaluated == 1  # cycle 0 only
    assert network.kernel.scheduler_stats.leaped_cycles == 499


# ---------------------------------------------------------------------------
# Converter lanes: the columns must flush back to the strict lane state
# ---------------------------------------------------------------------------

PHITS_PER_PACKET = phits_per_packet()


def _lane_state(network):
    """Every converter lane's scalar state, and what each sink has read."""
    lanes = {}
    for position, router in network.routers.items():
        for unit in router.converter.serializers:
            lanes[position, "tx", unit.lane] = (
                unit._remaining_phits,
                unit._current_phit,
                unit._hold_register,
                unit.window.credits,
                unit.words_loaded,
                len(unit._queue),
            )
        for unit in router.converter.deserializers:
            lanes[position, "rx", unit.lane] = (
                unit._collected,
                unit._previous_phit,
                unit._pending_ack_pulses,
                unit._ack_pulse,
                unit.words_received,
                unit.max_occupancy,
                tuple(unit._rx_queue),  # ReceivedWord carries its arrival cycle
            )
    read = {
        name: tuple(endpoints.sink.received)
        for name, endpoints in network.streams.items()
        if endpoints.sink is not None
    }
    return lanes, read


def _circuit(network, name, src, dst, flow):
    """Admit and program one lane circuit with *flow* on both tile ends."""
    allocation = network.admission.allocate(name, src, dst, 100.0, FREQUENCY_HZ)
    network.apply_allocation(allocation)
    circuit = allocation.circuits[0]
    network.router_at(src).tile.configure_tx(circuit.source_tile_lane, flow)
    network.router_at(dst).tile.configure_rx(circuit.destination_tile_lane, flow)
    return allocation


def _flow_stream(network, name, src, dst, load, flow, seed):
    allocation = _circuit(network, name, src, dst, flow)
    generator = word_generator(BitFlipPattern.TYPICAL, seed=seed)
    return network.add_stream(name, allocation, generator, load=load)


#: What may happen to the live set between two stops of a lane scenario: a
#: driver on a tile lane no route reads, the sink hop of a circuit cut under
#: its collecting deserialiser, unread words read after their channel is
#: gone, a direct tile write on an unrouted lane between two run() calls.
LANE_EDGES = ("stray driver", "sink hop cut", "read after detach", "late join")


@st.composite
def _lane_scenarios(draw, edge=st.sampled_from((None,) + LANE_EDGES)):
    width, height = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    tiles = [(x, y) for x in range(width) for y in range(height)]
    shared, *others = draw(
        st.lists(st.sampled_from(tiles), min_size=3, max_size=3, unique=True)
    )
    share_source = draw(st.booleans())
    channels = []
    for index, other in enumerate(others):
        window = draw(st.sampled_from((1, 2, 8, None)))
        credit = draw(st.integers(1, window)) if window else 1
        channels.append(
            {
                "name": f"ch{index}",
                "src": shared if share_source else other,
                "dst": other if share_source else shared,
                "load": draw(st.floats(0.1, 1.0)),
                "flow": FlowControlConfig(window, credit),
                "seed": draw(st.integers(0, 2**16)),
            }
        )
    # Stop cycles that are never a multiple of the packet length, so every
    # flush lands while words are half shifted.
    stops = draw(
        st.lists(
            st.builds(
                lambda words, phase: words * PHITS_PER_PACKET + phase,
                st.integers(1, 50),
                st.integers(1, PHITS_PER_PACKET - 1),
            ),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return (width, height), channels, sorted(stops), draw(edge)


@settings(max_examples=20, deadline=None)
@given(_lane_scenarios())
def test_lane_columns_flush_to_the_strict_lane_state(scenario):
    """Two channels sharing a source or sink tile, drawn loads and window
    configurations: after every run() the scalar lane units under
    ``vector`` hold exactly what ``strict`` left in them."""
    with gate_at(1):
        vector = _check_lane_scenario(scenario)
    assert vector.kernel.scheduler_stats.vector_batches > 0


@pytest.mark.parametrize("gate", (SHIPPED_GATE, 10**9))
@settings(max_examples=8, deadline=None)
@given(scenario=_lane_scenarios())
def test_lane_state_matches_strict_on_either_side_of_the_gate(gate, scenario):
    """The same draws with the gate as shipped (the two channels may or may
    not reach it) and with a gate nothing reaches."""
    with gate_at(gate):
        _check_lane_scenario(scenario)


@pytest.mark.parametrize("edge", LANE_EDGES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_lanes_entering_and_leaving_the_live_set_match_strict(edge, data):
    """Every edge of the live set on its own draws, batching from one route."""
    with gate_at(1):
        _check_lane_scenario(data.draw(_lane_scenarios(edge=st.just(edge))))


def _check_lane_scenario(scenario):
    extent, channels, stops, edge = scenario
    networks = {}
    for schedule in ("strict", "vector"):
        network = build_network(
            "circuit", Mesh2D(*extent), frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        for channel in channels:
            _flow_stream(network, **channel)
        networks[schedule] = network
    for index, stop in enumerate(stops):
        for network in networks.values():
            network.run(max(0, stop - network.kernel.cycle))
        assert_same(networks, _lane_state, f"cycle {stop}")
        if index == 0 and edge is not None:
            _cross_lane_edge(networks, edge, channels[0])
            _step_both(networks, edge, 3 * PHITS_PER_PACKET)
    return networks["vector"]


def _step_both(networks, where, cycles, until=lambda strict: False):
    """Single-step both networks, equal after every cycle, for *cycles* or
    until *until(strict network)* holds."""
    for _ in range(cycles):
        if until(networks["strict"]):
            break
        for network in networks.values():
            network.run(1)
        assert_same(networks, _lane_state, where)


def _unread_tile_lane(network, position):
    """The router at *position* and a tile lane of it that no route reads."""
    router = network.router_at(position)
    read = {source for _, source in router.crossbar.active_routes()}
    return router, max(set(range(router.lanes_per_port)) - read)


def _cross_lane_edge(networks, edge, channel):
    """Apply *edge* to both networks, on the first channel's circuit."""
    name, src = channel["name"], channel["src"]
    circuit = networks["strict"].streams[name].allocation.circuits[0]
    sink_lane = circuit.destination_tile_lane

    def sink_unit(network):
        return network.router_at(circuit.dst).converter.deserializers[sink_lane]

    if edge == "stray driver":
        # Sends from a driver's evaluate, while the plane batches the cycle.
        for network in networks.values():
            router, lane = _unread_tile_lane(network, src)
            words = word_generator(BitFlipPattern.TYPICAL, seed=channel["seed"])
            network.datapath.adopt(TileStreamDriver("stray", router, lane, words, load=1.0))
    elif edge == "late join":
        # A tile write between two run() calls, a word half shifted elsewhere.
        _step_both(
            networks, edge, 120,
            until=lambda strict: any(
                unit._remaining_phits
                for router in strict.routers.values()
                for unit in router.converter.serializers
            ),
        )
        for network in networks.values():
            router, lane = _unread_tile_lane(network, src)
            assert router.tile.send(lane, 0xA5A5, sob=True)
    elif edge == "sink hop cut":
        _step_both(networks, edge, 120, until=lambda strict: sink_unit(strict).collecting)
        hop = circuit.hops[-1]
        for network in networks.values():
            network.router_at(hop.position).deconfigure(hop.out_port, hop.out_lane)
    else:
        assert edge == "read after detach"
        # Nobody reads the sink any more: words queue up to the window.
        for network in networks.values():
            network.datapath.release(network.streams[name].sink)
        _step_both(networks, edge, 120, until=lambda strict: sink_unit(strict).available())
        for network in networks.values():
            network.detach_channel(name)
        _step_both(networks, edge, 2 * PHITS_PER_PACKET)
        for network in networks.values():
            tile = network.router_at(circuit.dst).tile
            while tile.receive(sink_lane) is not None:
                pass
    assert_same(networks, _lane_state, edge)


def _unread_stream(schedule, tx_flow, rx_flow):
    """A full-load stream into a tile that nobody reads."""
    network = build_network(
        "circuit", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule=schedule
    )
    allocation = _circuit(network, "a", (0, 0), (2, 1), tx_flow)
    circuit = allocation.circuits[0]
    network.router_at((2, 1)).tile.configure_rx(circuit.destination_tile_lane, rx_flow)
    driver = TileStreamDriver(
        "a_src",
        network.router_at((0, 0)),
        circuit.source_tile_lane,
        word_generator(BitFlipPattern.TYPICAL, seed=3),
        load=1.0,
    )
    network.datapath.adopt(driver)
    return network, circuit


@pytest.mark.usefixtures("open_gate")
def test_window_stall_and_resume_matches_strict():
    """The sink stops reading until the serialiser is window-stalled, then
    drains its queue: the credit returns and the stream restarts."""

    def scenario(schedule):
        flow = FlowControlConfig(window_size=2, credit_per_ack=1)
        network, circuit = _unread_stream(schedule, flow, flow)
        network.run(83)
        serializer = network.router_at((0, 0)).converter.serializers[circuit.source_tile_lane]
        assert serializer.window_stalled
        stalled = _lane_state(network)
        tile = network.router_at((2, 1)).tile
        words = []
        while tile.rx_available(circuit.destination_tile_lane):
            words.append(tile.receive(circuit.destination_tile_lane))
        assert len(words) == 2
        network.run(58)
        assert serializer.words_loaded > 2
        return network, stalled, words

    strict, strict_stalled, strict_words = scenario("strict")
    vector, vector_stalled, vector_words = scenario("vector")
    assert (vector_stalled, vector_words) == (strict_stalled, strict_words)
    assert_same({"strict": strict, "vector": vector}, _lane_state, "after the resume")


@pytest.mark.usefixtures("open_gate")
def test_missized_window_overflows_at_the_strict_cycle():
    """A source window wider than the destination buffer must raise the
    window violation at the very cycle the strict schedule raises it."""

    def overflow_cycle(schedule):
        network, _circuit_ = _unread_stream(
            schedule,
            FlowControlConfig(window_size=8, credit_per_ack=1),
            FlowControlConfig(window_size=2, credit_per_ack=1),
        )
        with pytest.raises(CapacityError, match="destination buffer overflow"):
            network.run(200)
        return network.kernel.cycle

    assert overflow_cycle("vector") == overflow_cycle("strict")


@pytest.mark.usefixtures("open_gate")
@pytest.mark.parametrize("surgery", ("fail_link", "detach_channel", "apply_allocation"))
def test_surgery_on_a_half_shifted_word_matches_strict(surgery):
    """Faults, teardown and reconfiguration that arrive while a word is
    half shifted find (and leave) the strict lane state."""

    def scenario(schedule):
        network = build_network(
            "circuit", Mesh2D(4, 3), frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        flow = FlowControlConfig(window_size=8, credit_per_ack=2)
        _flow_stream(network, "a", (0, 1), (3, 1), 1.0, flow, seed=7)
        _flow_stream(network, "b", (0, 1), (2, 2), 0.7, flow, seed=8)
        network.run(48)
        source = network.router_at((0, 1)).converter.serializers[0]
        assert source._remaining_phits, "the word must be half shifted"
        before = _lane_state(network)
        if surgery == "fail_link":
            network.fail_link((1, 1), (2, 1))
            network.refresh_routing(network.degraded_topology())
        elif surgery == "detach_channel":
            network.detach_channel("a", drain_cycles=7)
        else:
            _flow_stream(network, "c", (3, 0), (0, 2), 1.0, flow, seed=9)
        network.run(61)
        return network, before

    strict, strict_before = scenario("strict")
    vector, vector_before = scenario("vector")
    assert vector_before == strict_before
    assert_same({"strict": strict, "vector": vector}, _lane_state, f"after {surgery}")


@pytest.mark.usefixtures("open_gate")
def test_reconfiguration_right_after_a_read_keeps_the_owed_pulse():
    """A tile read at the last cycle of a run() leaves an acknowledge pulse
    owed; a reconfiguration elsewhere before the next cycle sends the plane
    through a reference cycle, which must still find that pulse."""

    def scenario(schedule, stop):
        network = build_network(
            "circuit", Mesh2D(4, 3), frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        flow = FlowControlConfig(window_size=2, credit_per_ack=1)
        _flow_stream(network, "a", (0, 1), (3, 1), 1.0, flow, seed=7)
        network.run(stop)
        owed = sum(
            unit._pending_ack_pulses
            for router in network.routers.values()
            for unit in router.converter.deserializers
        )
        _flow_stream(network, "c", (0, 2), (2, 2), 1.0, flow, seed=9)
        network.run(40)
        return network, owed

    boundaries_with_a_pulse_owed = 0
    for stop in range(30, 46):  # sweeps the sink's read across the run() boundary
        strict, owed = scenario("strict", stop)
        vector, vector_owed = scenario("vector", stop)
        assert vector_owed == owed
        boundaries_with_a_pulse_owed += bool(owed)
        assert_same({"strict": strict, "vector": vector}, _lane_state, f"reconfigured at cycle {stop}")
    assert boundaries_with_a_pulse_owed


@pytest.mark.usefixtures("open_gate")
def test_multicast_ors_its_acknowledges_like_strict():
    """One tile lane feeds two circuits of equal length: the source's
    acknowledge register ORs both returning pulses (the plane's only
    gather that is not one source per slot)."""

    def scenario(schedule):
        network = build_network(
            "circuit", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        flow = FlowControlConfig(window_size=2, credit_per_ack=1)
        centre = network.router_at((1, 1))
        centre.tile.configure_tx(0, flow)
        sinks = []
        for out_port, in_port, position in (
            (Port.EAST, Port.WEST, (2, 1)), (Port.WEST, Port.EAST, (0, 1)),
        ):
            centre.configure(out_port, 0, Port.TILE, 0)
            router = network.router_at(position)
            router.configure(Port.TILE, 0, in_port, 0)
            router.tile.configure_rx(0, flow)
            sinks.append(network.datapath.adopt(TileStreamConsumer(f"sink{position}", router, 0)))
        words = word_generator(BitFlipPattern.TYPICAL, seed=6)
        network.datapath.adopt(TileStreamDriver("source", centre, 0, words, load=1.0))
        states = []
        for cycles in (7, 51, 73):
            network.run(cycles)
            states.append((_lane_state(network), network.snapshot(), [s.received for s in sinks]))
        return network, states

    strict, strict_states = scenario("strict")
    vector, vector_states = scenario("vector")
    assert vector_states == strict_states
    assert len(strict_states[-1][2][0]) > 20  # credit kept returning through the OR
    assert vector.kernel.scheduler_stats.vector_batches > 100


@pytest.mark.usefixtures("open_gate")
@pytest.mark.parametrize(
    "lane_width, data_width, batched",
    [(4, 16, True), (6, 16, True), (8, 32, True), (4, 64, False)],
)
def test_lane_geometries_match_strict_or_fall_back(lane_width, data_width, batched):
    """Wider phits (sync mask above the header nibble), padded data phits and
    long packets stay bit-identical; a packet too wide for an int64 column
    runs without a plane."""
    from repro.noc.network import CircuitSwitchedNoC

    networks = {}
    for schedule in ("strict", "vector"):
        network = CircuitSwitchedNoC(
            Mesh2D(3, 3),
            frequency_hz=FREQUENCY_HZ,
            lane_width=lane_width,
            data_width=data_width,
            schedule=schedule,
        )
        allocation = _circuit(
            network, "a", (0, 1), (2, 2), FlowControlConfig(window_size=2, credit_per_ack=2)
        )
        words = random.Random(11)  # one generator per network: bound below
        network.add_stream(
            "a", allocation, lambda words=words: words.getrandbits(data_width), load=1.0
        )
        networks[schedule] = network
    assert (networks["vector"].datapath.plane is not None) == batched
    for stop in (7, 58, 131):
        for network in networks.values():
            network.run(stop - network.kernel.cycle)
        assert_same(networks, _lane_state, f"cycle {stop}")
    report = networks["vector"].schedule_report()
    assert report["effective"] == ("vector" if batched else "event")
    assert batched or "int64 column" in report["reason"]


# ---------------------------------------------------------------------------
# Sharded vector execution
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("open_gate")
@pytest.mark.parametrize("transport", ("pipe", "shm"))
def test_sharded_vector_matches_single_process(transport):
    """Each shard builds its own plane; boundary links take the scalar wire
    path and the partitioned run must equal the single-process strict run."""

    channels = [((0, 0), (3, 3), 100.0, 0.8), ((3, 0), (0, 3), 100.0, 0.4)]
    scenario = FabricScenario(Mesh2D(4, 4), channels, 500, (250, (1, 0), (2, 0), True), None)
    assert_identical(scenario, {
        "strict": {"schedule": "strict"},
        "sharded": {"schedule": "vector", "shards": 2, "transport": transport},
    })


# ---------------------------------------------------------------------------
# Correlated fault models
# ---------------------------------------------------------------------------


class TestCorrelatedFaults:
    def _loaded_network(self, schedule="vector"):
        network = build_network(
            "circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        network.attach_channel(
            "a", (0, 0), (3, 0), 100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=1), load=0.9,
        )
        network.run(200)
        return network

    def test_row_cut_kills_the_whole_row_atomically(self):
        network = self._loaded_network()
        injector = FaultInjector(network)
        report = injector.inject(FaultSpec("link", chooser=row_cut_chooser(seed=3, row=0)))
        assert report.kind == "link_group"
        # Every horizontal link of row 0 died in one fault event.
        assert set(report.target) == {
            ((x, 0), (x + 1, 0)) for x in range(3)
        }
        assert set(report.target) <= set(network.dead_links)
        assert len(injector.reports) == 1
        assert report.wire_drops == network.fault_drops()
        assert "3 links" in report.describe()

    def test_region_kill_takes_down_a_power_domain(self):
        network = self._loaded_network()
        injector = FaultInjector(network)
        report = injector.inject(
            FaultSpec("router", chooser=region_chooser(seed=5, width=2, height=2,
                                                       region=(2, 2)))
        )
        assert report.kind == "router_group"
        # The greedy connectivity filter may drop a window member whose kill
        # would transiently disconnect (here (3,2), which would isolate the
        # not-yet-dead (3,3)); everything it keeps dies atomically.
        window = {(2, 2), (2, 3), (3, 2), (3, 3)}
        assert set(report.target) <= window
        assert len(report.target) >= 3
        assert set(report.target) <= set(network.dead_routers)

    def test_region_chooser_never_touches_the_ccn(self):
        network = build_network("circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
        ccn = CentralCoordinationNode(network=network)
        chooser = region_chooser(seed=1, width=4, height=4)
        group = chooser(network, ccn)
        assert ccn.be_network.ccn_position not in group

    def test_group_validation_is_cumulative_and_atomic(self):
        # On a 2-wide line fabric, cutting both parallel columns' links
        # jointly disconnects — the group kill must refuse as a whole.
        network = build_network("circuit", Mesh2D(2, 2), frequency_hz=FREQUENCY_HZ)
        injector = FaultInjector(network)
        with pytest.raises(FaultError):
            injector.kill_link_group([((0, 0), (1, 0)), ((0, 1), (1, 1)),
                                      ((0, 0), (0, 1)), ((1, 0), (1, 1))])
        assert not network.dead_links  # nothing was touched

    @pytest.mark.usefixtures("open_gate")
    def test_row_cut_is_quadmodal_identical(self):
        def scenario(schedule):
            network = self._loaded_network(schedule)
            FaultInjector(network).inject(FaultSpec("link", chooser=row_cut_chooser(seed=3, row=1)))
            return ran(network, 200)

        assert_identical(scenario, VECTOR)

    def test_storm_schedule_wires_correlated_choosers(self):
        events, _ = storm_schedule(
            4, seed=7, row_cut_every=2, region_every=3, fault_spacing=100
        )
        faults = [event.fault for event in events if event.action == "fault"]
        assert len(faults) == 4
        # Indices 2 and 4 are row cuts (every 2nd), index 3 a region kill.
        network = build_network("circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
        row_cut = faults[1].chooser(network, None)
        assert isinstance(row_cut, list) and all(len(link) == 2 for link in row_cut)
        region = faults[2].chooser(network, None)
        assert isinstance(region, list) and all(len(p) == 2 for p in region)
