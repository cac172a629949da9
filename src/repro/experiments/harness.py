"""Scenario harnesses: single-router power scenarios and system-level app traffic.

The paper's power experiments place one router in a test bench, drive the
streams of Table 3 through it at 25 MHz and 100 % load for 200 µs (5000
cycles, 2 kB transported per stream) and report the static / internal /
switching power.  This module builds exactly that test bench for every
simulated router kind so that Figures 9 and 10 can be regenerated with
identical traffic.  Dispatch is *registry-driven*: :func:`run_scenario`
resolves the kind (with every alias) through the
:func:`repro.noc.fabric.build_network` registry and looks the runner up in a
table populated by :func:`register_scenario_runner` — adding a network kind
needs no harness edits.

Beyond the paper's single-router experiments, :func:`run_app_traffic` runs a
whole application process graph (UMTS, HiperLAN/2, DRM) end to end on *any*
registered network kind on *any* topology: the application is spatially
mapped once (deterministically, so every kind sees the same placement), each
guaranteed-throughput channel is admitted through the network's own
admission controller via :meth:`repro.noc.fabric.NocBase.attach_channel`,
and the delivered words / power / energy-per-bit are collected into an
:class:`AppTrafficResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps.kpn import ProcessGraph, TrafficClass
from repro.apps.traffic import BitFlipPattern, Scenario, StreamSpec, scenario_by_name, word_generator
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.baseline.testbench import (
    PacketStreamConsumer,
    PacketStreamDriver,
    TilePacketConsumer,
    TilePacketDriver,
)
from repro.common import NEIGHBOR_PORTS, Port, ReproError, port_offset
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter
from repro.core.testbench import (
    LaneStreamConsumer,
    LaneStreamDriver,
    TileStreamConsumer,
    TileStreamDriver,
)
from repro.energy.activity import ActivityCounters
from repro.energy.power import PowerBreakdown
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.noc.fabric import NocBase, build_network, resolve_network_kind
from repro.noc.gt_network import (
    GtLinkStreamConsumer,
    GtLinkStreamDriver,
    GtStreamDriver,
    SlotTableRouter,
    TdmaDatapath,
    TdmaLink,
)
from repro.noc.mapping import Mapping
from repro.noc.topology import Topology
from repro.sim.engine import DEFAULT_SCHEDULE, SimulationKernel

__all__ = [
    "ScenarioRunResult",
    "register_scenario_runner",
    "run_circuit_scenario",
    "run_packet_scenario",
    "run_gt_scenario",
    "run_scenario",
    "AppTrafficResult",
    "run_app_traffic",
]

#: The paper's power-experiment defaults (Section 7.2).
DEFAULT_FREQUENCY_HZ = 25e6
DEFAULT_CYCLES = 5000  # 200 µs at 25 MHz


@dataclass
class ScenarioRunResult:
    """Outcome of one single-router scenario simulation."""

    router_kind: str
    scenario: str
    pattern: BitFlipPattern
    load: float
    frequency_hz: float
    cycles: int
    power: PowerBreakdown
    words_sent: Dict[int, int] = field(default_factory=dict)
    words_received: Dict[int, int] = field(default_factory=dict)
    activity: Optional[ActivityCounters] = None

    @property
    def duration_s(self) -> float:
        """Simulated duration of the run."""
        return self.cycles / self.frequency_hz

    @property
    def transported_bytes(self) -> float:
        """Payload bytes transported across all streams (paper: 2 kB per stream)."""
        return sum(self.words_received.values()) * 2.0

    def delivery_ok(self, tolerance_words: int = 8) -> bool:
        """True when every stream delivered (almost) everything that was sent.

        A few words are always in flight in the pipeline when the simulation
        stops, hence the small tolerance.
        """
        for stream_id, sent in self.words_sent.items():
            received = self.words_received.get(stream_id, 0)
            if sent - received > tolerance_words:
                return False
        return True


# ---------------------------------------------------------------------------
# Registry of single-router scenario runners, keyed by canonical network kind
# ---------------------------------------------------------------------------

_SCENARIO_RUNNERS: Dict[str, Callable[..., "ScenarioRunResult"]] = {}


def register_scenario_runner(canonical_kind: str) -> Callable:
    """Register a Table-3 scenario runner for one canonical network kind.

    The key must match the network class's :attr:`~repro.noc.fabric.NocBase
    .kind`; :func:`run_scenario` resolves user-facing aliases through the
    ``build_network`` registry first, so a runner registered here serves
    every alias of its kind automatically.
    """

    def decorator(fn: Callable[..., "ScenarioRunResult"]) -> Callable[..., "ScenarioRunResult"]:
        _SCENARIO_RUNNERS[canonical_kind] = fn
        return fn

    return decorator


def _neighbor_position(position: tuple[int, int], port: Port) -> tuple[int, int]:
    dx, dy = port_offset(port)
    return (position[0] + dx, position[1] + dy)


def _attach_neighbor_links(router, make_link):
    """Attach a fresh rx/tx channel pair to every neighbour port of *router*.

    ``make_link(name)`` builds one directed channel; returns the per-port
    ``(rx, tx)`` pairs so drivers and consumers can hook onto them.
    """
    links = {}
    for port in NEIGHBOR_PORTS:
        rx = make_link(f"rx_{port.short_name}")
        tx = make_link(f"tx_{port.short_name}")
        router.attach_link(port, rx, tx)
        links[port] = (rx, tx)
    return links


def _run_testbench(kernel: SimulationKernel, components, router, cycles: int) -> None:
    """Register the endpoints (deduplicated) and the router (or the datapath
    clocking it), then run.

    Several streams may share one physical consumer; registration
    deduplicates by object identity.  The router is appended last so stream
    pacing decisions see the router state committed in the same cycle.
    """
    seen: set[int] = set()
    for component in components:
        if id(component) in seen:
            continue
        seen.add(id(component))
        kernel.add(component)
    kernel.add(router)
    kernel.run(cycles)


def _scenario_result(
    router_kind: str,
    scenario: Scenario,
    pattern: BitFlipPattern,
    load: float,
    frequency_hz: float,
    cycles: int,
    router,
    drivers: Dict[int, object],
) -> ScenarioRunResult:
    """Assemble the common part of a scenario report (power, activity, sent words)."""
    result = ScenarioRunResult(
        router_kind=router_kind,
        scenario=scenario.name,
        pattern=pattern,
        load=load,
        frequency_hz=frequency_hz,
        cycles=cycles,
        power=router.power(frequency_hz, cycles),
        activity=router.activity,
    )
    for stream_id, driver in drivers.items():
        result.words_sent[stream_id] = driver.words_sent
    return result


@register_scenario_runner("circuit_switched")
def run_circuit_scenario(
    scenario: Scenario | str,
    pattern: BitFlipPattern = BitFlipPattern.TYPICAL,
    load: float = 1.0,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    cycles: int = DEFAULT_CYCLES,
    clock_gating: bool = False,
    seed: int = 0,
    tech: Technology = TSMC_130NM_LVHP,
) -> ScenarioRunResult:
    """Run one scenario on the circuit-switched router and estimate its power."""
    if isinstance(scenario, str):
        scenario = scenario_by_name(scenario)
    router = CircuitSwitchedRouter("dut", clock_gating=clock_gating, tech=tech)
    kernel = SimulationKernel(frequency_hz)
    links: Dict[Port, tuple[LaneLink, LaneLink]] = _attach_neighbor_links(router, LaneLink)

    drivers: Dict[int, object] = {}
    consumers: Dict[int, object] = {}
    out_lane_use: Dict[Port, int] = {}
    in_lane_use: Dict[Port, int] = {}

    # Build one driver/consumer pair per stream and configure the crossbar.
    components = []
    for stream in scenario.streams:
        source = word_generator(pattern, width=router.data_width, seed=seed + stream.stream_id)
        out_lane = out_lane_use.get(stream.output_port, 0)
        out_lane_use[stream.output_port] = out_lane + 1
        in_lane = in_lane_use.get(stream.input_port, 0)
        in_lane_use[stream.input_port] = in_lane + 1
        router.configure(stream.output_port, out_lane, stream.input_port, in_lane)

        if stream.enters_at_tile:
            driver = TileStreamDriver(f"s{stream.stream_id}_src", router, in_lane, source, load)
        else:
            driver = LaneStreamDriver(
                f"s{stream.stream_id}_src", links[stream.input_port][0], in_lane, source, load
            )
        if stream.leaves_at_tile:
            consumer = TileStreamConsumer(f"s{stream.stream_id}_dst", router, out_lane)
        else:
            consumer = LaneStreamConsumer(
                f"s{stream.stream_id}_dst", links[stream.output_port][1], out_lane
            )
        drivers[stream.stream_id] = driver
        consumers[stream.stream_id] = consumer
        components.extend([driver, consumer])

    _run_testbench(kernel, components, router, cycles)

    result = _scenario_result(
        "circuit_switched", scenario, pattern, load, frequency_hz, cycles, router, drivers
    )
    for stream_id, consumer in consumers.items():
        result.words_received[stream_id] = consumer.words_received
    return result


@register_scenario_runner("packet_switched")
def run_packet_scenario(
    scenario: Scenario | str,
    pattern: BitFlipPattern = BitFlipPattern.TYPICAL,
    load: float = 1.0,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    cycles: int = DEFAULT_CYCLES,
    words_per_packet: int = 16,
    seed: int = 0,
    tech: Technology = TSMC_130NM_LVHP,
) -> ScenarioRunResult:
    """Run one scenario on the packet-switched baseline router."""
    if isinstance(scenario, str):
        scenario = scenario_by_name(scenario)
    position = (1, 1)  # keep all four neighbours inside a virtual mesh
    router = PacketSwitchedRouter(
        "dut", position=position, words_per_packet=words_per_packet, tech=tech
    )
    kernel = SimulationKernel(frequency_hz)
    links: Dict[Port, tuple[PacketLink, PacketLink]] = _attach_neighbor_links(
        router, lambda name: PacketLink(name, router.num_vcs)
    )

    drivers: Dict[int, object] = {}
    consumers: Dict[int, object] = {}
    link_consumers: Dict[Port, PacketStreamConsumer] = {}
    tile_consumer: Optional[TilePacketConsumer] = None
    components = []
    next_vc = 0
    for stream in scenario.streams:
        source = word_generator(pattern, width=router.data_width, seed=seed + stream.stream_id)
        vc = next_vc % router.num_vcs
        next_vc += 1
        dest = (
            position
            if stream.leaves_at_tile
            else _neighbor_position(position, stream.output_port)
        )
        if stream.enters_at_tile:
            driver = TilePacketDriver(
                f"s{stream.stream_id}_src", router, source, dest, load, vc, words_per_packet
            )
        else:
            src_position = _neighbor_position(position, stream.input_port)
            driver = PacketStreamDriver(
                f"s{stream.stream_id}_src",
                links[stream.input_port][0],
                source,
                dest,
                src_position,
                load,
                vc,
                words_per_packet,
                router.fifo_depth,
            )
        if stream.leaves_at_tile:
            if tile_consumer is None:
                tile_consumer = TilePacketConsumer(f"s{stream.stream_id}_dst", router)
            consumer = tile_consumer
        else:
            # Streams sharing an output port share one physical downstream
            # router; model it with a single consumer per link.
            if stream.output_port not in link_consumers:
                link_consumers[stream.output_port] = PacketStreamConsumer(
                    f"link_{stream.output_port.short_name}_dst", links[stream.output_port][1]
                )
            consumer = link_consumers[stream.output_port]
        drivers[stream.stream_id] = driver
        consumers[stream.stream_id] = consumer
        components.extend([driver, consumer])

    _run_testbench(kernel, components, PacketDatapath("dut_datapath", [router]), cycles)

    result = _scenario_result(
        "packet_switched", scenario, pattern, load, frequency_hz, cycles, router, drivers
    )
    # Per-stream delivery accounting: streams ending at the tile are counted
    # at the tile interface; streams sharing an output link share one physical
    # consumer, whose total is attributed in equal shares (enough for the
    # delivery sanity checks; power does not depend on it).
    shared: Dict[int, List[int]] = {}
    shared_consumers: Dict[int, PacketStreamConsumer] = {}
    for stream_id, consumer in consumers.items():
        if isinstance(consumer, TilePacketConsumer):
            result.words_received[stream_id] = consumer.words_received
        else:
            shared.setdefault(id(consumer), []).append(stream_id)
            shared_consumers[id(consumer)] = consumer
    for consumer_id, stream_ids in shared.items():
        share = shared_consumers[consumer_id].words_received // len(stream_ids)
        for stream_id in stream_ids:
            result.words_received[stream_id] = share
    return result


@register_scenario_runner("time_division_gt")
def run_gt_scenario(
    scenario: Scenario | str,
    pattern: BitFlipPattern = BitFlipPattern.TYPICAL,
    load: float = 1.0,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    cycles: int = DEFAULT_CYCLES,
    slots: int = 16,
    slots_per_stream: int = 4,
    data_width: int = 16,
    seed: int = 0,
    tech: Technology = TSMC_130NM_LVHP,
) -> ScenarioRunResult:
    """Run one Table-3 scenario on the Æthereal-style slot-table router.

    Every stream owns *slots_per_stream* slots of the revolving table on its
    input and output side (streams sharing a port get disjoint slots — the
    TDMA equivalent of the circuit-switched harness handing out lanes), so at
    100 % load a stream offers one word per owned slot per revolution.
    """
    if isinstance(scenario, str):
        scenario = scenario_by_name(scenario)
    router = SlotTableRouter("dut", slots=slots, data_width=data_width, tech=tech)
    kernel = SimulationKernel(frequency_hz)
    links: Dict[Port, tuple[TdmaLink, TdmaLink]] = _attach_neighbor_links(
        router, lambda name: TdmaLink(name, data_width)
    )

    in_used: Dict[Port, set] = {}
    out_used: Dict[Port, set] = {}
    drivers: Dict[int, object] = {}
    consumers: Dict[int, object] = {}
    link_consumers: Dict[Port, GtLinkStreamConsumer] = {}
    components = []
    for stream in scenario.streams:
        # Disjoint slots on both the input and the output side of the stream.
        taken_in = in_used.setdefault(stream.input_port, set())
        taken_out = out_used.setdefault(stream.output_port, set())
        stream_slots = [
            s for s in range(slots) if s not in taken_in and s not in taken_out
        ][:slots_per_stream]
        if len(stream_slots) < slots_per_stream:
            raise ReproError(
                f"slot table of size {slots} cannot fit {slots_per_stream} slot(s) "
                f"for stream {stream.stream_id} of scenario {scenario.name!r}"
            )
        taken_in.update(stream_slots)
        taken_out.update(stream_slots)
        connection = f"s{stream.stream_id}"
        for slot in stream_slots:
            router.program(stream.output_port, slot, stream.input_port, connection)

        source = word_generator(pattern, width=router.data_width, seed=seed + stream.stream_id)
        if stream.enters_at_tile:
            driver = GtStreamDriver(
                f"s{stream.stream_id}_src",
                router,
                connection,
                source,
                load,
                cycles_per_word=max(1, slots // slots_per_stream),
            )
        else:
            driver = GtLinkStreamDriver(
                f"s{stream.stream_id}_src",
                links[stream.input_port][0],
                slots,
                frozenset(stream_slots),
                source,
                load,
            )
        if stream.leaves_at_tile:
            consumer = None  # delivery is read off the tile interface
        else:
            if stream.output_port not in link_consumers:
                link_consumers[stream.output_port] = GtLinkStreamConsumer(
                    f"link_{stream.output_port.short_name}_dst",
                    links[stream.output_port][1],
                    slots,
                )
            consumer = link_consumers[stream.output_port]
            consumer.claim(stream.stream_id, frozenset(stream_slots))
        drivers[stream.stream_id] = driver
        consumers[stream.stream_id] = consumer
        components.append(driver)
        if consumer is not None:
            components.append(consumer)

    _run_testbench(kernel, components, TdmaDatapath("dut_datapath", [router]), cycles)

    result = _scenario_result(
        "time_division_gt", scenario, pattern, load, frequency_hz, cycles, router, drivers
    )
    for stream in scenario.streams:
        consumer = consumers[stream.stream_id]
        if consumer is None:
            result.words_received[stream.stream_id] = router.tile.words_received(
                f"s{stream.stream_id}"
            )
        else:
            result.words_received[stream.stream_id] = consumer.words_received_for(
                stream.stream_id
            )
    return result


def run_scenario(router_kind: str, scenario: Scenario | str, **kwargs) -> ScenarioRunResult:
    """Dispatch to a single-router scenario harness by network kind.

    *router_kind* accepts every name/alias of the ``build_network`` registry
    (``circuit``/``cs``, ``packet``/``ps``, ``gt``/``aethereal``/``tdma``);
    the runner is looked up by the resolved class's canonical kind, so new
    network kinds plug in via :func:`register_scenario_runner` without any
    edits here.
    """
    cls = resolve_network_kind(router_kind)
    try:
        runner = _SCENARIO_RUNNERS[cls.kind]
    except KeyError:
        raise ReproError(
            f"network kind {cls.kind!r} has no registered scenario runner"
        ) from None
    return runner(scenario, **kwargs)


# ---------------------------------------------------------------------------
# System-level application traffic on any network kind / topology
# ---------------------------------------------------------------------------


@dataclass
class AppTrafficResult:
    """Outcome of one application process graph run on one network kind."""

    kind: str
    application: str
    frequency_hz: float
    cycles: int
    load: float
    #: Sum of router counts along every non-local GT channel's minimal route
    #: (a topology metric, identical across kinds on the same fabric).
    route_hops: int
    words_sent: Dict[str, int] = field(default_factory=dict)
    words_received: Dict[str, int] = field(default_factory=dict)
    power: Optional[PowerBreakdown] = None
    energy_pj_per_bit: float = float("inf")
    mapping: Optional[Mapping] = None
    network: Optional[NocBase] = field(default=None, repr=False)

    @property
    def total_sent(self) -> int:
        """Words injected across all channels."""
        return sum(self.words_sent.values())

    @property
    def total_received(self) -> int:
        """Words delivered across all channels."""
        return sum(self.words_received.values())

    def delivery_ok(self, tolerance_words: int = 64) -> bool:
        """True when every channel delivered (almost) everything that was sent.

        The tolerance covers words still queued at the source tile or in
        flight in the fabric when the simulation stops.
        """
        for name, sent in self.words_sent.items():
            received = self.words_received.get(name, 0)
            if sent - received > tolerance_words:
                return False
            if sent > 0 and received == 0:
                return False
        return True


def run_app_traffic(
    kind: str,
    topology: Topology,
    graph: ProcessGraph,
    frequency_hz: float = 100e6,
    cycles: int = 3000,
    load: float = 0.5,
    seed: int = 0,
    schedule: str = DEFAULT_SCHEDULE,
    **params,
) -> AppTrafficResult:
    """Run one application's GT traffic end to end on any network kind.

    The process graph is spatially mapped once (the mapper is deterministic,
    so every kind sees the identical placement on the same topology), every
    guaranteed-throughput channel is admitted through the network's own
    admission controller via ``attach_channel`` (lane circuits, slot
    schedules, or nothing for packet switching), and the identical word
    streams then run for *cycles* network cycles.
    """
    network = build_network(
        kind, topology, frequency_hz=frequency_hz, schedule=schedule, **params
    )
    # The whole admission pipeline runs through the CCN lifecycle engine:
    # feasibility, deterministic mapping, allocation on the network's own
    # admission controller, router programming, then stream attachment —
    # identical placement and traffic on every kind.
    from repro.noc.ccn import CentralCoordinationNode

    ccn = CentralCoordinationNode(network=network)
    admission = ccn.admit(graph)
    mapping = admission.mapping
    generator = word_generator(BitFlipPattern.TYPICAL, seed=seed)
    ccn.attach_traffic(graph.name, generator, load=load)

    route_hops = 0
    for channel in graph.channels:
        if channel.traffic_class != TrafficClass.GUARANTEED_THROUGHPUT:
            continue
        src = mapping.position_of(channel.src)
        dst = mapping.position_of(channel.dst)
        if src == dst:
            continue  # tile-local: no network resources on any kind
        route_hops += topology.distance(src, dst) + 1

    network.run(cycles)

    result = AppTrafficResult(
        kind=network.kind,
        application=graph.name,
        frequency_hz=frequency_hz,
        cycles=cycles,
        load=load,
        route_hops=route_hops,
        power=network.total_power(),
        energy_pj_per_bit=network.energy_per_delivered_bit_pj(),
        mapping=mapping,
        network=network,
    )
    for name, stats in network.stream_statistics().items():
        result.words_sent[name] = stats["sent"]
        result.words_received[name] = stats["received"]
    return result
