"""The Central Coordination Node (Section 1.1): run-time application lifecycle.

"The SoC system is organized as a centralized system: one node, called
Central Coordination Node (CCN), performs system coordination functions. …
The CCN performs the feasibility analysis, spatial mapping, process
allocation and configuration of the tiles and the NoC before the start of an
application."

The CCN implemented here runs exactly that admission pipeline — and it runs
it against *any* registered network kind (``"circuit"``/``"packet"``/
``"gt"`` plus every :func:`repro.noc.fabric.build_network` alias):

1. **feasibility analysis** — every guaranteed-throughput channel must fit in
   the per-link resource units (lanes or TDMA slots) available at the network
   clock; packet switching performs no admission and is feasible whenever the
   processes fit,
2. **spatial mapping** — :class:`repro.noc.mapping.SpatialMapper`,
3. **resource allocation** — any
   :class:`repro.noc.admission.AdmissionController`:
   :class:`repro.noc.path_allocation.LaneAllocator` for the paper's lane
   circuits, :class:`repro.noc.slot_table.SlotTableAllocator` for
   Æthereal-style aligned slot schedules,
4. **configuration** — one command per router hop of every circuit, sized by
   the network kind (10-bit lane commands vs. wider slot-table writes — the
   Section 4 contrast), transported over the best-effort network
   (:class:`repro.noc.be_network.BestEffortNetwork`) and, when a live
   :class:`repro.noc.fabric.NocBase` network is attached, written into the
   routers (crossbar configuration memories or revolving slot tables),
5. **traffic attach / release** — :meth:`CentralCoordinationNode
   .attach_traffic` registers the admitted channels' paced word streams on
   the live network, and :meth:`CentralCoordinationNode.release` tears
   streams, router configuration, resources and tiles down transactionally,
   so applications can arrive and depart mid-simulation.

Reconfiguration-cost provenance: the *number and size* of configuration
commands are derived from the simulated allocations; their transport time
uses the analytic best-effort network model (store-and-forward latency), not
a cycle-accurate BE simulation — exactly the quantity the paper budgets
("less than 1 ms over the BE network").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.apps.kpn import ProcessGraph, TrafficClass
from repro.common import AllocationError, ConfigurationError, FaultError, MappingError
from repro.noc.admission import AdmissionController
from repro.noc.be_network import BestEffortNetwork, ConfigurationDelivery
from repro.noc.fabric import NocBase, resolve_network_kind
from repro.noc.mapping import Mapping, SpatialMapper
from repro.noc.tile import TileGrid
from repro.noc.topology import Position, Topology
from repro.sim.datapath import WordSource

__all__ = [
    "FeasibilityReport",
    "ApplicationAdmission",
    "FaultRecovery",
    "CentralCoordinationNode",
]


@dataclass
class FeasibilityReport:
    """Result of the CCN's pre-mapping feasibility analysis."""

    application: str
    feasible: bool
    #: Payload bandwidth one resource unit guarantees (``inf`` for kinds
    #: without admission: packet switching admits anything that maps).
    unit_capacity_mbps: float
    #: What one unit is called for this kind (``"lane"``, ``"slot"``).
    unit_name: str = "lane"
    channel_units: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    # -- backwards-compatible aliases (the report predates non-lane kinds) --

    @property
    def lane_capacity_mbps(self) -> float:
        """Alias of :attr:`unit_capacity_mbps`."""
        return self.unit_capacity_mbps

    @property
    def channel_lanes(self) -> Dict[str, int]:
        """Alias of :attr:`channel_units`."""
        return self.channel_units


@dataclass
class ApplicationAdmission:
    """Everything the CCN decided while admitting one application."""

    application: str
    mapping: Mapping
    #: Canonical kind of the fabric the application was admitted on.
    kind: str = "circuit_switched"
    #: Per-channel allocations (:class:`~repro.noc.path_allocation
    #: .CircuitAllocation` or :class:`~repro.noc.slot_table.SlotAllocation`);
    #: empty for kinds without admission.
    allocations: List[Any] = field(default_factory=list)
    configuration_commands: int = 0
    #: Bits of one configuration command for this kind (Section 4 contrast).
    command_bits: int = 0
    delivery: Optional[ConfigurationDelivery] = None
    best_effort_channels: List[str] = field(default_factory=list)
    #: Stream registry names created by :meth:`CentralCoordinationNode
    #: .attach_traffic` (empty while no traffic is attached).
    stream_names: List[str] = field(default_factory=list)
    #: The admitted process graph (needed to attach packet-switched traffic,
    #: which has no allocation records to recover channels from).
    graph: Optional[ProcessGraph] = field(default=None, repr=False)
    #: Traffic parameters recorded at :meth:`CentralCoordinationNode
    #: .attach_traffic` time, so fault recovery can re-attach a displaced
    #: application's streams with the identical word source and load.
    word_source: Optional[WordSource] = field(default=None, repr=False)
    load: float = field(default=1.0, repr=False)

    @property
    def total_units_used(self) -> int:
        """Resource units (lane circuits / slot trains) across all channels."""
        return sum(len(a.circuits) for a in self.allocations)

    #: Backwards-compatible alias; the attribute predates non-lane kinds.
    total_lanes_used = total_units_used

    @property
    def configuration_bits(self) -> int:
        """Total configuration payload shipped over the BE network."""
        return self.configuration_commands * self.command_bits

    @property
    def reconfiguration_time_s(self) -> float:
        """Time needed to ship all configuration commands over the BE network."""
        return self.delivery.total_time_s if self.delivery is not None else 0.0


@dataclass
class FaultRecovery:
    """Everything :meth:`CentralCoordinationNode.handle_fault` decided and did."""

    #: Undirected links and router positions the fault killed.
    dead_links: List[Any] = field(default_factory=list)
    dead_routers: List[Position] = field(default_factory=list)
    #: Applications whose routes or mapped tiles touched the dead resources,
    #: in admission order.
    displaced: List[str] = field(default_factory=list)
    #: Displaced applications successfully re-mapped and re-admitted on the
    #: degraded fabric (their traffic re-attached where it was attached).
    readmitted: List[str] = field(default_factory=list)
    #: Displaced applications the degraded fabric could no longer carry.
    rejected: List[str] = field(default_factory=list)
    #: Advisory fabric recommendation per rejected application when a
    #: :class:`~repro.noc.selection.FabricSelector` was consulted
    #: (``None`` = no fabric can carry it).
    fallback_kinds: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Post-drain delivered-word count per stream detached during recovery.
    final_stream_counts: Dict[str, int] = field(default_factory=dict)
    #: Network cycles the halt/drain/re-admit sequence consumed.
    recovery_cycles: int = 0
    #: BE-network transport time of the re-admissions' configuration.
    reconfiguration_time_s: float = 0.0

    @property
    def recovered_all(self) -> bool:
        """True when every displaced application was re-admitted."""
        return not self.rejected


def _undirected(link: Any) -> Any:
    a, b = link
    return (a, b) if a <= b else (b, a)


def _single_process(network: Optional[NocBase]) -> Optional[NocBase]:
    """*network*, if the CCN can drive it: a sharded fabric raises, since its
    lifecycle (admission, stream attachment, drains) runs in one process."""
    if network is not None and not isinstance(network, NocBase):
        raise ConfigurationError(f"a CentralCoordinationNode drives a single-process fabric, not {network!r}")
    return network


class CentralCoordinationNode:
    """Run-time resource manager of the multi-tile SoC, generic over fabrics.

    The CCN can be used two ways:

    * **analytic** — construct with a *topology* and a *kind* (default the
      paper's circuit switching); admissions are planned on the CCN's own
      admission controller without any live network,
    * **bound** — construct with a live ``network=``; the CCN shares the
      network's own admission controller (so ``attach_channel`` calls and CCN
      admissions draw from the same pools), programs routers on admission and
      can attach/detach the admitted applications' paced word streams.

    A live network may also be passed per call to :meth:`admit` /
    :meth:`release` (the pre-lifecycle API); it must be of the CCN's kind.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        grid: Optional[TileGrid] = None,
        allocator: Optional[AdmissionController] = None,
        be_network: Optional[BestEffortNetwork] = None,
        network_frequency_hz: Optional[float] = None,
        ccn_position: Position = (0, 0),
        kind: str = "circuit",
        network: Optional[NocBase] = None,
    ) -> None:
        if topology is None:
            if network is None:
                raise ConfigurationError("a topology or a live network is required")
            topology = network.topology
        self.topology = topology
        #: Backwards-compatible alias; the attribute predates non-mesh fabrics.
        self.mesh = topology
        self.network = _single_process(network)
        self._network_cls = type(network) if network is not None else resolve_network_kind(kind)
        #: Canonical kind name of the managed fabric.
        self.kind = self._network_cls.kind
        self.grid = grid if grid is not None else TileGrid(topology)
        if allocator is None and self._network_cls.performs_admission:
            if network is not None:
                allocator = network.admission
            else:
                allocator = self._network_cls.default_admission_controller(topology)
        #: The admission controller (``None`` for kinds without admission).
        self.allocator = allocator
        self.be_network = (
            be_network if be_network is not None else BestEffortNetwork(topology, ccn_position)
        )
        if network_frequency_hz is None:
            network_frequency_hz = network.frequency_hz if network is not None else 1075e6
        self.network_frequency_hz = network_frequency_hz
        self.mapper = SpatialMapper(self.grid)
        self._admissions: Dict[str, ApplicationAdmission] = {}

    # -- feasibility ------------------------------------------------------------------------

    def feasibility(self, graph: ProcessGraph) -> FeasibilityReport:
        """Check whether every GT channel fits the kind's per-link resources."""
        allocator = self.allocator
        if allocator is None:
            report = FeasibilityReport(graph.name, True, float("inf"), unit_name="")
        else:
            capacity = allocator.unit_capacity_mbps(self.network_frequency_hz)
            report = FeasibilityReport(
                graph.name, True, capacity, unit_name=allocator.unit_name
            )
        if len(graph.processes) > self.topology.size:
            report.feasible = False
            report.problems.append(
                f"{len(graph.processes)} processes exceed the {self.topology.size} available tiles"
            )
        if allocator is None:
            return report
        for channel in graph.channels:
            if channel.traffic_class != TrafficClass.GUARANTEED_THROUGHPUT:
                continue
            units = allocator.units_required(channel.bandwidth_mbps, self.network_frequency_hz)
            report.channel_units[channel.name] = units
            if units > allocator.units_per_link:
                report.feasible = False
                report.problems.append(
                    f"channel {channel.name!r} needs {units} {allocator.unit_name}s but a "
                    f"link only has {allocator.units_per_link}"
                )
        return report

    # -- admission ------------------------------------------------------------------------------

    def _resolve_network(self, network: Optional[NocBase]) -> Optional[NocBase]:
        """The live network of one call (argument wins over the bound one)."""
        network = _single_process(network) if network is not None else self.network
        if network is not None and type(network).kind != self.kind:
            raise ConfigurationError(
                f"CCN manages a {self.kind!r} fabric but was given a "
                f"{type(network).kind!r} network"
            )
        return network

    def admit(
        self,
        graph: ProcessGraph,
        network: Optional[NocBase] = None,
    ) -> ApplicationAdmission:
        """Map, allocate and configure one application (raises on infeasibility).

        With a live network (bound or passed here) the allocations are also
        written into the routers — crossbar configuration memories for lane
        circuits, revolving slot tables for slot trains.  Rolls everything
        back if any channel cannot be allocated.
        """
        if graph.name in self._admissions:
            raise MappingError(f"application {graph.name!r} is already admitted")
        network = self._resolve_network(network)
        report = self.feasibility(graph)
        if not report.feasible:
            raise MappingError(
                f"application {graph.name!r} is infeasible: " + "; ".join(report.problems)
            )

        mapping = self.mapper.map(graph)
        admission = ApplicationAdmission(
            graph.name,
            mapping,
            kind=self.kind,
            command_bits=self._network_cls.config_command_bits,
            graph=graph,
        )

        gt_channels = [
            c for c in graph.channels if c.traffic_class == TrafficClass.GUARANTEED_THROUGHPUT
        ]
        gt_channels.sort(key=lambda c: c.bandwidth_mbps, reverse=True)
        admission.best_effort_channels = [
            c.name for c in graph.channels if c.traffic_class == TrafficClass.BEST_EFFORT
        ]

        allocated: List[Any] = []
        if self.allocator is not None:
            try:
                for channel in gt_channels:
                    src = mapping.position_of(channel.src)
                    dst = mapping.position_of(channel.dst)
                    allocation = self.allocator.allocate(
                        f"{graph.name}:{channel.name}",
                        src,
                        dst,
                        channel.bandwidth_mbps,
                        self.network_frequency_hz,
                    )
                    allocated.append(allocation)
            except AllocationError:
                for allocation in allocated:
                    self.allocator.release(allocation.channel_name)
                self.mapper.unmap(mapping)
                raise

        admission.allocations = allocated

        # One configuration command per router hop of every circuit; command
        # width is the kind's (10-bit lane command vs. slot-table write).
        commands_per_router: Dict[Position, int] = {}
        for allocation in allocated:
            for circuit in allocation.circuits:
                for hop in circuit.hops:
                    commands_per_router[hop.position] = commands_per_router.get(hop.position, 0) + 1
        admission.configuration_commands = sum(commands_per_router.values())
        if commands_per_router:
            admission.delivery = self.be_network.deliver(
                commands_per_router, admission.command_bits
            )

        if network is not None:
            for allocation in allocated:
                network.apply_allocation(allocation)

        self._admissions[graph.name] = admission
        return admission

    # -- traffic ----------------------------------------------------------------------------

    def attach_traffic(
        self,
        application: str,
        word_source: WordSource,
        load: float = 1.0,
        network: Optional[NocBase] = None,
    ) -> List[str]:
        """Attach the admitted application's paced GT word streams to a live network.

        For kinds with admission the streams ride the allocations made by
        :meth:`admit` (the network's routers are already programmed); packet
        switching attaches contention-based streams per mapped channel.
        Returns the created stream-registry names (recorded on the admission
        so :meth:`release` can detach them again).
        """
        admission = self.admission(application)
        network = self._resolve_network(network)
        if network is None:
            raise ConfigurationError("attaching traffic requires a live network")
        if admission.stream_names:
            raise ConfigurationError(
                f"application {application!r} already has traffic attached"
            )
        graph = admission.graph
        names: List[str] = []
        current: Optional[str] = None
        try:
            if self.allocator is not None:
                for allocation in admission.allocations:
                    if allocation.is_local or not allocation.circuits:
                        continue
                    current = allocation.channel_name
                    endpoints = network.attach_channel(
                        allocation.channel_name,
                        allocation.src,
                        allocation.dst,
                        allocation.bandwidth_mbps,
                        word_source,
                        load,
                        allocation=allocation,
                    )
                    names.extend(ep.name for ep in endpoints)
            else:
                if graph is None:
                    raise ConfigurationError(
                        f"admission of {application!r} has no process graph to attach"
                    )
                for channel in graph.channels:
                    if channel.traffic_class != TrafficClass.GUARANTEED_THROUGHPUT:
                        continue
                    src = admission.mapping.position_of(channel.src)
                    dst = admission.mapping.position_of(channel.dst)
                    if src == dst:
                        continue
                    current = f"{application}:{channel.name}"
                    endpoints = network.attach_channel(
                        current,
                        src,
                        dst,
                        channel.bandwidth_mbps,
                        word_source,
                        load,
                    )
                    names.extend(ep.name for ep in endpoints)
        except Exception:
            # Transactional: detach exactly the streams this call attached —
            # the recorded names plus any "name#i" partial of the channel
            # that failed mid-striping.  A *foreign* stream whose name
            # collided (the usual failure) is left alone.
            cleanup = set(names)
            if current is not None:
                cleanup.update(
                    stream_name
                    for stream_name in network.streams
                    if stream_name.startswith(f"{current}#")
                )
            for stream_name in cleanup:
                if stream_name in network.streams:
                    network.detach_stream(stream_name)
            raise
        admission.stream_names = names
        admission.word_source = word_source
        admission.load = load
        return names

    # -- release ----------------------------------------------------------------------------

    def release(
        self,
        application: str,
        network: Optional[NocBase] = None,
        drain_chunk_cycles: int = 64,
        max_drain_cycles: int = 4096,
    ) -> Dict[str, int]:
        """Tear an admitted application down (streams, configuration, resources, tiles).

        An application with attached traffic is stopped the way the hardware
        would stop it: injection halts first, the network then runs until the
        application's in-flight words have drained to their sinks (other
        applications keep running meanwhile), and only then are the streams
        detached, the routers deconfigured and the resources and tiles
        released.  Set ``drain_chunk_cycles=0`` to tear down immediately
        (in-flight words are lost; residual wire state may linger).

        Returns the final post-drain delivered-word count per detached
        stream, so churn accounting can credit the words that arrived during
        the drain.
        """
        network = self._resolve_network(network)
        admission = self.admission(application)
        if admission.stream_names and network is None:
            raise ConfigurationError(
                f"application {application!r} has live streams; release needs the network"
            )
        del self._admissions[application]
        final_counts: Dict[str, int] = {}
        if admission.stream_names:
            for name in admission.stream_names:
                network.halt_stream(name)
            if drain_chunk_cycles:
                # Delivery-stability drain, strided so the timed scheduler
                # can leap across the idle tail of each chunk.
                network.drain_streams(
                    admission.stream_names,
                    check_every=drain_chunk_cycles,
                    max_cycles=max_drain_cycles,
                )
            stats = network.stream_statistics()
            for name in admission.stream_names:
                final_counts[name] = stats[name]["received"]
                network.detach_stream(name)
            admission.stream_names = []
        for allocation in admission.allocations:
            if network is not None:
                network.remove_allocation(allocation)
            if self.allocator is not None:
                self.allocator.release(allocation.channel_name)
        self.mapper.unmap(admission.mapping)
        return final_counts

    # -- fault recovery ----------------------------------------------------------------------

    def affected_admissions(
        self,
        dead_links: Any = (),
        dead_routers: Any = (),
        network: Optional[NocBase] = None,
    ) -> List[str]:
        """Admitted applications whose resources touch the dead links/routers.

        An application is displaced when any of its mapped tiles sits on a
        dead router, when any allocated circuit's route crosses a dead link
        or router, or — for kinds without allocations (packet switching) —
        when the routing path between any GT channel's mapped endpoints
        traverses the dead resource.  For the packet case the *current*
        routing table is consulted, so call this **before** rebuilding
        routing after a fault (the :class:`~repro.noc.faults.FaultInjector`
        does exactly that).
        """
        network = self._resolve_network(network)
        dead_link_set = {_undirected(link) for link in dead_links}
        dead_router_set = set(dead_routers)
        routing = getattr(network, "routing", None) if network is not None else None

        affected: List[str] = []
        for name, admission in self._admissions.items():
            if self._admission_touches(
                admission, dead_link_set, dead_router_set, routing
            ):
                affected.append(name)
        return affected

    def _admission_touches(
        self, admission: ApplicationAdmission, dead_links, dead_routers, routing
    ) -> bool:
        for position in admission.mapping.placement.values():
            if position in dead_routers:
                return True
        for allocation in admission.allocations:
            for circuit in allocation.circuits:
                for position in circuit.route:
                    if position in dead_routers:
                        return True
                for a, b in zip(circuit.route, circuit.route[1:]):
                    if _undirected((a, b)) in dead_links:
                        return True
        if not admission.allocations and self.allocator is None:
            graph = admission.graph
            if routing is None or graph is None:
                return False
            for channel in graph.channels:
                if channel.traffic_class != TrafficClass.GUARANTEED_THROUGHPUT:
                    continue
                src = admission.mapping.position_of(channel.src)
                dst = admission.mapping.position_of(channel.dst)
                if src == dst:
                    continue
                path = routing.path_positions(src, dst)
                for position in path:
                    if position in dead_routers:
                        return True
                for a, b in zip(path, path[1:]):
                    if _undirected((a, b)) in dead_links:
                        return True
        return False

    def apply_degraded_topology(self, degraded: Topology) -> None:
        """Re-anchor every planning structure on the post-fault topology view.

        The live network keeps its construction-time component graph (dead
        wires are handled at the link level); what must follow the degraded
        view is the CCN's *planning* state: feasibility sizing, the tile
        grid (dead routers' tiles stop being mappable), the spatial mapper's
        distance metric and the best-effort configuration transport.
        """
        if not degraded.contains(self.be_network.ccn_position):
            raise FaultError(
                f"the CCN's own router at {self.be_network.ccn_position} is dead — "
                "system coordination is lost"
            )
        self.topology = degraded
        self.mesh = degraded
        # The grid re-lists its tiles (the dead routers' drop out); the mapper
        # reads tiles and hop counts through it.
        self.grid.topology = degraded
        self.be_network = BestEffortNetwork(degraded, self.be_network.ccn_position)

    def handle_fault(
        self,
        degraded: Topology,
        dead_links: Any = (),
        dead_routers: Any = (),
        affected: Optional[List[str]] = None,
        selector: Optional[Any] = None,
        network: Optional[NocBase] = None,
        drain_chunk_cycles: int = 64,
        max_drain_cycles: int = 4096,
    ) -> FaultRecovery:
        """Recover the admitted applications from a mid-run link/router fault.

        The run-time half of the paper's coordination story: the CCN
        identifies the admissions whose routes or mapped tiles touch the
        dead resource (*affected*, computed here when not supplied by the
        :class:`~repro.noc.faults.FaultInjector`), halts and drains their
        surviving traffic, releases the broken allocations transactionally
        (the admission controller's pools are invalidated on the dead links
        first, so nothing leaks and nothing re-routes over them), then
        re-maps and re-admits every displaced application on the degraded
        fabric — re-attaching its recorded word stream — and cleanly
        rejects the ones the survivors can no longer carry.  With a
        *selector* each rejection also records an advisory fallback fabric
        recommendation scored on the degraded topology.
        """
        network = self._resolve_network(network)
        dead_link_list = sorted({_undirected(link) for link in dead_links})
        dead_router_list = sorted(set(dead_routers))
        recovery = FaultRecovery(
            dead_links=list(dead_link_list), dead_routers=list(dead_router_list)
        )
        start_cycle = network.kernel.cycle if network is not None else 0

        if affected is None:
            affected = self.affected_admissions(
                dead_link_list, dead_router_list, network
            )
        recovery.displaced = list(affected)

        if self.allocator is not None:
            self.allocator.invalidate_resources(dead_link_list, dead_router_list)
        self.apply_degraded_topology(degraded)

        # Tear every displaced application down first (freeing tiles and
        # units), then re-admit in admission order — releasing everything up
        # front gives the re-mapper the whole surviving fabric to work with.
        plans: List[ApplicationAdmission] = []
        for name in affected:
            admission = self.admission(name)
            plans.append(admission)
            final = self.release(
                name,
                network=network,
                drain_chunk_cycles=drain_chunk_cycles,
                max_drain_cycles=max_drain_cycles,
            )
            recovery.final_stream_counts.update(final)

        for plan in plans:
            graph = plan.graph
            name = plan.application
            if graph is None:
                recovery.rejected.append(name)
                continue
            try:
                readmission = self.admit(graph, network=network)
                if plan.word_source is not None and network is not None:
                    self.attach_traffic(
                        name, plan.word_source, load=plan.load, network=network
                    )
            except (MappingError, AllocationError):
                # Roll back a half-done re-admission (admit succeeded but the
                # traffic re-attach failed) so the rejection leaves no state.
                if name in self._admissions:
                    self.release(name, network=network, drain_chunk_cycles=0)
                recovery.rejected.append(name)
                if selector is not None:
                    decision = selector.select(graph)
                    recovery.fallback_kinds[name] = decision.chosen_kind
            else:
                recovery.readmitted.append(name)
                recovery.reconfiguration_time_s += readmission.reconfiguration_time_s

        if network is not None:
            recovery.recovery_cycles = network.kernel.cycle - start_cycle
        return recovery

    # -- queries -----------------------------------------------------------------------------

    def leak_free(self, network: Optional[NocBase] = None) -> bool:
        """True when no run-time resources are held anywhere.

        The post-release invariant the lifecycle tests and benchmarks check:
        no admissions, every resource unit back in its pool, every tile
        unoccupied and (with a live network) no registered streams.
        """
        network = network if network is not None else self.network
        if self._admissions:
            return False
        if self.allocator is not None and self.allocator.link_utilization() != 0.0:
            return False
        if self.grid.occupancy() != 0.0:
            return False
        if network is not None and network.streams:
            return False
        return True

    @property
    def admitted_applications(self) -> List[str]:
        """Names of the currently admitted applications."""
        return list(self._admissions)

    def admission(self, application: str) -> ApplicationAdmission:
        """The admission record of *application*."""
        try:
            return self._admissions[application]
        except KeyError:
            raise MappingError(f"application {application!r} is not admitted") from None
