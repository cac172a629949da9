"""Topology-generic network fabric shared by every NoC kind.

:class:`~repro.noc.network.CircuitSwitchedNoC` and
:class:`~repro.noc.packet_network.PacketSwitchedNoC` assemble the same
skeleton — one router per topology position, one directed link per topology
edge, rx/tx bundles attached in pairs, routers registered with the simulation
kernel, a stream registry and the power/area/activity/energy reporting the
experiments read.  :class:`NocBase` owns that skeleton once; a concrete
network only decides *which* router and link to build and how delivered words
are counted.

The :func:`build_network` factory constructs either network kind on any
:class:`~repro.noc.topology.Topology` by name, which is what the topology
benchmarks and tests use to sweep mesh/torus/degraded fabrics without caring
about the concrete class.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type, TypeVar

from repro.common import ConfigurationError, ReproError
from repro.energy.activity import ActivityCounters
from repro.energy.power import PowerBreakdown
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.noc.topology import IrregularMesh, Position, Topology
from repro.noc.word_proxy import WordSourceRegistry
from repro.sim.engine import DEFAULT_SCHEDULE, SimulationKernel

__all__ = [
    "NocBase",
    "WordSource",
    "register_network_kind",
    "network_kinds",
    "resolve_network_kind",
    "build_network",
]

WordSource = Callable[[], int]


class NocBase:
    """A complete network on an arbitrary topology: routers, links, kernel.

    Subclasses implement :meth:`_build_router` / :meth:`_build_link` (the two
    construction decisions that differ between fabrics) and
    :meth:`_stream_received` (how delivery is observed); everything else —
    wiring, execution, statistics and the energy accounting of the mesh
    experiments — is shared here.
    """

    #: Human-readable fabric kind, e.g. ``"circuit_switched"``.
    kind: str = "abstract"
    #: Name under which :meth:`merged_activity` folds the router counters.
    activity_name: str = "network"
    #: True for kinds whose channels must be admitted before they can flow
    #: (lane circuits, slot schedules); False for contention-based fabrics.
    performs_admission: bool = False
    #: Bits of one configuration command written into a router of this kind
    #: (what the CCN ships over the best-effort network per circuit hop);
    #: 0 when the kind needs no per-connection configuration.
    config_command_bits: int = 0
    #: What one wire-level unit swallowed by a dead link is called for this
    #: kind (``"phit"`` / ``"flit"`` / ``"word"``) — the unit of
    #: :meth:`fault_drops`.
    fault_drop_unit: str = "word"
    #: The :class:`~repro.sim.datapath.FabricDatapath` class clocking this
    #: kind's routers, and its one instance (``None``: no router needs one).
    datapath_class: Optional[type] = None
    datapath: Optional[Any] = None

    def __init__(
        self,
        topology: Topology,
        frequency_hz: float,
        data_width: int,
        tech: Technology = TSMC_130NM_LVHP,
        schedule: str = DEFAULT_SCHEDULE,
        region: Optional[Iterable[Position]] = None,
    ) -> None:
        self.topology = topology
        #: Backwards-compatible alias; the attribute predates non-mesh fabrics.
        self.mesh = topology
        self.frequency_hz = frequency_hz
        self.data_width = data_width
        self.tech = tech
        #: Shard region (``None`` = the whole topology).  A region network
        #: physically builds only its own routers, but keeps the *full*
        #: topology for admission/routing decisions, so every shard of a
        #: deterministically replayed configuration sequence computes the
        #: identical allocations (:mod:`repro.sim.shard`).
        self.region: Optional[frozenset] = (
            frozenset(region) if region is not None else None
        )
        self.kernel = SimulationKernel(frequency_hz, schedule=schedule)

        self.routers: Dict[Position, Any] = {}
        for position in topology.positions():
            if self.region is None or position in self.region:
                self.routers[position] = self._build_router(position)

        # One directed link per topology edge; a region network materialises
        # every link with at least one local endpoint, so each cut link has a
        # mirror copy in both adjacent shards (the boundary-proxy pair).
        self.links: Dict[Tuple[Position, Position], Any] = {}
        for src, dst in topology.directed_links():
            if self.region is None or src in self.region or dst in self.region:
                self.links[(src, dst)] = self._build_link(src, dst)

        # Attach the links to the routers: the link (a -> b) is a's outgoing
        # bundle on the port towards b, and b's incoming bundle on the
        # opposite port.
        for position, router in self.routers.items():
            for port, neighbor in topology.neighbors(position).items():
                tx = self.links[(position, neighbor)]
                rx = self.links[(neighbor, position)]
                router.attach_link(port, rx, tx)

        # The datapath joins the kernel before any stream endpoint is adopted,
        # so the endpoints see the routers' committed state of the same cycle.
        self._register_with_kernel()

        self.streams: Dict[str, Any] = {}

        #: Shard-exact pull routing for word sources shared between
        #: channels (:mod:`repro.noc.word_proxy`).  Region networks only;
        #: a single-process network pulls its sources directly.
        self._word_registry: Optional[WordSourceRegistry] = (
            WordSourceRegistry(self.kernel) if self.region is not None else None
        )

        #: Undirected links killed at run time (:meth:`fail_link`).
        self.dead_links: set = set()
        #: Router positions killed at run time (:meth:`fail_router`).
        self.dead_routers: set = set()

    def is_local(self, position: Position) -> bool:
        """True when *position* lies in this network's shard region (or no region is set)."""
        return self.region is None or position in self.region

    def _register_with_kernel(self) -> None:
        """Register one :attr:`datapath_class` component, :attr:`datapath`,
        clocking every router; under ``schedule="vector"`` it also takes a
        vector plane where its kind has one.  Runs before any stream endpoint
        is adopted, so a circuit fabric's endpoints act after its routers in
        a cycle (:meth:`repro.core.router.LaneDatapath._place`).
        """
        self.datapath = self.datapath_class(f"{self.activity_name}_datapath", list(self.routers.values()))
        if self.kernel.schedule == "vector":
            self.datapath.use_plane()
        self.kernel.add(self.datapath)

    # -- construction hooks -----------------------------------------------------------

    def _build_router(self, position: Position) -> Any:
        """Create the router for *position* (registered and wired by the base)."""
        raise NotImplementedError

    def _build_link(self, src: Position, dst: Position) -> Any:
        """Create the directed link channel from *src* to *dst*."""
        raise NotImplementedError

    def _stream_received(self, endpoints: Any) -> int:
        """Words observed as delivered for one registered stream."""
        raise NotImplementedError

    def _stream_drained(self, endpoints: Any) -> bool:
        """True when provably no word of this stream is still in flight.

        Kind-specific conservation check used by :meth:`drain_streams` to
        finish a teardown drain the moment the fabric is empty, instead of
        waiting for a full silent polling stride.  The conservative default
        (``False``) falls back to delivery-stability polling; kinds with
        exact injection/delivery counters override it.
        """
        return False

    # -- admission ------------------------------------------------------------------------

    def _new_admission_controller(self) -> Any:
        """Create this network's admission controller (kinds that need one)."""
        raise ConfigurationError(
            f"{self.kind} network performs no admission control"
        )

    @classmethod
    def default_admission_controller(cls, topology: Topology) -> Any:
        """A fresh admission controller with this kind's default geometry.

        The class-level counterpart of :attr:`admission` — what an *external*
        resource manager (the CCN) uses to plan admissions for this kind
        without building a live network first.  ``None`` for kinds that
        perform no admission control (packet switching).
        """
        return None

    @property
    def admission(self) -> Any:
        """The network's own admission controller, created on first use.

        Circuit-switched networks hand out lanes
        (:class:`~repro.noc.path_allocation.LaneAllocator`), TDMA networks
        hand out aligned slots
        (:class:`~repro.noc.slot_table.SlotTableAllocator`); packet-switched
        networks need no admission and raise.  External controllers (the CCN)
        may still be used instead — this one exists so that kind-agnostic
        harnesses can admit channels without knowing the resource model.
        """
        controller = self.__dict__.get("_admission")
        if controller is None:
            controller = self._new_admission_controller()
            self._admission = controller
        return controller

    # -- configuration ------------------------------------------------------------------

    def apply_allocation(self, allocation: Any) -> None:
        """Program one channel allocation into the routers (no-op by default).

        Kinds with admission (lane circuits, slot schedules) override this;
        contention-based kinds have nothing to configure.
        """

    def remove_allocation(self, allocation: Any) -> None:
        """Erase one channel allocation from the routers again (no-op by default)."""

    # -- traffic ------------------------------------------------------------------------

    def attach_channel(
        self,
        name: str,
        src: Position,
        dst: Position,
        bandwidth_mbps: float,
        word_source: "WordSource",
        load: float = 1.0,
        allocation: Any = None,
    ) -> Any:
        """Admit one guaranteed-throughput channel and attach its word stream.

        The kind-agnostic entry point of the experiments harness: every
        network kind performs whatever admission/configuration it needs
        (lane circuits, slot schedules, or nothing at all for packet
        switching) and registers a paced stream from the tile at *src* to
        the tile at *dst*.

        When *allocation* is given the caller (the CCN) has already admitted
        the channel and programmed the routers; only the paced stream
        endpoints are attached then.
        """
        raise NotImplementedError

    def _register_stream_source(
        self,
        name: str,
        word_source: "WordSource",
        local: bool,
        model_factory: Callable[[], Any],
    ) -> "WordSource":
        """Route one stream's word source through the shard pull registry.

        Every ``add_stream`` of a kind calls this exactly once per stream,
        in the replicated configuration order, flagging whether the
        stream's driver is local to this shard; *model_factory* builds the
        kind's exact remote pull model (only invoked when remote).  On a
        single-process network this is the identity — the driver pulls the
        source directly.
        """
        registry = self._word_registry
        if registry is None:
            return word_source
        model = None if local else model_factory()
        return registry.register(name, word_source, local, model)

    def _deactivate_stream_source(self, name: str) -> None:
        """Tell the pull registry this stream's driver left the kernel."""
        registry = self._word_registry
        if registry is not None:
            registry.deactivate(name, self.kernel.cycle)

    def _adopt_driver(self, endpoint: Any) -> Any:
        """Hand a tile stream endpoint record to the datapath clocking its
        router; returns what the stream's endpoints record."""
        return endpoint.router.datapath.adopt(endpoint)

    #: The same for a stream's sink (a test reference NoC tells the two apart).
    _adopt_sink = _adopt_driver

    def _remove_component(self, endpoint: Any) -> None:
        """Take one stream endpoint record off the datapath that runs it
        (tolerates absence).

        Halting a stream releases its source driver early; the later full
        detach must not trip over the already-released record.
        """
        if endpoint is not None:
            endpoint.router.datapath.release(endpoint)

    def _detach_stream_components(self, endpoints: Any) -> None:
        """Release one stream's driver and sink records."""
        raise NotImplementedError

    def halt_stream(self, name: str) -> None:
        """Stop one stream's injection (its source driver leaves the
        datapath that fires it).

        The first phase of a clean run-time teardown: the application stops
        producing, but the sink endpoints stay attached so words already in
        the fabric can drain before :meth:`detach_stream` removes the rest
        and the configuration is torn down.
        """
        try:
            endpoints = self.streams[name]
        except KeyError:
            raise ConfigurationError(f"no stream named {name!r}") from None
        self._remove_component(getattr(endpoints, "source", None))
        self._deactivate_stream_source(name)

    def detach_stream(self, name: str) -> Any:
        """Remove one registered stream's endpoints from the network.

        The run-time counterpart of stream attachment: the departing
        application's drivers and sinks leave their datapath (their names
        become reusable), while routers, links and
        any admitted configuration stay untouched — tearing those down is
        :meth:`remove_allocation` / :meth:`detach_channel` territory.
        Returns the removed endpoints record.
        """
        try:
            endpoints = self.streams.pop(name)
        except KeyError:
            raise ConfigurationError(f"no stream named {name!r}") from None
        self._detach_stream_components(endpoints)
        self._deactivate_stream_source(name)
        return endpoints

    def detach_channel(self, name: str, drain_cycles: int = 0) -> None:
        """Tear one :meth:`attach_channel` channel fully down again.

        Removes every stream the channel registered (a lane-striped channel
        registers ``name#i`` per lane circuit), erases the router
        configuration and releases the admitted resources — the inverse of
        :meth:`attach_channel` for channels admitted through the network's
        own controller.  A non-zero *drain_cycles* halts injection first and
        runs the network that long so in-flight words reach their sinks
        before the configuration disappears under them (the CCN's
        :meth:`~repro.noc.ccn.CentralCoordinationNode.release` drains
        adaptively instead).
        """
        stream_names = [
            n for n in self.streams if n == name or n.startswith(f"{name}#")
        ]
        if not stream_names:
            raise ConfigurationError(f"no stream named {name!r}")
        if drain_cycles:
            for stream_name in stream_names:
                self.halt_stream(stream_name)
            self.run(drain_cycles)
        for stream_name in stream_names:
            self.detach_stream(stream_name)
        if self.performs_admission:
            allocation = self.admission.allocation(name)
            self.remove_allocation(allocation)
            self.admission.release(name)

    def drain_streams(
        self,
        names: List[str],
        check_every: int = 64,
        max_cycles: int = 4096,
    ) -> None:
        """Run until the named streams stop delivering new words.

        The drain of a clean teardown: injection must already be halted
        (:meth:`halt_stream`); the network then runs in *check_every*-cycle
        strides until the streams are provably empty.  Each check first
        applies the kind's exact conservation predicate
        (:meth:`_stream_drained`: every injected word reached its sink), so
        a clean drain ends at the first stride where the fabric is empty.
        Streams whose words can never arrive — a fault broke the path —
        fall back to delivery-stability polling: one full stride delivering
        nothing new on any named stream.  Built on
        :meth:`SimulationKernel.run_until` with the same stride, so the
        optimised schedulers leap across the idle tail of each stride
        instead of single-stepping it.  Gives up silently after
        *max_cycles* (a bounded teardown deadline, not an error).
        """
        if not names:
            return
        start = self.kernel.cycle
        previous: Optional[List[int]] = None

        def settled(cycle: int) -> bool:
            nonlocal previous
            if cycle - start >= max_cycles:
                return True  # drain deadline: teardown proceeds regardless
            streams = self.streams
            if all(
                name in streams and self._stream_drained(streams[name])
                for name in names
            ):
                return True  # exact: conservation holds, nothing in flight
            stats = self.stream_statistics()
            current = [stats[name]["received"] for name in names]
            if current == previous:
                return True
            previous = current
            return False

        # The deadline is part of the predicate, so run_until never raises
        # for it — a SimulationError out of here is a real kernel error
        # (an empty kernel) and must stay loud.
        self.kernel.run_until(
            settled, max_cycles=max_cycles + check_every, check_every=check_every
        )

    # -- faults -----------------------------------------------------------------------------

    def fail_link(self, a: Position, b: Position) -> int:
        """Kill the bidirectional link between *a* and *b* at the wire level.

        Both directed wire bundles fall dead: in-flight payload is dropped
        (and counted on the links), and every future drive is swallowed.
        Returns the number of wire-level units (:attr:`fault_drop_unit`)
        that were in flight.  Pure wire surgery — deriving the degraded
        topology view and rebuilding routing is
        :class:`repro.noc.faults.FaultInjector` territory.  Between two runs
        the wires hold what ``strict`` leaves in them, so the count is exact
        under every schedule.
        """
        if (a, b) not in self.links and (b, a) not in self.links:
            if self.region is None:
                raise ConfigurationError(f"no link between {a} and {b}")
            # A shard without a local copy still records the fault so its
            # degraded-topology view matches every other shard's.
            self.dead_links.add((a, b) if a <= b else (b, a))
            return 0
        dropped = 0
        for key in ((a, b), (b, a)):
            link = self.links.get(key)
            if link is not None:
                lost = link.fail()
                # Cut links exist as mirror copies in both adjacent shards
                # and both mirrors hold the same in-flight state; counting
                # only the copy whose driver is local keeps the network-wide
                # drop total exact (full networks own every driver).
                if key[0] in self.routers:
                    dropped += lost
        self.dead_links.add((a, b) if a <= b else (b, a))
        return dropped

    def fail_router(self, position: Position) -> int:
        """Kill the router at *position*: every incident link dies with it.

        The dead router keeps its clock (an un-gated dead macro still burns
        idle power) but can no longer exchange words with any neighbour —
        residual state drains onto its dead links and is counted there.
        Returns the in-flight wire units lost on the incident links.
        """
        if position not in self.routers and self.region is None:
            raise ConfigurationError(f"no router at position {position}")
        dropped = 0
        for (src, dst), link in self.links.items():
            if position in (src, dst):
                lost = link.fail()
                if src in self.routers:
                    dropped += lost
                self.dead_links.add((src, dst) if src <= dst else (dst, src))
        self.dead_routers.add(position)
        return dropped

    def degraded_topology(self) -> Topology:
        """The construction topology minus every run-time-killed resource.

        Folds run-time faults into any static :class:`IrregularMesh`
        decoration the network was built with, so the view stays a single
        decorator over the original base.  Raises the topology layer's
        ``ValueError`` when the survivors are disconnected — the
        :class:`~repro.noc.faults.FaultInjector` pre-validates and converts
        that into a :class:`~repro.common.FaultError` naming the cut.
        """
        if not self.dead_links and not self.dead_routers:
            return self.topology
        base = self.topology
        broken_links = set(self.dead_links)
        broken_routers = set(self.dead_routers)
        if isinstance(base, IrregularMesh):
            broken_links |= set(base.broken_links)
            broken_routers |= set(base.broken_routers)
            base = base.base
        return IrregularMesh(
            base, tuple(sorted(broken_links)), tuple(sorted(broken_routers))
        )

    def refresh_routing(self, degraded: Topology) -> None:
        """Re-derive any routing state from the *degraded* topology view.

        No-op by default: circuit and TDMA fabrics route at admission time,
        so only source-routed state held by the network itself (the packet
        fabric's routing table) needs refreshing after a fault.
        """

    def fault_drops(self) -> int:
        """Wire-level units swallowed by dead links (:attr:`fault_drop_unit`).

        Counted on the directed copies whose driving router is local, so the
        per-shard totals of a sharded run add up to the single-network figure
        (a cut link's mirror copy would otherwise be counted twice).
        """
        return sum(
            getattr(link, "dropped", 0)
            for key, link in self.links.items()
            if key[0] in self.routers
        )

    # -- access ---------------------------------------------------------------------------

    def router_at(self, position: Position) -> Any:
        """The router at *position*."""
        try:
            return self.routers[position]
        except KeyError:
            raise ConfigurationError(f"no router at position {position}") from None

    def link(self, src: Position, dst: Position) -> Any:
        """The directed channel from *src* to *dst*."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise ConfigurationError(f"no link from {src} to {dst}") from None

    # -- execution ------------------------------------------------------------------------

    def run(self, cycles: int) -> int:
        """Advance the whole network by *cycles* clock cycles."""
        return self.kernel.run(cycles)

    def run_for_time(self, seconds: float) -> int:
        """Advance the whole network by *seconds* of simulated time."""
        return self.kernel.run_for_time(seconds)

    # -- reporting --------------------------------------------------------------------------

    def schedule_report(self) -> Dict[str, Any]:
        """Which schedule was requested, which one runs the routers right
        now, and why.

        ``effective`` differs from ``requested`` only under
        ``schedule="vector"``: without a plane (``reason`` names why: the
        kind has none, clock gating, a lane packet wider than an ``int64``
        column, NumPy missing) ``effective`` reads ``"event"`` — the
        leaping clock without a plane, under a name kept from the retired
        event schedule until ROADMAP item 8's report — and so it does
        while the plane's live routes, as counted after the last cycle that
        followed a configuration write, sit below its gate — in particular
        before the first cycle.  A plane that crossed the gate during the
        run shows in both cycle counts: ``batched_cycles`` it executed in
        its columns, ``scalar_cycles`` the routers ran their own programs.
        ``live_routes`` is the gate's input, the plane's count of configured
        route-hops (``None`` without a plane and before its first swept cycle).
        """
        requested = self.kernel.schedule
        report: Dict[str, Any] = {
            "requested": requested,
            "effective": requested,
            "reason": None,
            "batched_cycles": self.kernel.scheduler_stats.vector_batches,
            "scalar_cycles": 0,
            "live_routes": None,
        }
        datapath = self.datapath
        if datapath is not None and datapath.plane is not None:
            report["scalar_cycles"] = datapath.scalar_cycles
            report["live_routes"] = datapath.live_routes
            report["reason"] = datapath.gate_reason()
        elif requested == "vector":
            refusal = datapath.plane_refusal if datapath is not None else None
            report["reason"] = refusal or f"the {self.kind} kind has no vector plane"
        if report["reason"] is not None:
            report["effective"] = "event"
        return report

    def stream_statistics(self) -> Dict[str, Dict[str, int]]:
        """Words sent / received per registered stream."""
        return {
            name: {"sent": ep.words_sent, "received": self._stream_received(ep)}
            for name, ep in self.streams.items()
        }

    def total_power(self, frequency_hz: Optional[float] = None) -> PowerBreakdown:
        """Aggregate power of all routers (links and tiles excluded, as in the paper)."""
        frequency = frequency_hz if frequency_hz is not None else self.frequency_hz
        return PowerBreakdown.total_of(
            router.power(frequency) for router in self.routers.values()
        )

    def router_power(self, position: Position, frequency_hz: Optional[float] = None) -> PowerBreakdown:
        """Power of the single router at *position*."""
        frequency = frequency_hz if frequency_hz is not None else self.frequency_hz
        return self.router_at(position).power(frequency)

    def merged_activity(self) -> ActivityCounters:
        """Activity counters of all routers folded together."""
        return ActivityCounters.merged(
            (router.activity for router in self.routers.values()), name=self.activity_name
        )

    def snapshot(self) -> Dict[str, Any]:
        """What every schedule, gate side and shard layout must leave alike, JSON-encodable:
        the cycle, per-router activity and cycles keyed ``"x,y"``, stream statistics, fault
        drops and energy per bit (not per-router power, a pure function of the activity)."""
        return {
            "cycle": self.kernel.cycle,
            "routers": {f"{x},{y}": activity for (x, y), activity in self._router_activity()},
            "streams": self.stream_statistics(),
            "fault_drops": self.fault_drops(),
            "energy_pj_per_bit": self.energy_per_delivered_bit_pj(),
        }

    def _router_activity(self) -> Iterable[Tuple[Position, List[Any]]]:
        """``(position, [counters, cycles])`` per router, for :meth:`snapshot`."""
        return ((p, [r.activity.as_dict(), r.activity.cycles]) for p, r in self.routers.items())

    def total_area_mm2(self) -> float:
        """Total router area of the network (Table 4 per-router area × routers)."""
        return sum(router.total_area_mm2 for router in self.routers.values())

    def energy_per_delivered_bit_pj(self, frequency_hz: Optional[float] = None) -> float:
        """Average network energy per delivered payload bit (mesh experiments)."""
        frequency = frequency_hz if frequency_hz is not None else self.frequency_hz
        delivered_bits = sum(
            self._stream_received(ep) for ep in self.streams.values()
        ) * self.data_width
        if delivered_bits == 0:
            return float("inf")
        duration_s = self.kernel.cycle / frequency
        power = self.total_power(frequency)
        return power.total_uw * duration_s * 1e6 / delivered_bits


# ---------------------------------------------------------------------------
# Factory registry
# ---------------------------------------------------------------------------

_NETWORK_KINDS: Dict[str, Type[NocBase]] = {}

N = TypeVar("N", bound=Type[NocBase])


def register_network_kind(*names: str) -> Callable[[N], N]:
    """Class decorator registering a network under one or more kind names."""

    def decorator(cls: N) -> N:
        for name in names:
            _NETWORK_KINDS[name.lower()] = cls
        return cls

    return decorator


def _ensure_registered() -> None:
    # The concrete networks register themselves at import time; importing
    # them lazily here keeps fabric <- network dependencies one-directional.
    import repro.noc.network  # noqa: F401
    import repro.noc.packet_network  # noqa: F401
    import repro.noc.gt_network  # noqa: F401


def network_kinds() -> List[str]:
    """All registered kind names, sorted (aliases included)."""
    _ensure_registered()
    return sorted(_NETWORK_KINDS)


def resolve_network_kind(kind: str) -> Type[NocBase]:
    """The network class registered under *kind* (accepting every alias)."""
    _ensure_registered()
    try:
        return _NETWORK_KINDS[kind.lower()]
    except KeyError:
        raise ReproError(
            f"unknown network kind {kind!r}; available: {', '.join(sorted(_NETWORK_KINDS))}"
        ) from None


def build_network(kind: str, topology: Topology, **params: Any) -> Any:
    """Construct a network of *kind* on *topology*.

    ``kind`` accepts the canonical names and the short aliases used by
    :func:`repro.experiments.harness.run_scenario` (``circuit``/``cs``,
    ``packet``/``ps``, ``gt``/``aethereal``/``tdma``);
    ``params`` are forwarded to the network constructor.

    ``shards=N`` (with an optional ``partition_mode`` and ``transport``)
    builds the same network partitioned over *N* worker processes instead
    — a :class:`repro.sim.shard.ShardedNetwork` mirroring this reporting
    surface, bit-identical to the single-process network.
    ``transport="auto"`` exchanges boundary frames through shared-memory
    rings where supported, falling back to the parent-routed pipes.
    """
    shards = params.pop("shards", None)
    if shards is not None and shards > 1:
        from repro.sim.shard import ShardedNetwork

        partition_mode = params.pop("partition_mode", "auto")
        transport = params.pop("transport", "auto")
        return ShardedNetwork(
            kind,
            topology,
            shards=shards,
            partition_mode=partition_mode,
            transport=transport,
            **params,
        )
    params.pop("partition_mode", None)
    params.pop("transport", None)
    return resolve_network_kind(kind)(topology, **params)
