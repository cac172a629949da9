"""The reconfigurable circuit-switched router (Section 5, Fig. 4).

The router consists of the three major parts the paper names:

* the **data converter** between the 16-bit tile interface and the 4-bit
  lanes (:mod:`repro.core.data_converter`),
* the **crossbar** with registered output lanes (:mod:`repro.core.crossbar`),
* the **crossbar configuration** memory written through a small interface
  attached to the best-effort network (:mod:`repro.core.config_memory`,
  :mod:`repro.core.configuration`).

A router's cycle is one compiled *route program*.  Per configuration version
(and after a relink) the router compiles the crossbar's active routes and
acknowledge fan-ins, together with the attached links, into flat records:
what each routed output register and each acknowledge register samples,
which wire each of them drives, and which data-converter lanes a route
touches.  ``evaluate`` runs the sampling records into the crossbar's
next-state lists; ``commit`` latches the routed registers, counts their
toggles and drives the wires of the ones that changed, then books the
constant register bits and steps the data converter, which ticks only its
live lanes — exactly one cycle of latency per hop, as in the hardware.  The
first commit of every version is the dense sweep
(:meth:`repro.core.crossbar.Crossbar.commit` plus a drive of every attached
wire), which flushes lanes a reconfiguration stranded; after it only routed
registers can change.

The router is no kernel component.  One :class:`LaneDatapath` clocks every
router of a fabric, a shard region or a single-router bench, and runs the
stream endpoints feeding them: it walks the programs of the routers that can
move and parks the others, booking their constant per-cycle register bits in
one step when they move again or at ``sync``.  A wire change, a tile
``send`` / ``receive`` or a converter ``configure_*`` marks its router active
inside the datapath.  Under ``schedule="vector"`` the fabric also gives the
datapath a batch mode (:mod:`repro.sim.vector`) it enters from its
live-route gate up.  A configuration write or a relink inside a cycle raises
:class:`~repro.common.SimulationError`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common import ConfigurationError, Port, SimulationError, bit_mask
from repro.core.config_memory import ConfigurationMemory, LaneConfig
from repro.core.configuration import ConfigurationCommand
from repro.core.crossbar import Crossbar
from repro.core.data_converter import DataConverter, LaneSerializer, TileInterface
from repro.core.lane import LaneLink
from repro.energy.activity import (
    LINK_TOGGLE_BITS, REG_CLOCKED_BITS, REG_GATED_BITS, REG_TOGGLE_BITS, XBAR_TOGGLE_BITS,
    ActivityCounters, ActivityKeys,
)
from repro.energy.area import CircuitSwitchedRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.energy.timing import CircuitSwitchedTiming
from repro.sim.datapath import DatapathMember, FabricDatapath

__all__ = ["CircuitSwitchedRouter", "LaneDatapath"]

#: What :attr:`LaneDatapath._walk` holds outside its evaluate-to-commit span.
_NOT_WALKING: frozenset = frozenset()


class CircuitSwitchedRouter(DatapathMember):
    """Bit- and cycle-accurate model of the paper's circuit-switched router.

    Parameters
    ----------
    name:
        Unique component name (e.g. ``"router_1_2"``).
    lanes_per_port / lane_width / data_width:
        Design parameters of Section 5.1; defaults are the published design
        point (four 4-bit lanes per link direction, 16-bit tile interface).
    position:
        Mesh coordinates of the router (used by the network substrate).
    clock_gating:
        Enables the lane-level clock gating the paper proposes as future work
        (Section 7.3); inactive lanes then stop contributing to the
        data-independent power offset.
    tech:
        Technology node used for the attached area/power models.
    """

    NUM_PORTS = 5

    def __init__(
        self,
        name: str,
        lanes_per_port: int = 4,
        lane_width: int = 4,
        data_width: int = 16,
        position: Tuple[int, int] = (0, 0),
        clock_gating: bool = False,
        tech: Technology = TSMC_130NM_LVHP,
    ) -> None:
        self.name = name
        self.lanes_per_port = lanes_per_port
        self.lane_width = lane_width
        self._lane_mask = bit_mask(lane_width)
        self.data_width = data_width
        self.position = position
        self.clock_gating = clock_gating
        self.tech = tech

        self.activity = ActivityCounters(name)
        self.config = ConfigurationMemory(self.NUM_PORTS, lanes_per_port)
        self.crossbar = Crossbar(self.config, lane_width, self.activity, f"{name}.crossbar")
        self.converter = DataConverter(
            lanes_per_port, lane_width, data_width, activity=self.activity
        )
        self.area_model = CircuitSwitchedRouterArea(
            self.NUM_PORTS, lanes_per_port, lane_width, data_width, tech
        )
        self.timing_model = CircuitSwitchedTiming(
            self.NUM_PORTS, lanes_per_port, lane_width, tech
        )

        # Flat per-lane working state, indexed by port * lanes_per_port + lane.
        total = self.NUM_PORTS * lanes_per_port
        self._total_lanes = total
        #: Last value driven onto each outgoing forward wire; link toggles
        #: count against it.
        self._tx_previous: list[int] = [0] * total
        # The attached links by port number (None at the tile port and at a
        # mesh edge).
        self._rx_by_port: List[Optional[LaneLink]] = [None] * self.NUM_PORTS
        self._tx_by_port: List[Optional[LaneLink]] = [None] * self.NUM_PORTS
        # The crossbar's registers and next-state lists, which the route
        # program reads and writes in place.
        self._out_data = self.crossbar.committed_data
        self._ack_out = self.crossbar.committed_acks
        self._next_data = self.crossbar.next_data
        self._next_acks = self.crossbar.next_acks

        # The route program (see _compile), which the datapath walks.  The
        # sampling records: (output, serialiser), (output, rx forward wires,
        # lane); (input, deserialiser), (input, tx ack wires, lane) and
        # (input, deserialisers, (wires, lane) pairs) for an OR of several;
        # then the next-state lists they write.
        self._sample: tuple = ((), (), (), (), (), self._next_data, self._next_acks)
        # The latch: (register, the link it drives or None, lane) per routed
        # output and per latched acknowledge register, then what a commit
        # reads and books (_compile).
        self._latch: tuple = ()
        # Park records: the serialiser-fed outputs, and (input, (tx ack
        # wires, lane) pairs) of the fan-ins a commit may leave off their
        # inputs' fixed point (LaneDatapath.frozen).
        self._eval_tile: List[Tuple[int, LaneSerializer]] = []
        self._park_ack: List[Tuple[int, tuple]] = []
        #: The last commit latched a changed register bit.
        self._latched = True

    # -- wiring -------------------------------------------------------------------

    @property
    def tile(self) -> TileInterface:
        """The word-level tile interface of this router."""
        return self.converter.interface

    def _check_link(self, link: LaneLink) -> None:
        if link.num_lanes != self.lanes_per_port or link.lane_width != self.lane_width:
            raise ConfigurationError(
                f"link {link.name!r} geometry ({link.num_lanes}x{link.lane_width}) does "
                f"not match router {self.name!r} ({self.lanes_per_port}x{self.lane_width})"
            )

    # -- configuration ---------------------------------------------------------------

    def configure(self, out_port: Port, out_lane: int, in_port: Port, in_lane: int) -> None:
        """Connect ``in_port.in_lane`` to ``out_port.out_lane`` (direct CCN access)."""
        self._configuring()
        self.config.set_entry(out_port, out_lane, LaneConfig(True, Port(in_port), in_lane))
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def deconfigure(self, out_port: Port, out_lane: int) -> None:
        """Tear down the circuit using ``out_port.out_lane``."""
        self._configuring()
        self.config.set_entry(out_port, out_lane, None)
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def apply_command(self, command: ConfigurationCommand) -> None:
        """Apply a 10-bit configuration command received over the BE network."""
        self._configuring()
        command.apply(self.config)
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def _configuring(self) -> None:
        """Refuse a configuration write inside a cycle; before one, the
        datapath books this router's idle cycles under the old configuration."""
        datapath = self.datapath
        if datapath is not None:
            datapath.refuse_inside_cycle(f"configuration of router {self.name!r} written")
            datapath.mark(self)

    def active_circuits(self) -> int:
        """Number of active output lanes (concurrent streams through the router)."""
        return self.config.active_lane_count()

    # -- simulation ---------------------------------------------------------------------

    def _compile(self) -> None:
        """Compile the route program of the current configuration version.

        A routed output register samples a serialiser's phit, a forward wire
        or — behind an unattached port — the idle value, pinned here once; an
        acknowledge register ORs what is behind the outputs its input feeds.
        The routed registers latch, and the fan-in acknowledge registers —
        under clock gating those of the same *index* as a routed output
        instead (see :meth:`repro.core.crossbar.Crossbar.commit`).  Every
        other register holds what the sweep left in it.
        """
        crossbar = self.crossbar
        routes = crossbar.active_routes()
        fanins = crossbar.ack_fanins()
        lanes = self.lanes_per_port
        serializers = self.converter.serializers
        deserializers = self.converter.deserializers
        rx_of = self._rx_by_port
        tx_of = self._tx_by_port
        gated = self.clock_gating
        eval_tile = []
        eval_rx = []
        latch_data = []
        tx_lanes = []
        rx_lanes = []
        for out_idx, src_idx in routes:
            port, lane = divmod(src_idx, lanes)
            if not port:
                eval_tile.append((out_idx, serializers[lane]))
                tx_lanes.append(lane)
            elif rx_of[port] is not None:
                eval_rx.append((out_idx, rx_of[port].forward, lane))
            else:
                self._next_data[out_idx] = 0
            port, lane = divmod(out_idx, lanes)
            latch_data.append((out_idx, tx_of[port], lane))
            if not port:
                rx_lanes.append(lane)
        if gated:
            fed = {in_idx for in_idx, _outs in fanins}
            latched = [out_idx for out_idx, _src in routes if out_idx in fed]
        else:
            latched = [in_idx for in_idx, _outs in fanins]
        ack_tile = []
        ack_wire = []
        ack_any = []
        park_ack = []
        for in_idx, outs in fanins:
            pulses = []
            wires = []
            for out_idx in outs:
                port, lane = divmod(out_idx, lanes)
                if not port:
                    pulses.append(deserializers[lane])
                elif tx_of[port] is not None:
                    wires.append((tx_of[port].ack, lane))
            if len(pulses) + len(wires) > 1:
                ack_any.append((in_idx, tuple(pulses), tuple(wires)))
            elif pulses:
                ack_tile.append((in_idx, pulses[0]))
            elif wires:
                ack_wire.append((in_idx, *wires[0]))
            else:
                self._next_acks[in_idx] = False
            if pulses or (gated and in_idx not in latched):
                park_ack.append((in_idx, tuple(wires)))
        self._eval_tile = eval_tile
        self._park_ack = park_ack
        self._sample = (eval_tile, eval_rx, ack_tile, ack_wire, ack_any, self._next_data, self._next_acks)
        clocked_bits, gated_bits = crossbar.idle_cycle_bits(gated)
        self._latch = (
            latch_data, [(idx, rx_of[idx // lanes], idx % lanes) for idx in latched],
            self._out_data, self._next_data, self._ack_out, self._next_acks, self._tx_previous,
            self._lane_mask, self.activity.slots, clocked_bits, gated_bits, self.converter.tick, gated,
        )
        # The converter units whose inputs may be non-idle: tile lanes a
        # route starts or ends at, the tile lanes of the acknowledge
        # registers that latch and — under clock gating — those whose held
        # register is not idle.
        tx_lanes += [idx for idx in latched if idx < lanes]
        if gated:
            tx_lanes += [lane for lane in range(lanes) if self._ack_out[lane]]
            rx_lanes += [lane for lane in range(lanes) if self._out_data[lane]]
        self.converter.route_lanes(tx_lanes, rx_lanes)

    def _sweep(self, cycle: int) -> None:
        """The commit after a compile (a new configuration version, a relink,
        a fault, :meth:`reset`): latch every register and drive every
        attached wire, flushing lanes the configuration no longer drives."""
        self._latched = self.crossbar.commit(self.clock_gating)
        out_data = self._out_data
        ack_out = self._ack_out
        self.converter.tick(out_data, ack_out, cycle, self.clock_gating)
        lanes_per_port = self.lanes_per_port
        previous = self._tx_previous
        link_toggles = 0
        mask = self._lane_mask
        for port, tx_link in enumerate(self._tx_by_port):
            if tx_link is None:
                continue
            for lane in range(lanes_per_port):
                idx = port * lanes_per_port + lane
                value = out_data[idx]
                if value != previous[idx]:
                    link_toggles += ((previous[idx] ^ value) & mask).bit_count()
                    previous[idx] = value
                    tx_link.drive_forward(lane, value)
        if link_toggles:
            self.activity.slots[LINK_TOGGLE_BITS] += link_toggles
        for port, rx_link in enumerate(self._rx_by_port):
            if rx_link is None:
                continue
            link_ack = rx_link.ack
            for lane in range(lanes_per_port):
                value = ack_out[port * lanes_per_port + lane]
                if link_ack[lane] != value:
                    rx_link.drive_ack(lane, value)

    def reset(self) -> None:
        self.crossbar.reset()
        self.converter.reset()
        self.activity.reset()
        self._latched = True
        for idx in range(self._total_lanes):
            self._tx_previous[idx] = 0
        # Drive the attached wires back to idle.  The commit loop only
        # drives lanes whose register value changed, so a stale wire value
        # would otherwise survive a reset forever (the change-mirror
        # _tx_previous was just zeroed along with the registers).
        for tx_link, rx_link in zip(self._tx_by_port, self._rx_by_port):
            for lane in range(self.lanes_per_port):
                if tx_link is not None:
                    tx_link.drive_forward(lane, 0)
                if rx_link is not None:
                    rx_link.drive_ack(lane, False)

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


class _MemberWireWatch:
    """What a change on a wire between two routers of a :class:`LaneDatapath`
    calls: a mark of the router that sees it, or the fault dispatch once the
    wire died."""

    __slots__ = ("datapath", "wire", "router")

    def __init__(self, datapath: "LaneDatapath", wire: LaneLink, router: CircuitSwitchedRouter) -> None:
        self.datapath, self.wire, self.router = datapath, wire, router

    def __call__(self) -> None:
        if self.wire.dead:
            self.datapath._member_wire_marked()
        else:
            self.datapath.mark(self.router)


class LaneDatapath(FabricDatapath):
    """Clocks a set of :class:`CircuitSwitchedRouter` objects as one component.

    A cycle walks the route programs of the routers that can move, in
    :attr:`_next`: all of them evaluate, then all of them commit.  A router
    whose commit leaves it frozen (:meth:`frozen`) is parked in
    :attr:`_parked` with the first cycle whose constant register bits it
    owes; a mark (:meth:`mark`) books them and puts it back on the walk, in
    the cycle in flight when it comes during the evaluate phase (with the
    next state it sampled last, which nothing has changed since) and in the
    next one otherwise, and ``sync`` books them for every parked router
    (:meth:`settle`).  A wire between two routers marks its reader on a
    forward change and its writer on an acknowledge change, and checks for a
    fault; a wire to the outside marks its router, as do the tile interfaces
    and configuration writes.

    With a :attr:`plane` (:meth:`use_plane`), the commit that sweeps a new
    configuration version — the first cycle, and the one after a fault or
    relink that released the plane — counts the live routes
    (:attr:`live_routes`) and, from :data:`repro.sim.vector.MIN_BATCH_ROUTES`
    up, compiles the plane: from the next cycle every router is parked and
    the plane runs its busy cycles, the marks landing in its dirty list.  A
    configuration write or a dead wire between two routers releases it: its
    columns go back into the routers, which all walk the next cycle.

    The stream endpoints it adopted run inside its cycle (:meth:`adopt`).
    """

    wire_watchers = ("watch_forward", "watch_ack")

    def __init__(self, name: str, routers: Sequence[CircuitSwitchedRouter]) -> None:
        super().__init__(name, routers)
        #: Routers to walk in the next cycle, and the ones walked in the cycle
        #: in flight, from this datapath's evaluate to the end of its commit
        #: (insertion-ordered sets).
        self._next: Dict[CircuitSwitchedRouter, None] = {}
        self._walk: Dict[CircuitSwitchedRouter, None] = _NOT_WALKING
        #: Routers whose program compiles at the next evaluate (a new
        #: configuration version, a relink, a fault, a reset), and the ones
        #: whose commit in the cycle in flight is the sweep that follows.
        self._stale: Dict[CircuitSwitchedRouter, None] = {}
        self._sweeps: Dict[CircuitSwitchedRouter, None] = {}
        #: Parked router -> the first cycle whose idle register bits it owes.
        self._parked: Dict[CircuitSwitchedRouter, int] = {}
        #: The plane runs the routers' cycles.
        self._batching = False
        #: Configured route-hops over all routers as counted at the last gate
        #: (``None`` before the first).
        self.live_routes: Optional[int] = None
        #: Cycles the routers ran their own programs up to the last time the
        #: plane took over, and the cycle it last let go of them.
        self._scalar_cycles = 0
        self._released_at = 0
        #: The lane units adopted before this datapath joined a kernel and
        #: after, each stepped on its own side of the routers' commit
        #: (:meth:`_place`); the drivers numbered below ``_early_drivers``
        #: fire ahead of the routers' evaluate.
        self._units_before, self._units_after, self._early_drivers = {}, {}, 0
        #: The tile consumers, each mapped to its drain queue: one drained
        #: ahead of the routers' commit, or after it.
        self._sinks, self._drain_before, self._drain_after = {}, {}, {}
        #: Per router, what its tile interface and its wires to the outside call.
        self._marks = {router: partial(self.mark, router) for router in self.routers}
        for router in self.routers:
            router.converter.mark_hook = self._marks[router]
            router.config.on_change = partial(self._compile, router)
        self._rewire()

    def use_plane(self) -> None:
        """Batch busy cycles in a :class:`repro.sim.vector.VectorPlane`, or
        keep in :attr:`plane_refusal` why the routers cannot be."""
        try:
            from repro.sim.vector import VectorPlane

            self.plane = VectorPlane(self.routers)
        except ImportError:
            self.plane_refusal = "NumPy is not importable"
        except SimulationError as refusal:
            self.plane_refusal = str(refusal)

    # -- stream endpoints ------------------------------------------------------------------

    def _place(self, record, early: bool) -> None:
        """A record adopted before this datapath joined a kernel acts ahead of
        the routers in every cycle, one adopted later after them.  A tile
        consumer drains after each delivery on its lane, what already waits
        at its first turn."""
        if hasattr(record, "pacer") and early:
            self._early_drivers = self.drivers.count
        if hasattr(record, "step"):
            (self._units_before if early else self._units_after)[record] = None
        elif not hasattr(record, "pacer"):
            if record in self._sinks:
                raise ConfigurationError(f"{record.name!r} is already adopted")
            queue = self._sinks[record] = self._drain_before if early else self._drain_after
            record.router.tile.watch_rx(record.lane, partial(self._delivered, record))
            queue[record] = None

    def _unplace(self, record) -> None:
        self._units_before.pop(record, None)
        self._units_after.pop(record, None)
        self._sinks.pop(record, {}).pop(record, None)

    def _delivered(self, sink) -> None:
        """A word arrived on *sink*'s lane: unless released, it drains at its next turn."""
        if sink in self._sinks:
            self._sinks[sink][sink] = None

    # -- marks -----------------------------------------------------------------------------

    def _listener(self, wire: LaneLink, router: CircuitSwitchedRouter):
        if wire in self._reader and wire in self._writer:
            return _MemberWireWatch(self, wire, router)
        return self._marks[router]

    def mark(self, router: CircuitSwitchedRouter) -> None:
        """An input of *router* changed: it walks from the first cycle that
        can see the change, its idle cycles booked up to there."""
        active = self._next
        if router in active:
            return
        if router in self._walk:
            # It evaluated in the cycle in flight: it walks the next one too.
            active[router] = None
            return
        if self._batching:
            self.plane._dirty[router] = None
        else:
            kernel = self._scheduler
            phase, cycle = (kernel._phase, kernel.cycle) if kernel is not None else ("idle", 0)
            if phase == "evaluate" and self._walk is not _NOT_WALKING:
                # Joins the cycle in flight.  Its next state is what it last
                # sampled: nothing it samples changed since it parked, and
                # nothing does before the commit phase.
                self._book(router, self._parked.pop(router), cycle)
                self._walk[router] = None
                return
            if router in self._parked:
                # At a clock edge the change is seen from the next cycle on.
                self._book(router, self._parked.pop(router), cycle + (phase == "commit"))
            active[router] = None

    def _compile(self, router: CircuitSwitchedRouter) -> None:
        # Also the routers' configuration ``on_change`` hook.  The route
        # program holds direct wire references and the routes of one
        # configuration version: compile it at the next evaluate.
        if self._batching:
            self._release()
        self._stale[router] = None
        self.mark(router)

    # -- simulation ------------------------------------------------------------------------

    def evaluate(self, cycle: int) -> None:
        drivers = self.drivers
        if drivers.next_due == cycle and self._early_drivers:
            drivers.fire(cycle, self._early_drivers)
        if self._batching:
            plane = self.plane
            if plane._dirty:
                plane._drain_dirty(cycle)
            plane._eval_batched()
        else:
            walk = self._walk = self._next
            self._next = {}
            if self._stale:
                for router in self._stale:
                    router._compile()
                self._sweeps, self._stale = self._stale, {}
            for router in walk:
                eval_tile, eval_rx, ack_tile, ack_wire, ack_any, next_data, next_acks = router._sample
                for out_idx, serializer in eval_tile:
                    next_data[out_idx] = serializer._current_phit
                for out_idx, wires, lane in eval_rx:
                    next_data[out_idx] = wires[lane]
                for in_idx, deserializer in ack_tile:
                    next_acks[in_idx] = deserializer._ack_pulse
                for in_idx, wires, lane in ack_wire:
                    next_acks[in_idx] = wires[lane]
                for in_idx, pulses, sources in ack_any:
                    next_acks[in_idx] = any(d._ack_pulse for d in pulses) or any(
                        wires[lane] for wires, lane in sources
                    )
        if drivers.next_due == cycle:
            drivers.fire(cycle)

    def commit(self, cycle: int) -> None:
        if self._units_before:
            self._turn(self._units_before, cycle)
        if self._drain_before:
            for sink in self._drain_before:
                sink.drain()
            self._drain_before.clear()
        if self._batching:
            plane = self.plane
            if plane._dirty:
                # Dirtied after this datapath evaluated (a driver's tile write
                # in the evaluate phase): still part of this cycle.
                plane._drain_dirty(cycle)
            plane._commit_batched(cycle)
            stats = self._scheduler.scheduler_stats
            stats.vector_batches += 1
            stats.vector_components += len(self.routers)
        else:
            active, sweeps, sleepers = self._next, self._sweeps, []
            for router in self._walk:
                if sweeps and router in sweeps:
                    router._sweep(cycle)
                    latched = router._latched
                else:
                    (latch_data, latch_ack, out_data, next_data, ack_out, next_acks, previous, mask, slots,
                     clocked_bits, gated_bits, tick, gated) = router._latch
                    # 1. Latch the routed output registers; a change drives its wire.
                    toggles = link_toggles = 0
                    for out_idx, link, lane in latch_data:
                        new = next_data[out_idx]
                        old = out_data[out_idx]
                        if new != old:
                            bits = ((old ^ new) & mask).bit_count()
                            toggles += bits
                            out_data[out_idx] = new
                            if link is not None:
                                link_toggles += bits
                                previous[out_idx] = new
                                link.drive_forward(lane, new)
                    if toggles:
                        slots[XBAR_TOGGLE_BITS] += toggles
                    # 2. Latch the acknowledge registers; a change drives its wire.
                    for in_idx, link, lane in latch_ack:
                        new = next_acks[in_idx]
                        if new != ack_out[in_idx]:
                            toggles += 1
                            ack_out[in_idx] = new
                            if link is not None:
                                link.drive_ack(lane, new)
                    latched = router._latched = toggles != 0
                    if toggles:
                        slots[REG_TOGGLE_BITS] += toggles
                    # 3. The constant register bits, the converter, the link toggles.
                    if clocked_bits:
                        slots[REG_CLOCKED_BITS] += clocked_bits
                    if gated_bits:
                        slots[REG_GATED_BITS] += gated_bits
                    tick(out_data, ack_out, cycle, gated)
                    if link_toggles:
                        slots[LINK_TOGGLE_BITS] += link_toggles
                # A router stays on the walk while it moves or once marked since
                # it evaluated.
                if latched or router in active or not self.frozen(router):
                    active[router] = None
                else:
                    sleepers.append(router)
            if sleepers:
                for router in sleepers:
                    if router not in active:  # unless a later commit marked it
                        self._parked[router] = cycle + 1
            self._walk = _NOT_WALKING
            if sweeps:
                self._sweeps = {}
                if self.plane is not None:
                    self._gate(cycle)
        if self._units_after:
            self._turn(self._units_after, cycle)
        if self._drain_after:
            for sink in self._drain_after:
                sink.drain()
            self._drain_after.clear()

    def frozen(self, router: CircuitSwitchedRouter) -> bool:
        """True when another cycle of *router* with unchanged inputs would
        only book its constant register bits.

        That holds when the last commit latched no change, the data converter
        is at rest (every unit drained or, without clock gating,
        window-stalled with an idle output lane — a stalled serialiser still
        clocks its registers where the idle booking would gate them), and the
        crossbar sits at a fixed point of the live inputs.  A commit latches
        every register the program samples, so only an output fed by a
        serialiser (at rest, it drives the idle phit) and a fan-in that
        samples a deserialiser pulse (at rest, none) or that the commit does
        not latch (clock gating) can differ from what the next evaluate would
        sample.  Nothing then moves until an acknowledge or a new word
        arrives, and either marks the router.
        """
        if router._latched or router in self._stale:
            return False
        if not router.converter.at_rest(router.clock_gating):
            return False
        out_data = router._out_data
        for out_idx, _serializer in router._eval_tile:
            if out_data[out_idx]:
                return False
        ack_out = router._ack_out
        for in_idx, sources in router._park_ack:
            if ack_out[in_idx] != any(wires[lane] for wires, lane in sources):
                return False
        return True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Now while a router walks, a lane unit is not at rest, a consumer ahead of
        the routers has words or the plane moves; else when the next driver is due."""
        if self._next or self._drain_before or self._units and len(self._resting) < len(self._units):
            return cycle
        if self._batching:
            plane = self.plane
            if not plane._settled or plane._dirty:
                return cycle
        return self.drivers.next_due

    def _book(self, router: CircuitSwitchedRouter, start: int, end: int) -> None:
        """Book *router*'s constant register bits of the idle cycles ``[start, end)``."""
        if end <= start:
            return
        cycles = end - start
        clocked, gated = router.crossbar.idle_cycle_bits(router.clock_gating)
        if router.clock_gating:
            gated += router.converter.idle_cycle_bits()
        else:
            clocked += router.converter.idle_cycle_bits()
        if clocked:
            router.activity.add(ActivityKeys.REG_CLOCKED_BITS, clocked * cycles)
        if gated:
            router.activity.add(ActivityKeys.REG_GATED_BITS, gated * cycles)

    def settle(self, start_cycle: int, cycles: int) -> None:
        """At ``sync``: the plane's columns back into the routers, every
        parked router's idle cycles booked up to now, then the skeleton's
        booking."""
        if self._batching:
            self.plane.flush()
        end = start_cycle + cycles
        parked = self._parked
        for router, start in parked.items():
            self._book(router, start, end)
            parked[router] = end
        super().settle(start_cycle, cycles)

    def reset(self) -> None:
        """Routers and endpoints back to power-on, all on the walk; the plane waits for the gate."""
        self._batching = False
        if self.plane is not None:
            self.plane._dirty.clear()
        self.live_routes = None
        self._scalar_cycles = self._released_at = 0
        self._parked.clear()
        self._walk, self._sweeps = _NOT_WALKING, {}
        self._next = dict.fromkeys(self.routers)
        self._stale = dict.fromkeys(self.routers)
        self._drain_before.clear()
        self._drain_after.clear()
        for sink in self._sinks:
            sink.reset()
        super().reset()

    # -- the vector batch mode -----------------------------------------------------------

    def _gate(self, cycle: int) -> None:
        """Read the live-route gate at the end of *cycle*'s commit; from it up,
        park every router and let the plane run from the next cycle."""
        from repro.sim import vector

        self.live_routes = sum(len(router.crossbar.active_routes()) for router in self.routers)
        if self.live_routes < vector.MIN_BATCH_ROUTES:
            return
        for router in self._next:
            self._parked[router] = cycle + 1
        self._next.clear()
        self._scalar_cycles += cycle + 1 - self._released_at
        self._batching = True
        self.plane._compile(cycle + 1)

    def _release(self) -> None:
        """Leave the batch mode between two cycles: the columns back into the
        routers, every router on the walk of the next cycle."""
        self.plane.flush()
        self.plane._dirty.clear()  # what the dirty routers were owed is in their lanes again
        self._batching = False
        self._released_at = self._scheduler.cycle
        for router in self.routers:
            # The lanes moved in the columns, behind the converter's lists.
            router.converter.rescan()
            self.mark(router)

    @property
    def scalar_cycles(self) -> int:
        """Simulated cycles the routers ran their own programs (slept-through
        ones included), not batched in the plane."""
        total = self._scalar_cycles
        if not self._batching and self._scheduler is not None:
            total += self._scheduler.cycle - self._released_at
        return total

    def gate_reason(self) -> Optional[str]:
        """Why the routers run their own programs right now (``None`` while
        the plane batches them)."""
        from repro.sim import vector

        if self._batching:
            return None
        routes = self.live_routes
        if routes is None:
            return "the live-route gate is read after the first cycle"
        if routes < vector.MIN_BATCH_ROUTES:
            return f"below the live-route gate ({routes} live routes < {vector.MIN_BATCH_ROUTES})"
        return "one cycle on the routers themselves before the recompile"
