"""The reconfigurable circuit-switched router (Section 5, Fig. 4).

The router consists of the three major parts the paper names:

* the **data converter** between the 16-bit tile interface and the 4-bit
  lanes (:mod:`repro.core.data_converter`),
* the **crossbar** with registered output lanes (:mod:`repro.core.crossbar`),
* the **crossbar configuration** memory written through a small interface
  attached to the best-effort network (:mod:`repro.core.config_memory`,
  :mod:`repro.core.configuration`).

The router is a :class:`repro.sim.ClockedComponent` whose cycle is one
compiled *route program*.  Per configuration version (and per
:meth:`~CircuitSwitchedRouter.attach_link`) the router compiles the
crossbar's active routes and acknowledge fan-ins, together with the attached
links, into flat records: what each routed output register and each
acknowledge register samples, which wire each of them drives, and which
data-converter lanes a route touches.  ``evaluate`` runs the sampling records
into the crossbar's next-state lists; ``commit`` latches the routed
registers, counts their toggles and drives the wires of the ones that
changed, then books the constant register bits and steps the data converter,
which ticks only its live lanes — exactly one cycle of latency per hop, as
in the hardware.  The first commit of every version is the dense sweep
(:meth:`repro.core.crossbar.Crossbar.commit` plus a drive of every attached
wire), which flushes lanes a reconfiguration stranded; after it only routed
registers can change.

Both schedules run this same program.  Under the event schedule the router's
incoming lane bundles and its tile/configuration interfaces wake it when
anything changes, and :meth:`~CircuitSwitchedRouter.next_event_cycle` reads
the same records to decide when it may park, bulk-applying the constant
per-cycle clocked/gated register bits through
:meth:`~CircuitSwitchedRouter.idle_tick` meanwhile.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common import (
    NEIGHBOR_PORTS,
    ConfigurationError,
    Port,
    bit_mask,
)
from repro.core.config_memory import ConfigurationMemory, LaneConfig
from repro.core.configuration import ConfigurationCommand
from repro.core.crossbar import Crossbar
from repro.core.data_converter import DataConverter, LaneDeserializer, LaneSerializer, TileInterface
from repro.core.lane import LaneLink
from repro.energy.activity import (
    LINK_TOGGLE_BITS, REG_CLOCKED_BITS, REG_GATED_BITS, REG_TOGGLE_BITS, XBAR_TOGGLE_BITS,
    ActivityCounters, ActivityKeys,
)
from repro.energy.area import CircuitSwitchedRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.energy.timing import CircuitSwitchedTiming
from repro.sim.engine import ClockedComponent

__all__ = ["CircuitSwitchedRouter"]


class CircuitSwitchedRouter(ClockedComponent):
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
        super().__init__(name)
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

        # Incoming / outgoing lane links per neighbour port (None = mesh edge).
        self._rx_links: Dict[Port, Optional[LaneLink]] = {p: None for p in NEIGHBOR_PORTS}
        self._tx_links: Dict[Port, Optional[LaneLink]] = {p: None for p in NEIGHBOR_PORTS}

        # Flat per-lane working state, indexed by port * lanes_per_port + lane.
        total = self.NUM_PORTS * lanes_per_port
        self._total_lanes = total
        #: Last value driven onto each outgoing forward wire; link toggles
        #: count against it.
        self._tx_previous: list[int] = [0] * total
        # The attached links by port number (None at the tile port and at a
        # mesh edge).
        self._rx_of: list[Optional[LaneLink]] = [None] * self.NUM_PORTS
        self._tx_of: list[Optional[LaneLink]] = [None] * self.NUM_PORTS
        # The crossbar's registers and next-state lists, which the route
        # program reads and writes in place.
        self._out_data = self.crossbar.committed_data
        self._ack_out = self.crossbar.committed_acks
        self._next_data = self.crossbar.next_data
        self._next_acks = self.crossbar.next_acks

        # The route program (see _compile): the configuration version it was
        # compiled for and the version the last dense sweep flushed; -1
        # forces both (attach_link, reset).
        self._version = -1
        self._swept = -1
        # Evaluate records: (output, serialiser), (output, rx forward wires,
        # lane); (input, deserialiser), (input, tx ack wires, lane) and
        # (input, deserialisers, (wires, lane) pairs) for an OR of several.
        self._eval_tile: list[Tuple[int, LaneSerializer]] = []
        self._eval_rx: list[Tuple[int, list, int]] = []
        self._ack_tile: list[Tuple[int, LaneDeserializer]] = []
        self._ack_wire: list[Tuple[int, list, int]] = []
        self._ack_any: list[Tuple[int, tuple, tuple]] = []
        # Commit records: (register, the link it drives or None, lane), and
        # the constant clocked and gated register bits of one cycle.
        self._latch_data: list[Tuple[int, Optional[LaneLink], int]] = []
        self._latch_ack: list[Tuple[int, Optional[LaneLink], int]] = []
        self._clocked_bits = 0
        self._gated_bits = 0
        # Park records: (input, (tx ack wires, lane) pairs) of the fan-ins a
        # commit may leave off their inputs' fixed point (next_event_cycle).
        self._park_ack: list[Tuple[int, tuple]] = []
        #: The last commit latched a changed register bit.
        self._latched = True

        # External activity reschedules a quiescent router.
        self.config.on_change = self.wake
        self.converter.wake_hook = self.wake

    # -- wiring -------------------------------------------------------------------

    @property
    def tile(self) -> TileInterface:
        """The word-level tile interface of this router."""
        return self.converter.interface

    def attach_link(self, port: Port, rx_link: Optional[LaneLink], tx_link: Optional[LaneLink]) -> None:
        """Attach the incoming and outgoing lane bundles of a neighbour port.

        ``rx_link`` carries data *towards* this router (we read its forward
        lanes and drive its acknowledge wires); ``tx_link`` carries data away
        from it (we drive its forward lanes and read its acknowledge wires).
        Either may be ``None`` on the edge of the mesh.
        """
        port = Port(port)
        if port not in NEIGHBOR_PORTS:
            raise ConfigurationError("links can only be attached to neighbour ports")
        for link in (rx_link, tx_link):
            if link is None:
                continue
            if link.num_lanes != self.lanes_per_port or link.lane_width != self.lane_width:
                raise ConfigurationError(
                    f"link {link.name!r} geometry ({link.num_lanes}x{link.lane_width}) does "
                    f"not match router {self.name!r} ({self.lanes_per_port}x{self.lane_width})"
                )
        self._rx_links[port] = rx_link
        self._tx_links[port] = tx_link
        if rx_link is not None:
            # Forward data arriving here must wake a sleeping router.
            rx_link.watch_forward(self.wake)
        if tx_link is not None:
            # Acknowledges returned by the downstream router likewise.
            tx_link.watch_ack(self.wake)
        self._rx_of[port] = rx_link
        self._tx_of[port] = tx_link
        # The route program holds direct wire references.
        self._version = -1
        self._swept = -1
        self.wake()

    def rx_link(self, port: Port) -> Optional[LaneLink]:
        """The incoming lane bundle attached at *port* (``None`` at a mesh edge)."""
        return self._rx_links[Port(port)]

    def tx_link(self, port: Port) -> Optional[LaneLink]:
        """The outgoing lane bundle attached at *port* (``None`` at a mesh edge)."""
        return self._tx_links[Port(port)]

    # -- configuration ---------------------------------------------------------------

    def configure(self, out_port: Port, out_lane: int, in_port: Port, in_lane: int) -> None:
        """Connect ``in_port.in_lane`` to ``out_port.out_lane`` (direct CCN access)."""
        self.config.set_entry(out_port, out_lane, LaneConfig(True, Port(in_port), in_lane))
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def deconfigure(self, out_port: Port, out_lane: int) -> None:
        """Tear down the circuit using ``out_port.out_lane``."""
        self.config.set_entry(out_port, out_lane, None)
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def apply_command(self, command: ConfigurationCommand) -> None:
        """Apply a 10-bit configuration command received over the BE network."""
        command.apply(self.config)
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

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
        rx_of = self._rx_of
        tx_of = self._tx_of
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
        self._eval_rx = eval_rx
        self._ack_tile = ack_tile
        self._ack_wire = ack_wire
        self._ack_any = ack_any
        self._latch_data = latch_data
        self._latch_ack = [(idx, rx_of[idx // lanes], idx % lanes) for idx in latched]
        self._clocked_bits, self._gated_bits = crossbar.idle_cycle_bits(gated)
        self._park_ack = park_ack
        # The converter units whose inputs may be non-idle: tile lanes a
        # route starts or ends at, the tile lanes of the acknowledge
        # registers that latch and — under clock gating — those whose held
        # register is not idle.
        tx_lanes += [idx for idx in latched if idx < lanes]
        if gated:
            tx_lanes += [lane for lane in range(lanes) if self._ack_out[lane]]
            rx_lanes += [lane for lane in range(lanes) if self._out_data[lane]]
        self.converter.route_lanes(tx_lanes, rx_lanes)
        self._version = self.config.version

    def evaluate(self, cycle: int) -> None:
        if self._version != self.config.version:
            self._compile()
        next_data = self._next_data
        for out_idx, serializer in self._eval_tile:
            next_data[out_idx] = serializer._current_phit
        for out_idx, wires, lane in self._eval_rx:
            next_data[out_idx] = wires[lane]
        next_acks = self._next_acks
        for in_idx, deserializer in self._ack_tile:
            next_acks[in_idx] = deserializer._ack_pulse
        for in_idx, wires, lane in self._ack_wire:
            next_acks[in_idx] = wires[lane]
        for in_idx, pulses, sources in self._ack_any:
            next_acks[in_idx] = any(d._ack_pulse for d in pulses) or any(
                wires[lane] for wires, lane in sources
            )

    def commit(self, cycle: int) -> None:
        if self._swept != self.config.version:
            self._sweep(cycle)
            return
        # 1. Latch the routed output registers; a change drives its wire.
        mask = self._lane_mask
        out_data = self._out_data
        next_data = self._next_data
        previous = self._tx_previous
        toggles = 0
        link_toggles = 0
        for out_idx, link, lane in self._latch_data:
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
        slots = self.activity.slots
        if toggles:
            slots[XBAR_TOGGLE_BITS] += toggles
        # 2. Latch the acknowledge registers; a change drives its wire.
        ack_out = self._ack_out
        next_acks = self._next_acks
        for in_idx, link, lane in self._latch_ack:
            new = next_acks[in_idx]
            if new != ack_out[in_idx]:
                toggles += 1
                ack_out[in_idx] = new
                if link is not None:
                    link.drive_ack(lane, new)
        self._latched = toggles != 0
        if toggles:
            slots[REG_TOGGLE_BITS] += toggles
        # 3. The constant register bits, the converter, the link toggles.
        if self._clocked_bits:
            slots[REG_CLOCKED_BITS] += self._clocked_bits
        if self._gated_bits:
            slots[REG_GATED_BITS] += self._gated_bits
        self.converter.tick(out_data, ack_out, cycle, self.clock_gating)
        if link_toggles:
            slots[LINK_TOGGLE_BITS] += link_toggles
        self.activity.cycles = cycle + 1

    def _sweep(self, cycle: int) -> None:
        """The first commit of a version (or after :meth:`attach_link` /
        :meth:`reset`): latch every register and drive every attached wire,
        flushing lanes the configuration no longer drives."""
        if self._version != self.config.version:
            self._compile()  # written between this cycle's evaluate and commit
        self._latched = self.crossbar.commit(self.clock_gating)
        out_data = self._out_data
        ack_out = self._ack_out
        self.converter.tick(out_data, ack_out, cycle, self.clock_gating)
        lanes_per_port = self.lanes_per_port
        previous = self._tx_previous
        link_toggles = 0
        mask = self._lane_mask
        for port, tx_link in enumerate(self._tx_of):
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
        for port, rx_link in enumerate(self._rx_of):
            if rx_link is None:
                continue
            link_ack = rx_link.ack
            for lane in range(lanes_per_port):
                value = ack_out[port * lanes_per_port + lane]
                if link_ack[lane] != value:
                    rx_link.drive_ack(lane, value)
        self._swept = self._version
        self.activity.cycles = cycle + 1

    # -- timed protocol: a router generates no events of its own --------------

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """``None`` (park until a dirty-bit wake) when provably frozen.

        This is the one question the event schedule asks.  A router is
        frozen when another cycle with unchanged inputs would be an idle
        tick: the last commit latched no change, the data converter is at
        rest (every unit drained or, without clock gating, window-stalled
        with an idle output lane — a stalled serialiser still clocks its
        registers where :meth:`idle_tick` would gate them), and the crossbar
        sits at a fixed point of the live inputs.  A commit latches every
        register the program samples, so only an output fed by a serialiser
        (at rest, it drives the idle phit) and a fan-in that samples a
        deserialiser pulse (at rest, none) or that the commit does not latch
        (clock gating) can differ from what the next evaluate would sample.
        Nothing then moves until an acknowledge or a new word arrives, both
        of which wake the router.
        """
        if self._latched or self._swept != self.config.version:
            return cycle
        if not self.converter.at_rest(self.clock_gating):
            return cycle
        out_data = self._out_data
        for out_idx, _serializer in self._eval_tile:
            if out_data[out_idx]:
                return cycle
        ack_out = self._ack_out
        for in_idx, sources in self._park_ack:
            if ack_out[in_idx] != any(wires[lane] for wires, lane in sources):
                return cycle
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        """Apply *cycles* of the constant idle activity contribution."""
        activity = self.activity
        clocked, gated = self.crossbar.idle_cycle_bits(self.clock_gating)
        converter_bits = self.converter.idle_cycle_bits()
        if self.clock_gating:
            gated += converter_bits
        else:
            clocked += converter_bits
        if clocked:
            activity.add(ActivityKeys.REG_CLOCKED_BITS, clocked * cycles)
        if gated:
            activity.add(ActivityKeys.REG_GATED_BITS, gated * cycles)
        activity.cycles = start_cycle + cycles

    def reset(self) -> None:
        self.crossbar.reset()
        self.converter.reset()
        self.activity.reset()
        self._version = -1
        self._swept = -1
        self._latched = True
        for idx in range(self._total_lanes):
            self._tx_previous[idx] = 0
        # Drive the attached wires back to idle.  The commit loop only
        # drives lanes whose register value changed, so a stale wire value
        # would otherwise survive a reset forever (the change-mirror
        # _tx_previous was just zeroed along with the registers).
        for tx_link, rx_link in zip(self._tx_of, self._rx_of):
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
