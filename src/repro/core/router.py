"""The reconfigurable circuit-switched router (Section 5, Fig. 4).

The router consists of the three major parts the paper names:

* the **data converter** between the 16-bit tile interface and the 4-bit
  lanes (:mod:`repro.core.data_converter`),
* the **crossbar** with registered output lanes (:mod:`repro.core.crossbar`),
* the **crossbar configuration** memory written through a small interface
  attached to the best-effort network (:mod:`repro.core.config_memory`,
  :mod:`repro.core.configuration`).

The router is a :class:`repro.sim.ClockedComponent`: during ``evaluate`` it
samples the committed values on its incoming lane links and the committed
outputs of its own serialisers, and feeds them through the (combinational)
crossbar; during ``commit`` it latches the crossbar output registers, steps
the data converter and drives its outgoing lane links — exactly one cycle of
latency per hop, as in the hardware.

The router participates in the kernel's timed protocol: its incoming
lane bundles and its tile/configuration interfaces wake it when anything
changes, and while fully idle it reports a fixed point so the kernel can
skip it, bulk-applying the constant per-cycle clocked/gated register bits
through :meth:`CircuitSwitchedRouter.idle_tick`.  The per-cycle loops index
preallocated flat lists by the dense lane index ``port * lanes_per_port +
lane`` — no dictionaries, no per-cycle allocation, no repeated ``Port``
coercion.
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
from repro.core.data_converter import DataConverter, TileInterface
from repro.core.lane import LaneLink
from repro.energy.activity import LINK_TOGGLE_BITS, ActivityCounters, ActivityKeys
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
        self._input_vals: list[int] = [0] * total
        self._ack_vals: list[bool] = [False] * total
        self._tx_previous: list[int] = [0] * total
        # (base index, link) pairs for the attached neighbour ports, in port
        # order; rebuilt by attach_link so the per-cycle loops never touch
        # the port dictionaries or construct Port values.
        self._rx_flat: list[Tuple[int, LaneLink]] = []
        self._tx_flat: list[Tuple[int, LaneLink]] = []

        # Event-schedule sparse loops, rebuilt per configuration version:
        # which crossbar indices evaluate must sample and which wires commit
        # must drive, restricted to the configured routes.  One dense drive
        # sweep runs after every configuration change (flushing wires the
        # new configuration no longer drives) before the sparse loops take
        # over; see evaluate/commit.
        self._sparse_version = -1
        self._drive_version = -1
        self._sample_tile: list[int] = []
        self._sample_rx: list[Tuple[int, LaneLink, int]] = []
        self._ack_tile: list[int] = []
        self._ack_tx: list[Tuple[int, LaneLink, int]] = []
        self._drive_out: list[Tuple[LaneLink, int, int]] = []
        self._drive_ack: list[Tuple[LaneLink, int, int]] = []

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
        lanes_per_port = self.lanes_per_port
        self._rx_flat = [
            (int(p) * lanes_per_port, link)
            for p, link in self._rx_links.items()
            if link is not None
        ]
        self._tx_flat = [
            (int(p) * lanes_per_port, link)
            for p, link in self._tx_links.items()
            if link is not None
        ]
        # The sparse route lists hold direct link references.
        self._sparse_version = -1
        self._drive_version = -1
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

    def _refresh_sparse(self) -> None:
        """Rebuild the event-schedule sampling and drive lists.

        The crossbar only reads input values at the source index of a
        configured route and acknowledge values behind a configured output
        lane, and only those lanes' registers can change; sampling and
        driving anything else is dead work the dense loops pay every cycle.
        """
        lanes_per_port = self.lanes_per_port
        sample_tile: set[int] = set()
        sample_rx: list[Tuple[int, LaneLink, int]] = []
        ack_tile: set[int] = set()
        ack_tx: list[Tuple[int, LaneLink, int]] = []
        drive_out: list[Tuple[LaneLink, int, int]] = []
        drive_ack: list[Tuple[LaneLink, int, int]] = []
        acked_sources: set[int] = set()
        for out_port, out_lane, cfg in self.config.active_entries():
            out_idx = int(out_port) * lanes_per_port + out_lane
            src_port = cfg.source_port
            src_lane = cfg.source_lane
            src_idx = int(src_port) * lanes_per_port + src_lane
            if src_port == Port.TILE:
                sample_tile.add(src_lane)
            else:
                rx = self._rx_links[src_port]
                if rx is not None:
                    sample_rx.append((src_idx, rx, src_lane))
                    if src_idx not in acked_sources:
                        acked_sources.add(src_idx)
                        drive_ack.append((rx, src_lane, src_idx))
            if out_port == Port.TILE:
                ack_tile.add(out_lane)
            else:
                tx = self._tx_links[out_port]
                if tx is not None:
                    ack_tx.append((out_idx, tx, out_lane))
                    drive_out.append((tx, out_lane, out_idx))
        self._sample_tile = sorted(sample_tile)
        self._sample_rx = sample_rx
        self._ack_tile = sorted(ack_tile)
        self._ack_tx = ack_tx
        self._drive_out = drive_out
        self._drive_ack = drive_ack
        self._sparse_version = self.config.version

    def evaluate(self, cycle: int) -> None:
        lanes_per_port = self.lanes_per_port
        values = self._input_vals
        acks = self._ack_vals

        if self._event_mode:
            if self._sparse_version != self.config.version:
                self._refresh_sparse()
            # Sample only the lanes a configured route actually reads;
            # every other entry is never consumed (unattached ports keep
            # their preset idle values, deconfigured sources go unread).
            serializers = self.converter.serializers
            for lane in self._sample_tile:
                values[lane] = serializers[lane].output_phit
            for idx, rx, lane in self._sample_rx:
                values[idx] = rx.forward[lane]
            deserializers = self.converter.deserializers
            for lane in self._ack_tile:
                acks[lane] = deserializers[lane].ack_pulse
            for idx, tx, lane in self._ack_tx:
                acks[idx] = tx.ack[lane]
            self.crossbar.evaluate_flat(values, acks)
            return

        # 1. Committed values on every crossbar input lane (tile-port lanes
        #    occupy indices 0..lanes_per_port-1; unattached neighbour ports
        #    keep their preset idle values).
        serializers = self.converter.serializers
        for lane in range(lanes_per_port):
            values[lane] = serializers[lane].output_phit
        for base, link in self._rx_flat:
            values[base : base + lanes_per_port] = link.forward

        # 2. Committed acknowledge values observed behind every output lane.
        deserializers = self.converter.deserializers
        for lane in range(lanes_per_port):
            acks[lane] = deserializers[lane].ack_pulse
        for base, link in self._tx_flat:
            acks[base : base + lanes_per_port] = link.ack

        self.crossbar.evaluate_flat(values, acks)

    def commit(self, cycle: int) -> None:
        lanes_per_port = self.lanes_per_port
        crossbar = self.crossbar

        # 1. Latch the crossbar output and acknowledge registers.
        if self._event_mode and not self.clock_gating:
            # Event-native path: only route-active lanes are visited
            # (bit-identical; see Crossbar.commit_sparse).
            crossbar.commit_sparse()
        else:
            crossbar.commit(self.clock_gating)
        out_data = crossbar.committed_data
        ack_data = crossbar.committed_acks

        # 2. Step the data converter with the freshly latched tile-port values
        #    (the tile port occupies the first lanes_per_port indices).
        tile_rx = out_data[:lanes_per_port]
        tile_ack = ack_data[:lanes_per_port]
        if self._event_mode:
            # Event-native path: idle lane units are batch-accounted instead
            # of ticked (bit-identical; see DataConverter.tick_sparse).  A
            # transit router — crossbar busy, converter idle — then pays for
            # zero lane units per cycle.
            self.converter.tick_sparse(tile_rx, tile_ack, cycle, self.clock_gating)
        else:
            self.converter.tick(tile_rx, tile_ack, cycle, self.clock_gating)

        # 3. Drive the outgoing links (data forward, acknowledges backward).
        previous = self._tx_previous
        link_toggles = 0
        mask = self._lane_mask
        if (
            self._event_mode
            and self._drive_version == self.config.version
            and self._sparse_version == self.config.version
        ):
            # Event-native path: only configured routes can move a wire (a
            # dense sweep flushed everything else when the configuration
            # last changed).
            for tx_link, lane, idx in self._drive_out:
                value = out_data[idx]
                if value != previous[idx]:
                    link_toggles += ((previous[idx] ^ value) & mask).bit_count()
                    previous[idx] = value
                    tx_link.drive_forward(lane, value)
            if link_toggles:
                self.activity.slots[LINK_TOGGLE_BITS] += link_toggles
            for rx_link, lane, idx in self._drive_ack:
                value = ack_data[idx]
                if rx_link.ack[lane] != value:
                    rx_link.drive_ack(lane, value)
            self.activity.cycles = cycle + 1
            return

        for base, tx_link in self._tx_flat:
            for lane in range(lanes_per_port):
                idx = base + lane
                value = out_data[idx]
                if value != previous[idx]:
                    link_toggles += ((previous[idx] ^ value) & mask).bit_count()
                    previous[idx] = value
                    tx_link.drive_forward(lane, value)
        if link_toggles:
            self.activity.slots[LINK_TOGGLE_BITS] += link_toggles
        for base, rx_link in self._rx_flat:
            link_ack = rx_link.ack
            for lane in range(lanes_per_port):
                value = ack_data[base + lane]
                if link_ack[lane] != value:
                    rx_link.drive_ack(lane, value)
        if self._event_mode:
            # The dense sweep above flushed every wire for this version; the
            # sparse drive loops may take over from the next commit on.
            self._drive_version = self.config.version

        self.activity.cycles = cycle + 1

    # -- timed protocol: a router generates no events of its own --------------

    supports_timed_wake = True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """``None`` (park until a dirty-bit wake) when provably frozen.

        This is the one question the event schedule asks.  A router is
        frozen when another cycle with unchanged inputs would be an idle
        tick: the last commit latched no change, the data converter is
        drained or in a *window stall* (every serialiser drained or blocked
        on flow control with an idle output lane, deserialisers drained), and
        the crossbar sits at a fixed point of the *live* inputs.  Nothing then
        moves until an acknowledge or a new word arrives, both of which wake
        the router.  The live inputs differ from the evaluate-phase snapshot
        on the tile port only: a drained converter drives all-zero phits and
        no acknowledge pulse; a neighbour-port input that moved since the
        snapshot marked the router dirty, and the kernel then does not ask.
        Clock gating excludes the stall case: a stalled serialiser still
        clocks its registers where :meth:`idle_tick` would gate them.
        """
        if self.crossbar.busy:
            return cycle
        converter = self.converter
        if not (converter.quiescent() if self.clock_gating else converter.quiescent_or_stalled()):
            return cycle
        values = self._input_vals
        acks = self._ack_vals
        for lane in range(self.lanes_per_port):
            values[lane] = 0
            acks[lane] = False
        if not self.crossbar.is_fixed_point(values, acks):
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
        for idx in range(self._total_lanes):
            self._tx_previous[idx] = 0
        # Drive the attached wires back to idle.  The commit loop only
        # drives lanes whose register value changed, so a stale wire value
        # would otherwise survive a reset forever (the change-mirror
        # _tx_previous was just zeroed along with the registers).
        for _base, tx_link in self._tx_flat:
            for lane in range(self.lanes_per_port):
                tx_link.drive_forward(lane, 0)
        for _base, rx_link in self._rx_flat:
            for lane in range(self.lanes_per_port):
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
