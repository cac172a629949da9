"""The circuit-switched Network-on-Chip: routers, links and tiles on a topology.

This is the guaranteed-throughput network of Section 5 assembled from the
building blocks of :mod:`repro.core`: one
:class:`~repro.core.router.CircuitSwitchedRouter` per topology position,
:class:`~repro.core.lane.LaneLink` bundles between neighbours, and word-level
stream endpoints at the tile interfaces.  The CCN configures circuits through
:meth:`CircuitSwitchedNoC.apply_allocation`; application traffic is attached
with :meth:`CircuitSwitchedNoC.add_stream`.  One
:class:`~repro.core.router.LaneDatapath` clocks the routers, in its vector
batch mode where the fabric gives it one.  Construction, wiring and the
reporting surface live in :class:`~repro.noc.fabric.NocBase`, so the same
network builds on the paper's mesh, a torus or a degraded mesh.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common import ConfigurationError
from repro.core.configuration import COMMAND_BITS
from repro.core.header import phits_per_packet
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter, LaneDatapath
from repro.core.testbench import CircuitTileDriver, CircuitTileSink
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.noc.fabric import FabricStream, NocBase, register_network_kind
from repro.noc.path_allocation import CircuitAllocation, LaneAllocator, LaneCircuit
from repro.noc.topology import Position, Topology
from repro.noc.word_proxy import PacedPullModel
from repro.sim.datapath import WordSource
from repro.sim.engine import DEFAULT_SCHEDULE

__all__ = ["CircuitSwitchedNoC"]


@register_network_kind("circuit", "circuit_switched", "cs")
class CircuitSwitchedNoC(NocBase):
    """A complete circuit-switched network on any topology."""

    kind = "circuit_switched"
    activity_name = "network"
    datapath_class = LaneDatapath
    performs_admission = True
    fault_drop_unit = "phit"
    #: One 10-bit lane command per router hop (Section 5.1).
    config_command_bits = COMMAND_BITS

    def __init__(
        self,
        topology: Topology,
        frequency_hz: float = 25e6,
        lanes_per_port: int = 4,
        lane_width: int = 4,
        data_width: int = 16,
        clock_gating: bool = False,
        tech: Technology = TSMC_130NM_LVHP,
        schedule: str = DEFAULT_SCHEDULE,
        region=None,
    ) -> None:
        self.lanes_per_port = lanes_per_port
        self.lane_width = lane_width
        self.clock_gating = clock_gating
        super().__init__(
            topology,
            frequency_hz=frequency_hz,
            data_width=data_width,
            tech=tech,
            schedule=schedule,
            region=region,
        )

    # -- construction hooks -----------------------------------------------------------

    def _build_router(self, position: Position) -> CircuitSwitchedRouter:
        return CircuitSwitchedRouter(
            self.topology.router_name(position),
            lanes_per_port=self.lanes_per_port,
            lane_width=self.lane_width,
            data_width=self.data_width,
            position=position,
            clock_gating=self.clock_gating,
            tech=self.tech,
        )

    def _build_link(self, src: Position, dst: Position) -> LaneLink:
        return LaneLink(
            f"lane_{src[0]}_{src[1]}__{dst[0]}_{dst[1]}", self.lanes_per_port, self.lane_width
        )

    def _new_admission_controller(self) -> LaneAllocator:
        return LaneAllocator(
            self.topology, self.lanes_per_port, self.lane_width, self.data_width
        )

    @classmethod
    def default_admission_controller(cls, topology: Topology) -> LaneAllocator:
        return LaneAllocator(topology)

    # -- configuration -----------------------------------------------------------------------

    def apply_circuit(self, circuit: LaneCircuit) -> None:
        """Write one lane circuit into the routers along its route."""
        for hop in circuit.hops:
            if self.is_local(hop.position):
                self.router_at(hop.position).configure(
                    hop.out_port, hop.out_lane, hop.in_port, hop.in_lane
                )

    def remove_circuit(self, circuit: LaneCircuit) -> None:
        """Tear one lane circuit down again."""
        for hop in circuit.hops:
            if self.is_local(hop.position):
                self.router_at(hop.position).deconfigure(hop.out_port, hop.out_lane)

    def apply_allocation(self, allocation: CircuitAllocation) -> None:
        """Configure every lane circuit of a channel allocation."""
        for circuit in allocation.circuits:
            self.apply_circuit(circuit)

    def remove_allocation(self, allocation: CircuitAllocation) -> None:
        """Tear down every lane circuit of a channel allocation."""
        for circuit in allocation.circuits:
            self.remove_circuit(circuit)

    def configured_circuits(self) -> int:
        """Total number of active output lanes across all routers."""
        return sum(router.active_circuits() for router in self.routers.values())

    # -- traffic -----------------------------------------------------------------------------

    def add_stream(
        self,
        name: str,
        allocation: CircuitAllocation,
        word_source: WordSource,
        load: float = 1.0,
        mark_blocks: Optional[int] = None,
    ) -> FabricStream:
        """Attach a paced word stream to an allocated channel.

        Tile-local channels (source and destination process on the same tile)
        create no network endpoints; their traffic never enters the NoC.
        """
        if name in self.streams:
            raise ConfigurationError(f"stream {name!r} already exists")
        stream = FabricStream(name, allocation=allocation)
        if allocation.is_local or not allocation.circuits:
            self.streams[name] = stream
            return stream
        circuit = allocation.circuits[0]
        # The tile driver pulls one word per pacer emission, unconditionally
        # — the remote pull model is the pacer schedule itself.
        word_source = self._register_stream_source(
            name,
            word_source,
            self.is_local(circuit.src),
            lambda: PacedPullModel(
                load,
                phits_per_packet(self.data_width, self.lane_width),
                self.kernel.cycle,
            ),
        )
        if self.is_local(circuit.src):
            stream.source = self._adopt_driver(CircuitTileDriver(
                f"{name}_src",
                self.router_at(circuit.src),
                circuit.source_tile_lane,
                word_source,
                load,
                mark_blocks=mark_blocks,
            ))
        if self.is_local(circuit.dst):
            sink = stream.sink = self._adopt_sink(CircuitTileSink(
                f"{name}_dst", self.router_at(circuit.dst), circuit.destination_tile_lane
            ))
            stream.delivered = lambda: sink.words_received
        self.streams[name] = stream
        return stream

    def attach_channel(
        self,
        name: str,
        src: Position,
        dst: Position,
        bandwidth_mbps: float,
        word_source: WordSource,
        load: float = 1.0,
        allocation: Optional[CircuitAllocation] = None,
    ) -> List[FabricStream]:
        if allocation is None:
            allocation = self.admission.allocate(
                name, src, dst, bandwidth_mbps, self.frequency_hz
            )
            self.apply_allocation(allocation)
        if allocation.is_local or not allocation.circuits:
            return [self.add_stream(name, allocation, word_source, load)]
        # Pace the channel at its requested bandwidth (× load), not at the
        # allocated lanes' capacity, so every network kind offers the
        # identical word stream.  A channel wider than one lane stripes its
        # words across every allocated lane circuit (one driver/sink pair per
        # lane, each carrying an equal share), exactly as the hardware's
        # lane-division multiplexing does.
        lane_capacity = self.admission.lane_capacity_mbps(self.frequency_hz)
        share = min(1.0, load * bandwidth_mbps / (allocation.lanes_used * lane_capacity))
        if allocation.lanes_used == 1:
            return [self.add_stream(name, allocation, word_source, share)]
        endpoints = []
        for circuit in allocation.circuits:
            lane_allocation = CircuitAllocation(
                allocation.channel_name,
                allocation.src,
                allocation.dst,
                allocation.bandwidth_mbps,
                circuits=[circuit],
            )
            endpoints.append(
                self.add_stream(f"{name}#{circuit.index}", lane_allocation, word_source, share)
            )
        return endpoints
