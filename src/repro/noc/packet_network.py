"""The packet-switched Network-on-Chip used as the paper's system-level baseline.

The fabric twin of :class:`repro.noc.network.CircuitSwitchedNoC` — both share
:class:`~repro.noc.fabric.NocBase` — but built from
:class:`~repro.baseline.router.PacketSwitchedRouter` instances and
:class:`~repro.baseline.link.PacketLink` channels.  No circuit configuration
is needed — packets find their way with the topology's routing table
(dimension-order XY on the paper's mesh, shortest-path tables on a torus or
degraded mesh) — which is the flexibility the paper acknowledges the
packet-switched approach keeps, at the cost of buffering and arbitration
energy.

One :class:`~repro.baseline.router.PacketDatapath` (:attr:`PacketSwitchedNoC
.datapath`) clocks the routers; wiring and routing change between cycles only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.baseline.testbench import TilePacketDriver
from repro.common import ConfigurationError
from repro.core.header import phits_per_packet
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.noc.fabric import NocBase, WordSource, register_network_kind
from repro.noc.routing import RoutingTable
from repro.noc.topology import Position, Topology
from repro.noc.word_proxy import PacedPullModel
from repro.sim.engine import DEFAULT_SCHEDULE

__all__ = ["PacketStreamEndpoints", "PacketSwitchedNoC"]


@dataclass
class PacketStreamEndpoints:
    """Book-keeping for one word stream carried by the packet-switched network."""

    name: str
    source: Optional[TilePacketDriver]
    src: Position
    dst: Position

    @property
    def words_sent(self) -> int:
        """Words handed to the source tile interface."""
        return self.source.words_sent if self.source is not None else 0


@register_network_kind("packet", "packet_switched", "ps")
class PacketSwitchedNoC(NocBase):
    """A complete packet-switched network on any topology."""

    datapath: Optional[PacketDatapath] = None  # a shard may hold no router
    kind = "packet_switched"
    activity_name = "packet_network"
    fault_drop_unit = "flit"

    def __init__(
        self,
        topology: Topology,
        frequency_hz: float = 25e6,
        num_vcs: int = 4,
        fifo_depth: int = 8,
        data_width: int = 16,
        words_per_packet: int = 16,
        tech: Technology = TSMC_130NM_LVHP,
        schedule: str = DEFAULT_SCHEDULE,
        region=None,
    ) -> None:
        self.num_vcs = num_vcs
        self.fifo_depth = fifo_depth
        self.words_per_packet = words_per_packet
        #: Per-router next-hop decisions, derived once from the full
        #: topology (also in a shard region network, so every shard's
        #: routers take the identical next-hop decisions).
        self.routing = RoutingTable(topology)
        super().__init__(
            topology,
            frequency_hz=frequency_hz,
            data_width=data_width,
            tech=tech,
            schedule=schedule,
            region=region,
        )

    # -- construction hooks -----------------------------------------------------------

    def _register_with_kernel(self) -> None:
        if self.routers:
            self.datapath = PacketDatapath(f"{self.activity_name}_datapath", list(self.routers.values()))
            self.kernel.add(self.datapath)

    def _build_router(self, position: Position) -> PacketSwitchedRouter:
        return PacketSwitchedRouter(
            f"ps_{self.topology.router_name(position)}",
            position=position,
            num_vcs=self.num_vcs,
            fifo_depth=self.fifo_depth,
            data_width=self.data_width,
            words_per_packet=self.words_per_packet,
            tech=self.tech,
            route=self.routing.port_for,
        )

    def _build_link(self, src: Position, dst: Position) -> PacketLink:
        return PacketLink(f"pkt_{src[0]}_{src[1]}__{dst[0]}_{dst[1]}", self.num_vcs)

    def _stream_received(self, endpoints: PacketStreamEndpoints) -> int:
        if not self.is_local(endpoints.dst):
            return 0
        return self.words_received_at(endpoints.dst, endpoints.src)

    def _stream_drained(self, endpoints: PacketStreamEndpoints) -> bool:
        # Exact conservation for a halted packet stream: every packetised
        # word is either a flit worm somewhere in the buffers/links or a
        # delivered payload at the destination tile — equality means the
        # worms are through.  Words a fault swallowed never arrive, so a
        # broken path falls back to the stability drain.
        return (
            self.words_received_at(endpoints.dst, endpoints.src)
            == endpoints.words_sent
        )

    def refresh_routing(self, degraded: Topology) -> None:
        """Route around dead resources: rebuild the shared routing table.

        The routers hold a bound reference to ``self.routing.port_for``, so
        the in-place rebuild redirects every packet head decided from the
        next cycle on; worms already past the dead link keep their reserved
        path on the surviving wires.  Between cycles only.
        """
        if self.datapath is not None:
            self.datapath.refuse_inside_cycle(f"routing of {self.datapath.name!r} rebuilt")
        self.routing.rebuild(degraded)

    # -- traffic -----------------------------------------------------------------------------

    def add_stream(
        self,
        name: str,
        src: Position,
        dst: Position,
        word_source: WordSource,
        load: float = 1.0,
        vc: Optional[int] = None,
        words_per_packet: Optional[int] = None,
    ) -> PacketStreamEndpoints:
        """Attach a paced word stream from the tile at *src* to the tile at *dst*."""
        if name in self.streams:
            raise ConfigurationError(f"stream {name!r} already exists")
        for position in (src, dst):
            if not self.topology.contains(position):
                raise ConfigurationError(f"position {position} is outside the topology")
        if vc is None:
            # Derived from the stream-registry size, which every shard of a
            # replayed configuration sequence grows identically.
            vc = len(self.streams) % self.num_vcs
        # The tile driver pulls one word per pacer emission, unconditionally;
        # its pacer always uses the driver-default 16-bit/4-bit geometry.
        word_source = self._register_stream_source(
            name,
            word_source,
            self.is_local(src),
            lambda: PacedPullModel(load, phits_per_packet(16, 4), self.kernel.cycle),
        )
        driver = None
        if self.is_local(src):
            driver = TilePacketDriver(
                f"{name}_src",
                self.router_at(src),
                word_source,
                dest=dst,
                load=load,
                vc=vc,
                words_per_packet=words_per_packet or self.words_per_packet,
            )
            self.kernel.add(driver)
        endpoints = PacketStreamEndpoints(name, driver, src, dst)
        self.streams[name] = endpoints
        return endpoints

    def _detach_stream_components(self, endpoints: PacketStreamEndpoints) -> None:
        self._remove_component(endpoints.source)

    def attach_channel(
        self,
        name: str,
        src: Position,
        dst: Position,
        bandwidth_mbps: float,
        word_source: WordSource,
        load: float = 1.0,
        allocation: object = None,
    ) -> PacketStreamEndpoints:
        # Packet switching needs no admission — packets simply contend for
        # buffers and links, the flexibility-versus-energy trade the paper
        # discusses — but the stream is paced at the channel's requested
        # bandwidth (× load) so every network kind offers the identical word
        # stream.  The tile driver's load=1.0 reference rate is one word per
        # serialisation interval, i.e. the capacity of one 4-bit lane.
        phits = phits_per_packet(self.data_width, 4)
        lane_equivalent_mbps = self.data_width * self.frequency_hz / phits / 1e6
        effective_load = min(1.0, load * bandwidth_mbps / lane_equivalent_mbps)
        # Low-rate channels get packets short enough to fill within a bounded
        # number of cycles (a 16-word packet would take longer than a whole
        # experiment to fill at kbit/s rates), paying the packet fabric's
        # real price for them: more header flits per payload word.  High-rate
        # channels keep the network's full packet size.
        fill_budget_cycles = 500
        fillable_words = int(effective_load / phits * fill_budget_cycles)
        words_per_packet = max(1, min(self.words_per_packet, fillable_words))
        return self.add_stream(
            name, src, dst, word_source, effective_load, words_per_packet=words_per_packet
        )

    # -- reporting --------------------------------------------------------------------------

    def words_received_at(self, position: Position, src: Optional[Position] = None) -> int:
        """Payload words delivered to the tile at *position* (optionally from *src* only)."""
        tile = self.router_at(position).tile
        if src is None:
            return tile.words_received
        return tile.words_from.get(src, 0)
