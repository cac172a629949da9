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
.datapath`) clocks the routers and fires the tile stream drivers: the fabric's
kernel clocks that one component.  Under the default schedule it runs the
streams as delay lines wherever no two share an output port or a source
tile.  Wiring and routing change between cycles only.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.baseline.testbench import PacketTileDriver
from repro.common import ConfigurationError
from repro.core.header import phits_per_packet
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.noc.fabric import FabricStream, NocBase, register_network_kind
from repro.noc.routing import RoutingTable
from repro.noc.topology import Position, Topology
from repro.noc.word_proxy import PacedPullModel
from repro.sim.datapath import WordSource
from repro.sim.engine import DEFAULT_SCHEDULE

__all__ = ["PacketSwitchedNoC"]


@register_network_kind("packet", "packet_switched", "ps")
class PacketSwitchedNoC(NocBase):
    """A complete packet-switched network on any topology."""

    datapath_class = PacketDatapath
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

    def refresh_routing(self, degraded: Topology) -> None:
        """Route around dead resources: rebuild the shared routing table.

        The routers hold a bound reference to ``self.routing.port_for``, so
        the in-place rebuild redirects every packet head decided from the
        next cycle on; worms already past the dead link keep their reserved
        path on the surviving wires.  Between cycles only.
        """
        if self.datapath is not None:
            self.datapath.refuse_inside_cycle(f"routing of {self.datapath.name!r} rebuilt")
            self.datapath.reroute()
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
    ) -> FabricStream:
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
        stream = FabricStream(name)
        if self.is_local(src):
            stream.source = self._adopt_driver(PacketTileDriver(
                f"{name}_src",
                self.router_at(src),
                word_source,
                dest=dst,
                load=load,
                vc=vc,
                words_per_packet=words_per_packet or self.words_per_packet,
            ))
        if self.is_local(dst):
            # The destination tile counts the payload words per source tile.
            stream.delivered = partial(self.router_at(dst).tile.words_from.get, src, 0)
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
        allocation: object = None,
    ) -> List[FabricStream]:
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
        return [self.add_stream(
            name, src, dst, word_source, effective_load, words_per_packet=words_per_packet
        )]

    # -- reporting --------------------------------------------------------------------------

    def words_received_at(self, position: Position, src: Optional[Position] = None) -> int:
        """Payload words delivered to the tile at *position* (optionally from *src* only)."""
        tile = self.router_at(position).tile
        if src is None:
            return tile.words_received
        return tile.words_from.get(src, 0)
