"""Network-on-Chip substrate: topologies, tiles, networks, allocation and the CCN.

This package assembles full multi-router systems from the router models:

* :mod:`repro.noc.topology` — the :class:`~repro.noc.topology.Topology`
  protocol with the paper's :class:`~repro.noc.topology.Mesh2D` (Section 1.1)
  plus :class:`~repro.noc.topology.Torus2D` (wraparound links) and
  :class:`~repro.noc.topology.IrregularMesh` (faulty-link decorator),
* :class:`~repro.noc.routing.RoutingTable` — table-driven routing derived
  from the topology graph (XY dimension order on the mesh),
* :class:`~repro.noc.tile.TileGrid` — the heterogeneous tiles of Fig. 1,
* :class:`~repro.noc.fabric.NocBase` and
  :func:`~repro.noc.fabric.build_network` — the topology-generic fabric layer
  under :class:`~repro.noc.network.CircuitSwitchedNoC` and
  :class:`~repro.noc.packet_network.PacketSwitchedNoC`, complete
  guaranteed-throughput networks built from either router,
* :class:`~repro.noc.admission.AdmissionController` — the network-agnostic
  admission layer (route search over per-link resource pools), with
  :class:`~repro.noc.path_allocation.LaneAllocator` (lane-level circuit
  allocation) and :class:`~repro.noc.slot_table.SlotTableAllocator`
  (contention-free TDMA slot scheduling) as its two resource models,
* :class:`~repro.noc.gt_network.TimeDivisionNoC` — the simulated
  Æthereal-style guaranteed-throughput network (``"gt"``/``"aethereal"``),
* :class:`~repro.noc.mapping.SpatialMapper` — run-time process placement,
* :class:`~repro.noc.be_network.BestEffortNetwork` — configuration transport,
* :class:`~repro.noc.ccn.CentralCoordinationNode` — the admission pipeline
  that ties all of the above together.
"""

from repro.noc.topology import IrregularMesh, Mesh2D, Position, Topology, Torus2D
from repro.noc.routing import RoutingTable, dimension_order_route
from repro.noc.tile import DEFAULT_TILE_PATTERN, ProcessingTile, TileGrid
from repro.noc.admission import AdmissionController
from repro.noc.path_allocation import (
    CircuitAllocation,
    LaneAllocator,
    LaneCircuit,
    LaneHop,
)
from repro.noc.slot_table import (
    SlotAllocation,
    SlotCircuit,
    SlotHop,
    SlotTableAllocator,
)
from repro.noc.mapping import Mapping, SpatialMapper
from repro.noc.be_network import (
    BestEffortNetwork,
    BestEffortParameters,
    ConfigurationDelivery,
)
from repro.noc.fabric import FabricStream, NocBase, build_network, network_kinds, resolve_network_kind
from repro.noc.network import CircuitSwitchedNoC
from repro.noc.packet_network import PacketSwitchedNoC
from repro.noc.gt_network import (
    SlotTableRouter,
    TdmaDatapath,
    TdmaLink,
    TimeDivisionNoC,
)
from repro.noc.ccn import (
    ApplicationAdmission,
    CentralCoordinationNode,
    FaultRecovery,
    FeasibilityReport,
)
from repro.noc.selection import FabricCandidate, FabricDecision, FabricSelector
from repro.noc.faults import (
    FaultInjector,
    FaultReport,
    FaultSpec,
    loaded_link_chooser,
    random_link_chooser,
    random_router_chooser,
)

__all__ = [
    "Topology",
    "Mesh2D",
    "Torus2D",
    "IrregularMesh",
    "Position",
    "RoutingTable",
    "dimension_order_route",
    "DEFAULT_TILE_PATTERN",
    "ProcessingTile",
    "TileGrid",
    "AdmissionController",
    "CircuitAllocation",
    "LaneAllocator",
    "LaneCircuit",
    "LaneHop",
    "SlotAllocation",
    "SlotCircuit",
    "SlotHop",
    "SlotTableAllocator",
    "Mapping",
    "SpatialMapper",
    "BestEffortNetwork",
    "BestEffortParameters",
    "ConfigurationDelivery",
    "FabricStream",
    "NocBase",
    "build_network",
    "network_kinds",
    "resolve_network_kind",
    "CircuitSwitchedNoC",
    "PacketSwitchedNoC",
    "SlotTableRouter",
    "TdmaDatapath",
    "TdmaLink",
    "TimeDivisionNoC",
    "ApplicationAdmission",
    "CentralCoordinationNode",
    "FaultRecovery",
    "FeasibilityReport",
    "FabricCandidate",
    "FabricDecision",
    "FabricSelector",
    "FaultInjector",
    "FaultReport",
    "FaultSpec",
    "loaded_link_chooser",
    "random_link_chooser",
    "random_router_chooser",
]
