"""repro — reproduction of "An Energy-Efficient Reconfigurable Circuit-Switched
Network-on-Chip" (Wolkotte, Smit, Rauwerda, Smit; 2005).

The library provides, in pure Python:

* :mod:`repro.core` — the paper's reconfigurable circuit-switched router
  (lane-division multiplexing, 16×20 crossbar with registered output lanes,
  100-bit configuration memory, tile-side data converter, window-counter
  flow control, optional clock gating),
* :mod:`repro.baseline` — the packet-switched virtual-channel baseline router
  it is compared against, plus the Æthereal literature reference,
* :mod:`repro.energy` — 0.13 µm area / timing / power models calibrated to the
  paper's Table 4 and used for Figures 9 and 10,
* :mod:`repro.noc` — the multi-tile SoC substrate: pluggable topologies
  (2-D mesh, torus, faulty-link meshes), table-driven routing, heterogeneous
  tiles, lane allocation, spatial mapping, best-effort configuration network
  and the Central Coordination Node,
* :mod:`repro.apps` — the wireless applications that motivate the design
  (HiperLAN/2, UMTS, DRM) and the benchmark traffic scenarios,
* :mod:`repro.experiments` — harnesses that regenerate every table and figure
  of the paper's evaluation,
* :mod:`repro.sim` — the synchronous simulation kernel everything runs on:
  one ``commit`` per component per cycle, each datapath sampling its
  routers' inputs at the top of it and then latching them.

Quickstart::

    from repro import CircuitSwitchedRouter, LaneDatapath, LaneLink, Port
    from repro.sim import SimulationKernel

    router = CircuitSwitchedRouter("r0")
    router.attach_link(Port.EAST, LaneLink("rx"), LaneLink("tx"))
    router.configure(Port.EAST, 0, Port.TILE, 0)   # tile lane 0 -> east lane 0
    router.tile.send(0, 0xBEEF)
    kernel = SimulationKernel(frequency_hz=25e6)
    kernel.add(LaneDatapath("datapath", [router]))   # clocks the router
    kernel.run(10)

See ``examples/`` for complete, runnable scenarios and ``benchmarks/`` for the
table/figure reproductions.
"""

from repro.common import Port
from repro.core import (
    CircuitSwitchedRouter,
    ConfigurationCommand,
    ConfigurationMemory,
    FlowControlConfig,
    LaneDatapath,
    LaneHeader,
    LaneLink,
    LanePacket,
)
from repro.baseline import AetherealReference, PacketLink, PacketSwitchedRouter
from repro.energy import (
    CircuitSwitchedRouterArea,
    PacketSwitchedRouterArea,
    PowerBreakdown,
    PowerModel,
    Technology,
    TSMC_130NM_LVHP,
)
from repro.noc import (
    CentralCoordinationNode,
    CircuitSwitchedNoC,
    IrregularMesh,
    LaneAllocator,
    Mesh2D,
    PacketSwitchedNoC,
    RoutingTable,
    SlotTableAllocator,
    SpatialMapper,
    TileGrid,
    TimeDivisionNoC,
    Topology,
    Torus2D,
    build_network,
)
from repro.apps import BitFlipPattern, ProcessGraph, Scenario, SCENARIOS

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Port",
    "CircuitSwitchedRouter",
    "ConfigurationCommand",
    "ConfigurationMemory",
    "FlowControlConfig",
    "LaneDatapath",
    "LaneHeader",
    "LaneLink",
    "LanePacket",
    "AetherealReference",
    "PacketLink",
    "PacketSwitchedRouter",
    "CircuitSwitchedRouterArea",
    "PacketSwitchedRouterArea",
    "PowerBreakdown",
    "PowerModel",
    "Technology",
    "TSMC_130NM_LVHP",
    "CentralCoordinationNode",
    "CircuitSwitchedNoC",
    "IrregularMesh",
    "LaneAllocator",
    "Mesh2D",
    "PacketSwitchedNoC",
    "RoutingTable",
    "SlotTableAllocator",
    "SpatialMapper",
    "TileGrid",
    "TimeDivisionNoC",
    "Topology",
    "Torus2D",
    "build_network",
    "BitFlipPattern",
    "ProcessGraph",
    "Scenario",
    "SCENARIOS",
]
