"""Structural area models of the evaluated routers (Table 4).

Every component of both routers is expressed as a gate-equivalent count
derived from its structure (number of muxes, registers, FIFO bits, …) using
:class:`repro.energy.gates.GateLibrary`, and converted to mm² with the
technology constants.  At the paper's default design point (5 ports, four
4-bit lanes per link, 16-bit tile interface, 4 virtual channels with 8-flit
FIFOs) the models reproduce the published Table 4 component areas to within a
few percent; away from the default point they scale with the design
parameters, which is what the lane/width ablations exercise.

The only per-component calibration knob is a *wiring factor* for the
packet-switched crossbar: that crossbar muxes all twenty virtual-channel
buffers onto five 16-bit outputs and is therefore wire-dominated in layout;
a factor of 2.3 on top of the global layout overhead reproduces the published
0.0706 mm².  All other components use the global layout overhead only.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

from repro.energy.gates import DEFAULT_GATES, GateLibrary
from repro.energy.technology import TSMC_130NM_LVHP, Technology

__all__ = [
    "ComponentArea",
    "AreaModel",
    "CircuitSwitchedRouterArea",
    "PacketSwitchedRouterArea",
    "AetherealRouterArea",
]


@dataclass(frozen=True)
class ComponentArea:
    """Area of one synthesised component of a router."""

    name: str
    gate_equivalents: float
    area_mm2: float
    gateable: bool = False
    """Whether the component's registers can be clock-gated per lane
    (used by the clock-gating ablation, paper Section 7.3 / future work)."""


class AreaModel(abc.ABC):
    """Base class of the per-router area models.

    A model's parameters are fixed at construction (the ablations build one
    model per design point), so the three totals are computed on first read
    and kept: the power model reads them for every router of every report.
    """

    def __init__(self, tech: Technology = TSMC_130NM_LVHP, gates: GateLibrary = DEFAULT_GATES) -> None:
        self.tech = tech
        self.gates = gates

    @abc.abstractmethod
    def components(self) -> List[ComponentArea]:
        """Return the component-level area breakdown."""

    @cached_property
    def total_mm2(self) -> float:
        """Total silicon area of the router."""
        return sum(component.area_mm2 for component in self.components())

    @cached_property
    def total_gate_equivalents(self) -> float:
        """Total gate-equivalent count of the router."""
        return sum(component.gate_equivalents for component in self.components())

    @cached_property
    def gateable_area_mm2(self) -> float:
        """Area whose clock can be gated away when lanes are inactive."""
        return sum(c.area_mm2 for c in self.components() if c.gateable)

    def breakdown(self) -> Dict[str, float]:
        """Mapping of component name to area in mm² (plus a ``total`` entry)."""
        result = {component.name: component.area_mm2 for component in self.components()}
        result["total"] = self.total_mm2
        return result


class CircuitSwitchedRouterArea(AreaModel):
    """Area model of the paper's reconfigurable circuit-switched router.

    Parameters mirror Section 5.1: *num_ports* bidirectional ports (one tile
    port plus the mesh neighbours), *lanes_per_port* unidirectional lanes per
    link direction, *lane_width* bits per lane and a *data_width*-bit tile
    interface.  The published design point is ``(5, 4, 4, 16)``.
    """

    def __init__(
        self,
        num_ports: int = 5,
        lanes_per_port: int = 4,
        lane_width: int = 4,
        data_width: int = 16,
        tech: Technology = TSMC_130NM_LVHP,
        gates: GateLibrary = DEFAULT_GATES,
    ) -> None:
        super().__init__(tech, gates)
        if num_ports < 2:
            raise ValueError("a router needs at least two ports")
        if lanes_per_port < 1 or lane_width < 1 or data_width < 1:
            raise ValueError("lanes, lane width and data width must be positive")
        self.num_ports = num_ports
        self.lanes_per_port = lanes_per_port
        self.lane_width = lane_width
        self.data_width = data_width

    # -- derived structural quantities --------------------------------------

    @property
    def total_lanes(self) -> int:
        """Total input (= output) lanes of the crossbar (paper: 20)."""
        return self.num_ports * self.lanes_per_port

    @property
    def crossbar_inputs_per_output(self) -> int:
        """Selectable inputs per output lane: lanes of all *other* ports (paper: 16)."""
        return (self.num_ports - 1) * self.lanes_per_port

    @property
    def config_entry_bits(self) -> int:
        """Bits per configuration entry: input-lane select plus an activation bit."""
        select_bits = max(1, math.ceil(math.log2(self.crossbar_inputs_per_output)))
        return select_bits + 1

    @property
    def config_memory_bits(self) -> int:
        """Total configuration memory size (paper: 5 × 20 = 100 bits)."""
        return self.config_entry_bits * self.total_lanes

    @property
    def phits_per_packet(self) -> int:
        """Phits needed per lane packet: header nibble plus the data word."""
        header_width = self.lane_width
        return math.ceil((self.data_width + header_width) / self.lane_width)

    # -- component areas -----------------------------------------------------

    def crossbar_ge(self) -> float:
        """Gate equivalents of the lane crossbar with registered outputs."""
        g = self.gates
        per_output = g.mux_tree_ge(self.crossbar_inputs_per_output, self.lane_width)
        per_output += g.register_ge(self.lane_width)
        data_path = self.total_lanes * per_output
        # Reverse acknowledge path: per input lane, a select/OR over the output
        # lanes of the other ports plus one registered acknowledge bit
        # (Section 5.2, Fig. 7; like the data path, acknowledges never turn
        # back into their own port).
        per_input_ack = g.or_tree_ge(self.crossbar_inputs_per_output) + g.register_ge(1)
        ack_path = self.total_lanes * per_input_ack
        return data_path + ack_path

    def configuration_ge(self) -> float:
        """Gate equivalents of the configuration memory and its interface."""
        g = self.gates
        storage = g.memory_ge(self.config_memory_bits, flip_flop_based=True)
        write_decoder = g.decoder_ge(self.total_lanes)
        command_interface = 150.0  # 10-bit command register, handshake, address latch
        select_drivers = self.total_lanes * self.lane_width * 2.5
        return storage + write_decoder + command_interface + select_drivers

    def data_converter_ge(self) -> float:
        """Gate equivalents of the tile-side data converter (Fig. 5)."""
        g = self.gates
        packet_bits = self.phits_per_packet * self.lane_width
        counter_bits = max(1, math.ceil(math.log2(self.phits_per_packet)))
        serializer = (
            g.register_ge(packet_bits)
            + g.counter_ge(counter_bits)
            + g.mux_tree_ge(self.phits_per_packet, self.lane_width)
            + 20.0
        )
        deserializer = g.register_ge(packet_bits) + g.counter_ge(counter_bits) + 25.0
        flow_control = 40.0  # window counter, acknowledge synchroniser
        per_lane = serializer + deserializer + flow_control
        tile_interface = 2 * g.register_ge(self.data_width) + 18.0
        return self.lanes_per_port * per_lane + tile_interface

    def components(self) -> List[ComponentArea]:
        tech = self.tech
        xbar = self.crossbar_ge()
        conf = self.configuration_ge()
        conv = self.data_converter_ge()
        return [
            ComponentArea("crossbar", xbar, tech.ge_to_mm2(xbar), gateable=True),
            ComponentArea("configuration", conf, tech.ge_to_mm2(conf), gateable=False),
            ComponentArea("data_converter", conv, tech.ge_to_mm2(conv), gateable=True),
        ]


class PacketSwitchedRouterArea(AreaModel):
    """Area model of the packet-switched baseline (Kavaldjiev-style VC router).

    The paper's reference design has 5 ports, 16-bit links and four virtual
    channels per input port; the per-VC FIFO depth is not published, the
    default of 8 flits reproduces the published 0.1034 mm² buffering area.
    """

    #: Extra wiring factor of the monolithic VC-buffer-to-output crossbar.
    CROSSBAR_WIRING_FACTOR = 2.3

    def __init__(
        self,
        num_ports: int = 5,
        phit_width: int = 16,
        num_vcs: int = 4,
        fifo_depth: int = 8,
        control_bits: int = 2,
        tech: Technology = TSMC_130NM_LVHP,
        gates: GateLibrary = DEFAULT_GATES,
    ) -> None:
        super().__init__(tech, gates)
        if num_ports < 2:
            raise ValueError("a router needs at least two ports")
        if phit_width < 1 or num_vcs < 1 or fifo_depth < 1 or control_bits < 0:
            raise ValueError("phit width, VC count and FIFO depth must be positive")
        self.num_ports = num_ports
        self.phit_width = phit_width
        self.num_vcs = num_vcs
        self.fifo_depth = fifo_depth
        self.control_bits = control_bits

    @property
    def flit_bits(self) -> int:
        """Stored bits per flit (payload plus type/control bits)."""
        return self.phit_width + self.control_bits

    @property
    def total_vc_buffers(self) -> int:
        """Number of VC FIFOs in the router (paper: 5 × 4 = 20)."""
        return self.num_ports * self.num_vcs

    def buffering_ge(self) -> float:
        """Gate equivalents of all input virtual-channel FIFOs."""
        per_fifo = self.gates.fifo_ge(self.fifo_depth, self.flit_bits)
        return self.total_vc_buffers * per_fifo

    def crossbar_ge(self) -> float:
        """Gate equivalents of the VC-buffer-to-output-port crossbar."""
        g = self.gates
        inputs = self.total_vc_buffers
        per_output = g.mux_tree_ge(inputs, self.flit_bits) + g.register_ge(self.flit_bits)
        return self.num_ports * per_output

    def arbitration_ge(self) -> float:
        """Gate equivalents of the switch allocators (one per output port)."""
        return self.num_ports * self.gates.rr_arbiter_ge(self.total_vc_buffers)

    def misc_ge(self) -> float:
        """Gate equivalents of routing logic and port control state machines."""
        per_port = 88.0  # XY route computation, VC state, handshake control
        return self.num_ports * per_port

    def components(self) -> List[ComponentArea]:
        tech = self.tech
        xbar = self.crossbar_ge()
        buf = self.buffering_ge()
        arb = self.arbitration_ge()
        misc = self.misc_ge()
        return [
            ComponentArea(
                "crossbar",
                xbar,
                tech.ge_to_mm2(xbar, wiring_factor=self.CROSSBAR_WIRING_FACTOR),
            ),
            ComponentArea("buffering", buf, tech.ge_to_mm2(buf)),
            ComponentArea("arbitration", arb, tech.ge_to_mm2(arb)),
            ComponentArea("misc", misc, tech.ge_to_mm2(misc)),
        ]


class AetherealRouterArea(AreaModel):
    """Literature reference: the Philips Æthereal router (Dielissen et al.).

    The paper quotes only the published totals (6 ports, 32-bit data,
    0.175 mm² after layout, 500 MHz); the component breakdown was not
    available ("n.a." in Table 4).  This class therefore carries the quoted
    constants rather than a structural model and is clearly marked as such.
    """

    PUBLISHED_TOTAL_MM2 = 0.175
    PUBLISHED_PORTS = 6
    PUBLISHED_DATA_WIDTH = 32

    def __init__(self, tech: Technology = TSMC_130NM_LVHP, gates: GateLibrary = DEFAULT_GATES) -> None:
        super().__init__(tech, gates)
        self.num_ports = self.PUBLISHED_PORTS
        self.data_width = self.PUBLISHED_DATA_WIDTH

    def components(self) -> List[ComponentArea]:
        ge = self.PUBLISHED_TOTAL_MM2 * 1e6 / (self.tech.ge_area_um2 * self.tech.layout_overhead)
        return [ComponentArea("total (published layout)", ge, self.PUBLISHED_TOTAL_MM2)]
