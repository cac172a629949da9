"""The paper's primary contribution: the reconfigurable circuit-switched router.

Public surface:

* :class:`~repro.core.router.CircuitSwitchedRouter` — the 5-port router with
  lane-division multiplexing, a 16×20 crossbar with registered output lanes,
  a 100-bit configuration memory and the tile-side data converter, clocked
  by a :class:`~repro.core.router.LaneDatapath` (one per fabric or bench).
* :class:`~repro.core.lane.LaneLink` — the wire bundle between two routers
  (four 4-bit lanes plus per-lane reverse acknowledge).
* :class:`~repro.core.header.LanePacket` / ``LaneHeader`` — the 20-bit packet
  format (4-bit header + 16-bit data word).
* :class:`~repro.core.config_memory.ConfigurationMemory` and the 10-bit
  :class:`~repro.core.configuration.ConfigurationCommand` written by the CCN
  over the best-effort network.
* :class:`~repro.core.flow_control.WindowCounterSource` /
  :class:`~repro.core.flow_control.AckGenerator` — end-to-end window-counter
  flow control.
* Test-bench drivers (:mod:`repro.core.testbench`) that emulate neighbouring
  routers and tiles for the single-router power scenarios of Section 6.
"""

from repro.core.header import HEADER_WIDTH, LaneHeader, LanePacket, phits_per_packet
from repro.core.lane import LaneLink, link_width_bits
from repro.core.flow_control import AckGenerator, FlowControlConfig, WindowCounterSource
from repro.core.config_memory import ConfigurationMemory, LaneConfig
from repro.core.configuration import (
    COMMAND_BITS,
    ConfigurationCommand,
    commands_for_connection,
    decode_command,
    encode_command,
)
from repro.core.crossbar import Crossbar
from repro.core.data_converter import DataConverter, ReceivedWord, TileInterface
from repro.core.router import CircuitSwitchedRouter, LaneDatapath
from repro.core.clock_gating import ClockGatingEstimate, estimate_gated_offset
from repro.core.testbench import (
    CircuitLinkDriver,
    CircuitLinkSink,
    CircuitTileDriver,
    CircuitTileSink,
)

__all__ = [
    "HEADER_WIDTH",
    "LaneHeader",
    "LanePacket",
    "phits_per_packet",
    "LaneLink",
    "link_width_bits",
    "AckGenerator",
    "FlowControlConfig",
    "WindowCounterSource",
    "ConfigurationMemory",
    "LaneConfig",
    "COMMAND_BITS",
    "ConfigurationCommand",
    "commands_for_connection",
    "decode_command",
    "encode_command",
    "Crossbar",
    "DataConverter",
    "ReceivedWord",
    "TileInterface",
    "CircuitSwitchedRouter",
    "LaneDatapath",
    "ClockGatingEstimate",
    "estimate_gated_offset",
    "CircuitLinkDriver",
    "CircuitLinkSink",
    "CircuitTileDriver",
    "CircuitTileSink",
]
