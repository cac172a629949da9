"""Crossbar configuration memory (Section 5.1).

Per output lane the memory stores which input lane is connected plus an
activation bit; for the default router (20 output lanes, 16 selectable input
lanes each) this is 5 × 20 = 100 bits.  The memory is written through a small
configuration interface attached to the best-effort network (see
:mod:`repro.core.configuration`), never through the data path — the paper's
key point that data and control are fully separated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common import ALL_PORTS, ConfigurationError, Port

__all__ = ["LaneConfig", "ConfigurationMemory"]


@dataclass(frozen=True, slots=True)
class LaneConfig:
    """Configuration of one crossbar output lane."""

    active: bool
    source_port: Port
    source_lane: int

    @classmethod
    def inactive(cls) -> "LaneConfig":
        """An unconfigured (inactive) output lane."""
        return cls(active=False, source_port=Port.TILE, source_lane=0)


class ConfigurationMemory:
    """Holds one :class:`LaneConfig` per crossbar output lane.

    Parameters
    ----------
    num_ports / lanes_per_port:
        Geometry of the router (paper default: 5 ports × 4 lanes).
    """

    def __init__(self, num_ports: int = 5, lanes_per_port: int = 4) -> None:
        if num_ports < 2:
            raise ValueError("a router needs at least two ports")
        if lanes_per_port < 1:
            raise ValueError("lanes_per_port must be positive")
        if num_ports > len(ALL_PORTS):
            raise ValueError(f"at most {len(ALL_PORTS)} ports are supported")
        self.num_ports = num_ports
        self.lanes_per_port = lanes_per_port
        self._entries: Dict[Tuple[Port, int], LaneConfig] = {}
        #: Monotonically increasing change counter; the crossbar uses it to
        #: cache its routing tables.
        self.version = 0
        #: Optional callback fired after every change (version bump).  The
        #: datapath clocking the router installs its recompile here, so a
        #: configuration write puts a parked router back on the walk.
        self.on_change: Optional[Callable[[], None]] = None

    def _bump_version(self) -> None:
        self.version += 1
        callback = self.on_change
        if callback is not None:
            callback()

    # -- geometry helpers ------------------------------------------------------

    @property
    def ports(self) -> Tuple[Port, ...]:
        """The ports of this router, tile port first."""
        return ALL_PORTS[: self.num_ports]

    @property
    def total_lanes(self) -> int:
        """Total output (= input) lanes of the crossbar."""
        return self.num_ports * self.lanes_per_port

    @property
    def selectable_inputs(self) -> int:
        """Selectable input lanes per output lane (all lanes of other ports)."""
        return (self.num_ports - 1) * self.lanes_per_port

    @property
    def select_bits(self) -> int:
        """Width of the input-select field of one entry."""
        return max(1, math.ceil(math.log2(self.selectable_inputs)))

    @property
    def entry_bits(self) -> int:
        """Bits per configuration entry (select field + activation bit)."""
        return self.select_bits + 1

    @property
    def memory_bits(self) -> int:
        """Total size of the configuration memory (paper: 100 bits)."""
        return self.entry_bits * self.total_lanes

    def lane_index(self, port: Port, lane: int) -> int:
        """Dense index of a lane used on the configuration interface."""
        self._check_lane(port, lane)
        return int(port) * self.lanes_per_port + lane

    def lane_from_index(self, index: int) -> Tuple[Port, int]:
        """Inverse of :meth:`lane_index`."""
        if not 0 <= index < self.total_lanes:
            raise ConfigurationError(f"lane index {index} out of range")
        return Port(index // self.lanes_per_port), index % self.lanes_per_port

    # -- select-field encoding --------------------------------------------------

    def encode_select(self, out_port: Port, in_port: Port, in_lane: int) -> int:
        """Encode an input lane as the select-field value for *out_port*.

        The candidates are the lanes of every port except *out_port*, in port
        order; this is why a 4-bit field suffices for the 16 candidates of the
        default router.
        """
        self._check_lane(in_port, in_lane)
        out_port = Port(out_port)
        in_port = Port(in_port)
        if in_port == out_port:
            raise ConfigurationError(
                f"output port {out_port.name} cannot select its own input lanes "
                "(data does not have to flow back)"
            )
        index = 0
        for port in self.ports:
            if port == out_port:
                continue
            if port == in_port:
                return index + in_lane
            index += self.lanes_per_port
        raise ConfigurationError(f"port {in_port!r} is not part of this router")

    def decode_select(self, out_port: Port, select: int) -> Tuple[Port, int]:
        """Inverse of :meth:`encode_select`."""
        out_port = Port(out_port)
        if select < 0 or select >= self.selectable_inputs:
            raise ConfigurationError(
                f"select value {select} out of range 0..{self.selectable_inputs - 1}"
            )
        index = 0
        for port in self.ports:
            if port == out_port:
                continue
            if select < index + self.lanes_per_port:
                return port, select - index
            index += self.lanes_per_port
        raise ConfigurationError("unreachable: select decoding failed")  # pragma: no cover

    # -- entry access -------------------------------------------------------------

    def set_entry(self, out_port: Port, out_lane: int, config: Optional[LaneConfig]) -> None:
        """Configure one output lane; ``None`` (or an inactive config) clears it."""
        self._check_lane(out_port, out_lane)
        out_port = Port(out_port)
        if config is None or not config.active:
            if self._entries.pop((out_port, out_lane), None) is not None:
                self._bump_version()
            return
        source_port = Port(config.source_port)
        self._check_lane(source_port, config.source_lane)
        if source_port == out_port:
            raise ConfigurationError(
                f"output lane {out_port.name}.{out_lane} cannot be fed from its own port"
            )
        self._entries[(out_port, out_lane)] = LaneConfig(True, source_port, config.source_lane)
        self._bump_version()

    def get(self, out_port: Port, out_lane: int) -> LaneConfig:
        """Configuration of one output lane (inactive if never configured)."""
        self._check_lane(out_port, out_lane)
        return self._entries.get((Port(out_port), out_lane), LaneConfig.inactive())

    def clear(self) -> None:
        """Deactivate every output lane."""
        had_entries = bool(self._entries)
        self._entries.clear()
        if had_entries:
            self._bump_version()

    def active_entries(self) -> List[Tuple[Port, int, LaneConfig]]:
        """All active output lanes as ``(out_port, out_lane, config)`` tuples."""
        return [
            (port, lane, config)
            for (port, lane), config in sorted(self._entries.items())
            if config.active
        ]

    def active_lane_count(self) -> int:
        """Number of active output lanes (used by the clock-gating model)."""
        return len(self._entries)

    def sources_feeding(self, in_port: Port, in_lane: int) -> List[Tuple[Port, int]]:
        """Output lanes currently configured to take data from the given input lane.

        Used by the crossbar to route the reverse acknowledge wire back to the
        input lane's upstream router.
        """
        self._check_lane(in_port, in_lane)
        in_port = Port(in_port)
        return [
            (out_port, out_lane)
            for (out_port, out_lane), config in self._entries.items()
            if config.active and config.source_port == in_port and config.source_lane == in_lane
        ]

    def iter_lanes(self) -> Iterator[Tuple[Port, int]]:
        """Iterate over all ``(port, lane)`` pairs of the router."""
        for port in self.ports:
            for lane in range(self.lanes_per_port):
                yield port, lane

    # -- validation -----------------------------------------------------------------

    def _check_lane(self, port: Port, lane: int) -> None:
        port = Port(port)
        if port not in self.ports:
            raise ConfigurationError(f"port {port.name} does not exist on this router")
        if not 0 <= lane < self.lanes_per_port:
            raise ConfigurationError(
                f"lane {lane} out of range 0..{self.lanes_per_port - 1}"
            )
