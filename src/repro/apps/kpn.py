"""Kahn-process-network style application model (Section 1, Fig. 2/3).

Applications are partitioned into communicating functional processes; at run
time the CCN maps each process onto a tile that can execute it and each
communication channel onto network resources.  This module provides the graph
representation those steps operate on:

* :class:`Process` — a functional block with the tile types able to run it,
* :class:`Channel` — a directed communication stream with its bandwidth
  requirement, traffic class (guaranteed-throughput vs. best-effort) and
  block/streaming character (Section 3.3),
* :class:`ProcessGraph` — the application graph with validation helpers and a
  NetworkX view for the mapping algorithms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.common import MappingError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TileType", "TrafficClass", "Process", "Channel", "ProcessGraph"]


class TileType(enum.Enum):
    """Heterogeneous tile types of the SoC (Fig. 1)."""

    GPP = "gpp"
    DSP = "dsp"
    FPGA = "fpga"
    ASIC = "asic"
    DSRH = "dsrh"  # Domain Specific Reconfigurable Hardware

    @classmethod
    def any(cls) -> FrozenSet["TileType"]:
        """A process that can run on every tile type."""
        return frozenset(cls)


class TrafficClass(enum.Enum):
    """The two traffic classes of Section 3.3."""

    GUARANTEED_THROUGHPUT = "GT"
    BEST_EFFORT = "BE"


@dataclass(frozen=True)
class Process:
    """One functional process of the application."""

    name: str
    tile_types: FrozenSet[TileType] = field(default_factory=TileType.any)
    description: str = ""

    def can_run_on(self, tile_type: TileType) -> bool:
        """True when the process may be mapped onto a tile of *tile_type*."""
        return tile_type in self.tile_types


@dataclass(frozen=True)
class Channel:
    """A directed communication stream between two processes."""

    name: str
    src: str
    dst: str
    bandwidth_mbps: float
    traffic_class: TrafficClass = TrafficClass.GUARANTEED_THROUGHPUT
    #: Words per communication block for block-based streams (e.g. one OFDM
    #: symbol); ``None`` marks a sample-by-sample streaming channel (UMTS).
    block_size_words: Optional[int] = None
    word_bits: int = 16

    def __post_init__(self) -> None:
        if self.bandwidth_mbps < 0:
            raise ValueError("bandwidth must be non-negative")
        if self.block_size_words is not None and self.block_size_words < 1:
            raise ValueError("block_size_words must be positive when given")
        if self.word_bits < 1:
            raise ValueError("word_bits must be positive")

    @property
    def is_streaming(self) -> bool:
        """True for sample-by-sample streams (the UMTS style of Section 3.2)."""
        return self.block_size_words is None

    @property
    def words_per_second(self) -> float:
        """Data words per second implied by the bandwidth requirement."""
        return self.bandwidth_mbps * 1e6 / self.word_bits


class ProcessGraph:
    """A whole application as a graph of processes and channels."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._processes: Dict[str, Process] = {}
        self._channels: Dict[str, Channel] = {}

    # -- construction -----------------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Add a process; duplicate names are rejected."""
        if process.name in self._processes:
            raise MappingError(f"duplicate process name {process.name!r} in {self.name!r}")
        self._processes[process.name] = process
        return process

    def add_channel(self, channel: Channel) -> Channel:
        """Add a channel; both endpoints must already exist."""
        if channel.name in self._channels:
            raise MappingError(f"duplicate channel name {channel.name!r} in {self.name!r}")
        for endpoint in (channel.src, channel.dst):
            if endpoint not in self._processes:
                raise MappingError(
                    f"channel {channel.name!r} references unknown process {endpoint!r}"
                )
        if channel.src == channel.dst:
            raise MappingError(f"channel {channel.name!r} is a self-loop")
        self._channels[channel.name] = channel
        return channel

    # -- access ------------------------------------------------------------------------

    @property
    def processes(self) -> List[Process]:
        """All processes in insertion order."""
        return list(self._processes.values())

    @property
    def channels(self) -> List[Channel]:
        """All channels in insertion order."""
        return list(self._channels.values())

    def process(self, name: str) -> Process:
        """Look a process up by name."""
        try:
            return self._processes[name]
        except KeyError:
            raise MappingError(f"unknown process {name!r} in {self.name!r}") from None

    def channel(self, name: str) -> Channel:
        """Look a channel up by name."""
        try:
            return self._channels[name]
        except KeyError:
            raise MappingError(f"unknown channel {name!r} in {self.name!r}") from None

    def channels_between(self, src: str, dst: str) -> List[Channel]:
        """All channels from *src* to *dst*."""
        return [c for c in self._channels.values() if c.src == src and c.dst == dst]

    def channels_of(self, process: str) -> List[Channel]:
        """All channels attached to *process* (either direction)."""
        return [c for c in self._channels.values() if process in (c.src, c.dst)]

    # -- aggregate figures ----------------------------------------------------------------

    def total_bandwidth_mbps(self, traffic_class: Optional[TrafficClass] = None) -> float:
        """Sum of all channel bandwidths, optionally filtered by traffic class."""
        return sum(
            c.bandwidth_mbps
            for c in self._channels.values()
            if traffic_class is None or c.traffic_class == traffic_class
        )

    def guaranteed_fraction(self) -> float:
        """Fraction of the total bandwidth that needs guaranteed throughput.

        The paper argues this fraction is large (best effort is assumed to be
        below 5 % of the traffic, Section 3.3).
        """
        total = self.total_bandwidth_mbps()
        if total == 0:
            return 0.0
        return self.total_bandwidth_mbps(TrafficClass.GUARANTEED_THROUGHPUT) / total

    # -- structure ----------------------------------------------------------------------

    def to_networkx(self) -> "nx.DiGraph":
        """A NetworkX view of the process graph (imports NetworkX on first use)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for process in self._processes.values():
            graph.add_node(process.name, process=process)
        for channel in self._channels.values():
            graph.add_edge(
                channel.src,
                channel.dst,
                channel=channel,
                bandwidth=channel.bandwidth_mbps,
            )
        return graph

    def validate(self) -> None:
        """Check structural sanity: non-empty and weakly connected."""
        if not self._processes:
            raise MappingError(f"application {self.name!r} has no processes")
        # Weak connectivity without a graph view (the CCN validates at every
        # admission): grow the set around one process until no channel leaves it.
        reached = {next(iter(self._processes))}
        grown = True
        while grown:
            grown = False
            for channel in self._channels.values():
                if (channel.src in reached) != (channel.dst in reached):
                    reached.update((channel.src, channel.dst))
                    grown = True
        if len(reached) != len(self._processes):
            raise MappingError(f"application {self.name!r} is not connected")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProcessGraph {self.name!r}: {len(self._processes)} processes, "
            f"{len(self._channels)} channels, "
            f"{self.total_bandwidth_mbps():.1f} Mbit/s>"
        )
