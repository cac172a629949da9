"""Processing tiles and the heterogeneous tile grid (Fig. 1).

The SoC contains a heterogeneous set of processing tiles (GPP, DSP, FPGA,
ASIC and domain-specific reconfigurable hardware); the run-time mapper places
each application process on a tile whose type can execute it.  The tile grid
assigns a type to every mesh position — by default in a repeating pattern
similar to the example floorplan of Fig. 1 — and tracks which process
occupies which tile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.apps.kpn import Process, TileType
from repro.common import MappingError
from repro.noc.topology import Position, Topology

__all__ = ["ProcessingTile", "TileGrid", "DEFAULT_TILE_PATTERN"]

#: Repeating tile-type pattern loosely following the example SoC of Fig. 1
#: (a mix of DSPs, ASICs, GPPs, FPGAs and domain-specific reconfigurable
#: hardware).
DEFAULT_TILE_PATTERN: List[TileType] = [
    TileType.DSRH,
    TileType.DSP,
    TileType.ASIC,
    TileType.GPP,
    TileType.FPGA,
    TileType.DSP,
    TileType.DSRH,
    TileType.ASIC,
]


@dataclass
class ProcessingTile:
    """One processing tile of the SoC."""

    position: Position
    tile_type: TileType
    name: str = ""
    process: Optional[str] = None
    #: Clock-domain frequency of the tile (the architecture allows individual
    #: clock domains per tile; only recorded, not simulated).
    frequency_mhz: float = 100.0

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"tile_{self.position[0]}_{self.position[1]}"

    @property
    def occupied(self) -> bool:
        """True when a process has been mapped onto this tile."""
        return self.process is not None

    def assign(self, process: Process) -> None:
        """Map *process* onto this tile (type compatibility is enforced)."""
        if self.occupied:
            raise MappingError(f"tile {self.name} already runs {self.process!r}")
        if not process.can_run_on(self.tile_type):
            raise MappingError(
                f"process {process.name!r} cannot run on a {self.tile_type.value} tile"
            )
        self.process = process.name

    def release(self) -> None:
        """Remove the mapped process (tile becomes available again)."""
        self.process = None


class TileGrid:
    """The tiles of a topology, with their types and occupancy."""

    def __init__(
        self,
        topology: Topology,
        pattern: Optional[Iterable[TileType]] = None,
        overrides: Optional[Dict[Position, TileType]] = None,
    ) -> None:
        pattern_list = list(pattern) if pattern is not None else list(DEFAULT_TILE_PATTERN)
        if not pattern_list:
            raise ValueError("tile pattern must not be empty")
        overrides = overrides or {}
        self._tiles: Dict[Position, ProcessingTile] = {}
        for index, position in enumerate(topology.positions()):
            tile_type = overrides.get(position, pattern_list[index % len(pattern_list)])
            self._tiles[position] = ProcessingTile(position, tile_type)
        self.topology = topology

    # -- access ---------------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The topology whose positions carry tiles.

        Assigning a degraded view of it (the CCN does after a fault) takes the
        dead routers' tiles out of every listing below.
        """
        return self._topology

    @topology.setter
    def topology(self, topology: Topology) -> None:
        self._topology = topology
        # Row-major, derived once per topology: the mapper lists the free
        # tiles for every process of every application it places.
        self._row_major = [self._tiles[p] for p in topology.positions()]

    @property
    def mesh(self) -> Topology:
        """Alias of :attr:`topology`; the attribute predates non-mesh fabrics."""
        return self._topology

    def tile(self, position: Position) -> ProcessingTile:
        """The tile at *position*."""
        try:
            return self._tiles[position]
        except KeyError:
            raise MappingError(f"no tile at position {position}") from None

    @property
    def tiles(self) -> List[ProcessingTile]:
        """All tiles in row-major order."""
        return list(self._row_major)

    def tiles_of_type(self, tile_type: TileType, free_only: bool = False) -> List[ProcessingTile]:
        """Tiles of a given type, optionally restricted to unoccupied ones."""
        return [
            tile
            for tile in self._row_major
            if tile.tile_type == tile_type and (not free_only or not tile.occupied)
        ]

    def free_tiles_for(self, process: Process) -> List[ProcessingTile]:
        """Unoccupied tiles that can execute *process*."""
        return [
            tile
            for tile in self._row_major
            if tile.process is None and process.can_run_on(tile.tile_type)
        ]

    def position_of(self, process_name: str) -> Position:
        """Mesh position of the tile running *process_name*."""
        for tile in self._row_major:
            if tile.process == process_name:
                return tile.position
        raise MappingError(f"process {process_name!r} is not mapped onto any tile")

    def release_all(self) -> None:
        """Unmap every process (used between applications and in tests)."""
        for tile in self._row_major:
            tile.release()

    def occupancy(self) -> float:
        """Fraction of tiles currently running a process."""
        occupied = sum(1 for tile in self._row_major if tile.occupied)
        return occupied / len(self._tiles)

    def type_histogram(self) -> Dict[TileType, int]:
        """Number of tiles per tile type (useful for reports and tests)."""
        histogram: Dict[TileType, int] = {}
        for tile in self._row_major:
            histogram[tile.tile_type] = histogram.get(tile.tile_type, 0) + 1
        return histogram
