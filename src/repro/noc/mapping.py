"""Run-time spatial mapping of applications onto tiles (Section 1.1).

"The CCN performs the feasibility analysis, spatial mapping, process
allocation and configuration of the tiles and the NoC before the start of an
application."  The mapper implemented here is a greedy constructive placement
followed by a local-search improvement pass:

1. processes are placed in order of decreasing attached communication
   bandwidth, each on the type-compatible free tile that minimises the
   bandwidth-weighted hop count to the already placed neighbours (hop counts
   come from the topology's own graph, so wraparound links and degraded
   meshes are priced correctly);
2. pairwise swaps are then applied while they reduce the total
   bandwidth × hops cost.

This is intentionally a light-weight heuristic — the paper's reference [3]
describes the full run-time mapper — but it produces feasible, near-minimal
mappings for the application graphs of Section 3, which is all the NoC
experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.apps.kpn import Process, ProcessGraph
from repro.common import MappingError
from repro.noc.tile import TileGrid
from repro.noc.topology import Position, Topology

__all__ = ["Mapping", "SpatialMapper"]


@dataclass
class Mapping:
    """Result of mapping one application onto the tile grid."""

    application: str
    placement: Dict[str, Position] = field(default_factory=dict)
    cost_bandwidth_hops: float = 0.0

    def position_of(self, process_name: str) -> Position:
        """Tile position of *process_name*."""
        try:
            return self.placement[process_name]
        except KeyError:
            raise MappingError(
                f"process {process_name!r} is not part of mapping {self.application!r}"
            ) from None

    @property
    def tiles_used(self) -> int:
        """Number of distinct tiles occupied by the application."""
        return len(set(self.placement.values()))


#: The channels attached to one process, in graph order: the channel's index,
#: the process at its other end and its bandwidth.
_Attached = List[Tuple[int, str, float]]


def _total(terms: List[float]) -> float:
    """The terms added left to right from ``0.0``.

    The order is part of the result (float addition does not associate) and
    ``sum()`` compensates its rounding from Python 3.12 on, so the loop is
    spelled out: a cost compares and prints the same on every runtime.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


class SpatialMapper:
    """Greedy + local-search mapper used by the CCN.

    A placement is priced as the sum of one ``bandwidth × hops`` term per
    channel, kept in graph order (``0.0`` while an end is unplaced).  Trying a
    tile or a swap recomputes only the terms of the channels attached to the
    processes that move and adds the list up again, so a candidate costs
    O(degree) multiplications and no distance query: hop counts are read off
    the topology's adjacency index, one breadth-first table per *placed*
    position (hop distance is symmetric), which a degraded topology computes
    once and every later mapping reuses.
    """

    def __init__(self, grid: TileGrid) -> None:
        self.grid = grid

    @property
    def mesh(self) -> Topology:
        """The grid's topology: tiles and hop counts come from the same view."""
        return self.grid.topology

    # -- cost model ----------------------------------------------------------------

    @staticmethod
    def _attached(graph: ProcessGraph) -> Dict[str, _Attached]:
        attached: Dict[str, _Attached] = {process.name: [] for process in graph.processes}
        for index, channel in enumerate(graph.channels):
            attached[channel.src].append((index, channel.dst, channel.bandwidth_mbps))
            attached[channel.dst].append((index, channel.src, channel.bandwidth_mbps))
        return attached

    @staticmethod
    def _placement_order(graph: ProcessGraph, attached: Dict[str, _Attached]) -> List[Process]:
        def attached_bandwidth(process: Process) -> float:
            return sum(bandwidth for _, _, bandwidth in attached[process.name])

        return sorted(graph.processes, key=attached_bandwidth, reverse=True)

    # -- greedy construction --------------------------------------------------------------

    def _centroid(self) -> tuple[float, float]:
        """Mean coordinate of the topology's *actual* router positions.

        On a full grid this equals ``((width-1)/2, (height-1)/2)``; on an
        irregular topology (dead routers, floorplan holes) the centroid
        shifts with the surviving positions, so the first process is centred
        among tiles that really exist.
        """
        positions = list(self.mesh.positions())
        count = len(positions)
        return (
            sum(x for x, _ in positions) / count,
            sum(y for _, y in positions) / count,
        )

    def _greedy(
        self, graph: ProcessGraph, attached: Dict[str, _Attached], terms: List[float]
    ) -> Dict[str, Position]:
        placement: Dict[str, Position] = {}
        used: set = set()
        search = self.mesh.adjacency.search
        cx, cy = self._centroid()
        for process in self._placement_order(graph, attached):
            # Grid-level occupancy is applied only after the whole placement
            # is final, so tiles taken earlier in *this* mapping are excluded
            # via the running set (not by rescanning placement.values()).
            candidates = [
                t.position for t in self.grid.free_tiles_for(process) if t.position not in used
            ]
            if not candidates:
                raise MappingError(
                    f"no free tile of a suitable type for process {process.name!r} "
                    f"(needs one of {sorted(t.value for t in process.tile_types)})"
                )
            if not placement:
                # Prefer central tiles for the first (highest-bandwidth) process.
                best_position = min(candidates, key=lambda p: abs(p[0] - cx) + abs(p[1] - cy))
            else:
                # Only the channels to already placed peers change with the
                # tile tried; each reads the hop table of its peer's position.
                priced = [
                    (index, bandwidth, search(placement[peer])[0])
                    for index, peer, bandwidth in attached[process.name]
                    if peer in placement
                ]
                best_position = candidates[0]
                if priced:  # with no placed peer every tile costs the same
                    best_cost = float("inf")
                    for position in candidates:
                        for index, bandwidth, hops in priced:
                            terms[index] = bandwidth * hops[position]
                        cost = _total(terms)
                        if cost < best_cost:
                            best_cost = cost
                            best_position = position
                    for index, bandwidth, hops in priced:
                        terms[index] = bandwidth * hops[best_position]
            placement[process.name] = best_position
            used.add(best_position)
        return placement

    # -- local search ----------------------------------------------------------------------

    def _improve(
        self,
        graph: ProcessGraph,
        placement: Dict[str, Position],
        attached: Dict[str, _Attached],
        terms: List[float],
        max_rounds: int = 10,
    ) -> None:
        """Swap pairs while that lowers the cost (*placement* and *terms* follow)."""
        names = list(placement)
        processes = {name: graph.process(name) for name in names}
        # Swaps permute the placed positions among themselves.
        search = self.mesh.adjacency.search
        hops_from = {position: search(position)[0] for position in placement.values()}
        type_at = {position: self.grid.tile(position).tile_type for position in hops_from}
        best_cost = _total(terms)
        for _ in range(max_rounds):
            improved = False
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    a, b = names[i], names[j]
                    pa, pb = placement[a], placement[b]
                    # Only swap when both processes tolerate the other's tile type.
                    if not processes[a].can_run_on(type_at[pb]):
                        continue
                    if not processes[b].can_run_on(type_at[pa]):
                        continue
                    placement[a], placement[b] = pb, pa
                    trial = terms.copy()
                    for name in (a, b):
                        hops = hops_from[placement[name]]
                        for index, peer, bandwidth in attached[name]:
                            trial[index] = bandwidth * hops[placement[peer]]
                    cost = _total(trial)
                    if cost < best_cost:
                        best_cost = cost
                        terms[:] = trial
                        improved = True
                    else:
                        placement[a], placement[b] = pa, pb
            if not improved:
                break

    # -- public API ----------------------------------------------------------------------------

    def map(self, graph: ProcessGraph, improve: bool = True) -> Mapping:
        """Produce a mapping and mark the chosen tiles as occupied."""
        graph.validate()
        if len(graph.processes) > self.mesh.size:
            raise MappingError(
                f"application {graph.name!r} has {len(graph.processes)} processes but the "
                f"mesh only offers {self.mesh.size} tiles"
            )
        attached = self._attached(graph)
        terms = [0.0] * len(graph.channels)
        placement = self._greedy(graph, attached, terms)
        if improve:
            self._improve(graph, placement, attached, terms)
        mapping = Mapping(graph.name, placement, _total(terms))
        for process_name, position in placement.items():
            self.grid.tile(position).assign(graph.process(process_name))
        return mapping

    def unmap(self, mapping: Mapping) -> None:
        """Release the tiles held by a previously produced mapping."""
        for position in mapping.placement.values():
            self.grid.tile(position).release()
