"""Network-agnostic admission control: route search over per-link resource pools.

Admitting a guaranteed-throughput channel always has the same shape,
whatever the network kind multiplexes its links with:

1. translate the channel's bandwidth requirement into a number of discrete
   per-link resource *units*,
2. find a route on which every directed link still has that many free units,
3. reserve one unit set per link (plus the tile ingress/egress resources at
   the endpoints) transactionally, rolling back on failure,
4. remember the reservation so it can be torn down again.

What a *unit* is differs per network: the paper's circuit-switched fabric
divides every link into physically separate **lanes**
(:class:`repro.noc.path_allocation.LaneAllocator`), while an Æthereal-style
guaranteed-throughput fabric divides every link into **TDMA slots** of a
revolving slot table (:class:`repro.noc.slot_table.SlotTableAllocator`), whose
reservations must additionally be *aligned* along the route.  This module
provides the shared machinery — the pools, the filtered shortest-path search,
the allocation registry, utilization reporting and transactional release —
so a concrete admission controller only implements the unit arithmetic and
the per-circuit reservation rule.

The route search builds no graph: it walks the topology's adjacency index
(:attr:`repro.noc.topology.GridTopology.adjacency`, derived once per topology
instance) and filters each link against the controller's own pools.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, List, Set, Tuple

from repro.common import AllocationError
from repro.noc.topology import Position, Topology

__all__ = ["AdmissionController"]


class AdmissionController(abc.ABC):
    """Tracks free per-link resource units and allocates channels on any topology.

    The controller works purely on the topology's directed-link graph, so the
    same code admits channels over the paper's mesh, across a torus wraparound
    link, or around the missing links of a degraded mesh.  Subclasses define

    * :attr:`unit_name` — what one resource unit is called in messages,
    * :meth:`units_required` — bandwidth → number of units,
    * :meth:`_new_allocation` — the (empty) allocation record of one channel,
    * :meth:`_allocate_circuits` — reserve the units of one channel along a
      route (transactional: must roll back its own reservations on failure),
    * :meth:`_release_circuit` — return one circuit's units to the pools.
    """

    #: Human-readable name of one resource unit (``"lane"``, ``"slot"``).
    unit_name: str = "unit"

    def __init__(self, topology: Topology, units_per_link: int) -> None:
        if units_per_link < 1:
            raise ValueError("units_per_link must be positive")
        self.topology = topology
        #: Backwards-compatible alias; the attribute predates non-mesh fabrics.
        self.mesh = topology
        self.units_per_link = units_per_link
        all_units = set(range(units_per_link))
        #: Free units of every directed router-to-router link.
        self._free_link_units: Dict[Tuple[Position, Position], Set[int]] = {
            link: set(all_units) for link in topology.directed_links()
        }
        #: Free tile-ingress units (tile → network) per router.
        self._free_tile_tx: Dict[Position, Set[int]] = {
            pos: set(all_units) for pos in topology.positions()
        }
        #: Free tile-egress units (network → tile) per router.
        self._free_tile_rx: Dict[Position, Set[int]] = {
            pos: set(all_units) for pos in topology.positions()
        }
        self._allocations: Dict[str, Any] = {}
        #: Directed links invalidated by run-time faults.  The pools behind
        #: them stay alive — circuits allocated before the fault must still
        #: release their units without leaking — but the route search and
        #: the free-unit queries treat the links as having no capacity.
        self._dead_links: Set[Tuple[Position, Position]] = set()
        #: Router positions invalidated by run-time faults.
        self._dead_routers: Set[Position] = set()

    # -- fault invalidation ------------------------------------------------------------

    def invalidate_resources(
        self,
        dead_links: Iterable[Tuple[Position, Position]] = (),
        dead_routers: Iterable[Position] = (),
    ) -> None:
        """Take dead links/routers out of admission without touching held units.

        Links are invalidated in both directions; a dead router invalidates
        every link incident to it.  Existing allocations over the dead
        resources stay registered (their owner releases them during fault
        recovery, returning every unit to the — now unroutable — pools, so
        :meth:`link_utilization` still drops back to zero).
        """
        for a, b in dead_links:
            self._dead_links.add((a, b))
            self._dead_links.add((b, a))
        for position in dead_routers:
            self._dead_routers.add(position)
            for link in self._free_link_units:
                if position in link:
                    self._dead_links.add(link)

    @property
    def dead_links(self) -> Set[Tuple[Position, Position]]:
        """Directed links currently invalidated by faults (a copy)."""
        return set(self._dead_links)

    @property
    def dead_routers(self) -> Set[Position]:
        """Router positions currently invalidated by faults (a copy)."""
        return set(self._dead_routers)

    # -- capacity arithmetic -----------------------------------------------------------

    @abc.abstractmethod
    def unit_capacity_mbps(self, frequency_hz: float) -> float:
        """Payload bandwidth one resource unit guarantees at the network clock."""

    @abc.abstractmethod
    def units_required(self, bandwidth_mbps: float, frequency_hz: float) -> int:
        """Units needed to carry *bandwidth_mbps* at the network clock."""

    # -- queries ---------------------------------------------------------------------------

    def free_units(self, src: Position, dst: Position) -> int:
        """Number of free units on the directed link from *src* to *dst*.

        A link invalidated by a fault reports zero capacity even while its
        pool still holds (or is still owed) units.
        """
        try:
            units = self._free_link_units[(src, dst)]
        except KeyError:
            raise AllocationError(f"no link from {src} to {dst} in the topology") from None
        if (src, dst) in self._dead_links:
            return 0
        return len(units)

    def allocation(self, channel_name: str) -> Any:
        """The allocation previously made for *channel_name*."""
        try:
            return self._allocations[channel_name]
        except KeyError:
            raise AllocationError(f"no allocation for channel {channel_name!r}") from None

    @property
    def allocations(self) -> List[Any]:
        """All current allocations in insertion order."""
        return list(self._allocations.values())

    def link_utilization(self) -> float:
        """Fraction of all link units currently allocated."""
        total = len(self._free_link_units) * self.units_per_link
        free = sum(len(units) for units in self._free_link_units.values())
        return (total - free) / total if total else 0.0

    # -- route search ----------------------------------------------------------------------

    def _route(self, src: Position, dst: Position, units_needed: int) -> List[Position]:
        """Shortest path on which every link still has *units_needed* free units.

        *src* and *dst* are distinct live routers (:meth:`allocate` checks; a
        dead router's links are all dead).  A breadth-first search from both
        ends over the live links with enough free units: the smaller fringe
        expands first (the forward one on a tie), successors in port order,
        predecessors in link order, and the first position both sides know
        joins the halves.  Among equally short routes that is the one
        ``networkx.shortest_path`` returned on a ``DiGraph`` of those links in
        pool order, which this search replaced; every downstream statistic
        depends on the choice, so the visiting order is part of the contract.
        """
        adjacency = self.topology.adjacency
        free, dead = self._free_link_units, self._dead_links
        #: Per side (0 forward from src, 1 backward from dst): the search tree
        #: position -> hop towards that side's root, and the current fringe.
        trees: List[Dict[Position, Any]] = [{src: None}, {dst: None}]
        fringes = [[src], [dst]]
        while fringes[0] and fringes[1]:
            side = int(len(fringes[0]) > len(fringes[1]))
            known, other = trees[side], trees[1 - side]
            level, fringes[side] = fringes[side], []
            for at in level:
                for node in adjacency.sources[at] if side else adjacency.neighbors[at].values():
                    link = (node, at) if side else (at, node)
                    if len(free[link]) >= units_needed and link not in dead:
                        if node not in known:
                            known[node] = at
                            fringes[side].append(node)
                        if node in other:
                            route = [node]
                            while trees[0][route[-1]] is not None:
                                route.append(trees[0][route[-1]])
                            route.reverse()
                            while trees[1][route[-1]] is not None:
                                route.append(trees[1][route[-1]])
                            return route
        raise AllocationError(
            f"no route with {units_needed} free {self.unit_name}(s) from {src} to {dst}"
        )

    # -- allocation --------------------------------------------------------------------------

    @abc.abstractmethod
    def _new_allocation(
        self, channel_name: str, src: Position, dst: Position, bandwidth_mbps: float
    ) -> Any:
        """A fresh (circuit-less) allocation record for one channel."""

    @abc.abstractmethod
    def _allocate_circuits(
        self, channel_name: str, route: List[Position], units_needed: int
    ) -> List[Any]:
        """Reserve *units_needed* circuits along *route* (rolls back on failure)."""

    def allocate(
        self,
        channel_name: str,
        src: Position,
        dst: Position,
        bandwidth_mbps: float,
        frequency_hz: float,
    ) -> Any:
        """Allocate the circuits for one channel; raises :class:`AllocationError`.

        The allocation is transactional: if any resource along the chosen
        route is unavailable the partial reservation is rolled back.
        """
        if channel_name in self._allocations:
            raise AllocationError(f"channel {channel_name!r} is already allocated")
        for position in (src, dst):
            if not self.topology.contains(position):
                raise AllocationError(f"position {position} is outside the topology")
            if position in self._dead_routers:
                raise AllocationError(f"router at {position} is dead")

        allocation = self._new_allocation(channel_name, src, dst, bandwidth_mbps)
        if src == dst:
            # Tile-local channel: nothing to allocate on the network.
            self._allocations[channel_name] = allocation
            return allocation

        units_needed = self.units_required(bandwidth_mbps, frequency_hz)
        route = self._route(src, dst, units_needed)
        allocation.circuits = self._allocate_circuits(channel_name, route, units_needed)
        self._allocations[channel_name] = allocation
        return allocation

    # -- release -----------------------------------------------------------------------------

    @abc.abstractmethod
    def _release_circuit(self, circuit: Any) -> None:
        """Return every unit held by one circuit to the pools."""

    def release(self, channel_name: str) -> None:
        """Free every resource held by *channel_name*."""
        allocation = self.allocation(channel_name)
        for circuit in allocation.circuits:
            self._release_circuit(circuit)
        del self._allocations[channel_name]
