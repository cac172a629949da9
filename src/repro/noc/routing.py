"""Table-driven routing derived from a topology graph.

The packet-switched baseline and the best-effort configuration network both
need an answer to "which output port leads from here towards there?".  On the
paper's mesh that answer is XY dimension-order routing; on a torus or a
degraded mesh coordinate arithmetic no longer works, so this module
precomputes a per-router routing table from the topology graph instead:

* on a plain :class:`~repro.noc.topology.Mesh2D` the table *is* dimension
  order (:func:`dimension_order_route`, which the baseline's ``xy_route``
  is an alias of), keeping the
  paper's routing — and every activity counter downstream of it —
  bit-identical to the hard-coded arithmetic it replaces;
* on any other topology a breadth-first search per destination yields
  deterministic shortest-path next hops (ties broken in
  :data:`~repro.common.NEIGHBOR_PORTS` order), which follow wraparound links
  on a torus and route around missing links on an irregular mesh.  The
  search is the topology's own
  (:meth:`repro.noc.topology.Adjacency.search`, one per position and
  topology instance): the table only translates its ``via`` map into ports,
  and hop distances are read straight from it.

Routers consume the table through :meth:`RoutingTable.port_for`, which has
the same ``(current, dest) -> Port`` shape as ``xy_route``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common import ConfigurationError, Port
from repro.noc.topology import Mesh2D, Position, Topology

__all__ = ["dimension_order_route", "RoutingTable"]


def dimension_order_route(current: Position, dest: Position) -> Port:
    """XY dimension-order routing: the output port chosen at *current*.

    First corrects the x coordinate, then the y coordinate, and delivers to
    the local tile when both match — deterministic, deadlock-free on a mesh,
    and the paper's routing.  This is the single source of the dimension-order
    arithmetic; :mod:`repro.baseline.routing` re-exports it as ``xy_route``.
    """
    cx, cy = current
    dx, dy = dest
    if dx > cx:
        return Port.EAST
    if dx < cx:
        return Port.WEST
    if dy > cy:
        return Port.NORTH
    if dy < cy:
        return Port.SOUTH
    return Port.TILE


class RoutingTable:
    """Precomputed destination → output-port tables for one topology.

    Deterministic and minimal: every entry sends a packet one hop closer to
    its destination, so table-driven routes are shortest paths and loop-free
    by construction.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: Plain meshes keep the paper's XY dimension-order routing verbatim.
        self._dimension_order = type(topology) is Mesh2D
        # Per-destination tables, built lazily on first query so that a
        # network only pays for the destinations its traffic actually uses.
        self._next_port: Dict[Position, Dict[Position, Port]] = {}

    def rebuild(self, topology: Topology) -> None:
        """Re-derive every table from *topology* (run-time fault recovery).

        Mutates this table in place rather than returning a new one: the
        routers hold a bound reference to :meth:`port_for`, so after a
        mid-run fault the network swaps the topology underneath them and
        their very next routing query follows the degraded graph.  A plain
        mesh degrading to an irregular one also loses the dimension-order
        fast path (XY would route straight into the dead resource).
        """
        self.topology = topology
        self._dimension_order = type(topology) is Mesh2D
        self._next_port.clear()

    def _table(self, destination: Position) -> Dict[Position, Port]:
        table = self._next_port.get(destination)
        if table is None:
            # The reverse edge node -> via exists because links are symmetric;
            # the search's first discovery wins, which makes the tie-break its
            # visit order (stable and deterministic).
            adjacency = self.topology.adjacency
            _hops, via = adjacency.search(self._checked(destination))
            table = self._next_port[destination] = {
                node: adjacency.port[(node, closer)] for node, closer in via.items()
            }
        return table

    def _checked(self, position: Position) -> Position:
        if not self.topology.contains(position):
            raise ConfigurationError(f"position {position} is outside the topology")
        return position

    # -- queries ---------------------------------------------------------------------

    def port_for(self, current: Position, dest: Position) -> Port:
        """Output port chosen at *current* for traffic heading to *dest*.

        Returns :attr:`Port.TILE` on arrival, mirroring ``xy_route``.
        """
        if current == dest:
            return Port.TILE
        if self._dimension_order:
            return dimension_order_route(current, dest)
        try:
            return self._table(dest)[current]
        except KeyError:
            raise ConfigurationError(f"no route from {current} to {dest}") from None

    def distance(self, src: Position, dest: Position) -> int:
        """Number of router-to-router hops from *src* to *dest*."""
        if self._dimension_order:
            return self.topology.distance(src, dest)
        try:
            return self.distances_from(dest)[src]
        except KeyError:
            raise ConfigurationError(f"no route from {src} to {dest}") from None

    def distances_from(self, source: Position) -> Dict[Position, int]:
        """Hop distances from *source* to every reachable position.

        The protocol guarantees symmetric links, so the distances *towards*
        *source* equal the distances *from* it; the topology's one
        breadth-first search per position serves the whole map (the
        best-effort network's latency model reads it once per CCN placement).
        """
        return self.topology.adjacency.search(self._checked(source))[0]

    def path_positions(self, src: Position, dest: Position) -> List[Position]:
        """The router positions a packet visits from *src* to *dest*, inclusive."""
        positions = [src]
        current = src
        while current != dest:
            port = self.port_for(current, dest)
            following = self.topology.neighbor(current, port)
            if following is None:  # pragma: no cover - tables only use live links
                raise ConfigurationError(f"routing table points at a missing link at {current}")
            positions.append(following)
            current = following
        return positions

    def path_ports(self, src: Position, dest: Position) -> List[Port]:
        """Output ports taken from *src* to *dest*, ending with :attr:`Port.TILE`."""
        positions = self.path_positions(src, dest)
        ports = [self.topology.port_towards(a, b) for a, b in zip(positions, positions[1:])]
        ports.append(Port.TILE)
        return ports
