"""The per-topology adjacency index against its definitions.

Every topology instance derives its graph once
(:attr:`~repro.noc.topology.GridTopology.adjacency`) and the control plane
reads it: ``neighbors`` / ``port_towards`` / ``directed_links`` / hop
distances, :class:`~repro.noc.routing.RoutingTable` and the admission route
search.  The properties below draw meshes, tori and degraded topologies and
hold each reader to the definition it replaced — ``neighbor()`` walks,
NetworkX, and reference copies of the searches as they were before the index.
The remaining tests keep the index out of equality, hashing, ``repr`` and
pickles, and count the graphs a fault storm builds.
"""

from __future__ import annotations

import dataclasses
import pickle
import subprocess
import sys
from collections import deque
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import topologies
from repro.common import NEIGHBOR_PORTS, AllocationError, Port
from repro.experiments.storm import run_storm
from repro.noc import IrregularMesh, LaneAllocator, Mesh2D, RoutingTable, Torus2D
from repro.noc.topology import GridTopology


# ---------------------------------------------------------------------------
# The definitions (``conftest.topologies`` draws the topologies)
# ---------------------------------------------------------------------------


def neighbors_by_definition(topology, position):
    found = {}
    for port in NEIGHBOR_PORTS:
        neighbor = topology.neighbor(position, port)
        if neighbor is not None:
            found[port] = neighbor
    return found


def graph_by_definition(topology):
    """The DiGraph ``to_networkx`` built before the index, one ``neighbor()`` at a time."""
    graph = nx.DiGraph()
    for position in topology.positions():
        graph.add_node(position)
    for position in topology.positions():
        for neighbor in neighbors_by_definition(topology, position).values():
            graph.add_edge(position, neighbor)
    return graph


class TestIndexEqualsDefinitions:
    @given(topology=topologies())
    @settings(max_examples=60, deadline=None)
    def test_neighbors_ports_and_links(self, topology):
        row_major = [(x, y) for y in range(topology.height) for x in range(topology.width)]
        assert list(topology.positions()) == [p for p in row_major if topology.contains(p)]
        assert topology.size == len(list(topology.positions()))
        links = []
        for position in topology.positions():
            expected = neighbors_by_definition(topology, position)
            assert topology.neighbors(position) == expected
            assert list(topology.neighbors(position)) == list(expected)  # port order
            for port, neighbor in expected.items():
                assert topology.port_towards(position, neighbor) == port
                links.append((position, neighbor))
        assert topology.directed_links() == links
        for position in topology.positions():
            for other in topology.positions():
                if (position, other) not in topology.adjacency.port:
                    with pytest.raises(ValueError, match="not adjacent"):
                        topology.port_towards(position, other)

    @given(topology=topologies())
    @settings(max_examples=40, deadline=None)
    def test_public_views_are_copies(self, topology):
        position = next(topology.positions())
        topology.neighbors(position).clear()
        topology.directed_links().clear()
        topology.to_networkx().clear()
        assert topology.neighbors(position) == neighbors_by_definition(topology, position)
        assert len(topology.directed_links()) == len(topology.adjacency.links)

    @given(topology=topologies())
    @settings(max_examples=40, deadline=None)
    def test_networkx_view_and_adjacency_orders(self, topology):
        expected = graph_by_definition(topology)
        graph = topology.to_networkx()
        assert list(graph.nodes) == list(expected.nodes)
        assert list(graph.edges) == list(expected.edges)
        adjacency = topology.adjacency
        for position in topology.positions():
            # The orders the admission search leans on.
            assert list(adjacency.neighbors[position].values()) == list(expected.succ[position])
            assert adjacency.sources[position] == list(expected.pred[position])

    @given(topology=topologies())
    @settings(max_examples=40, deadline=None)
    def test_hop_distances_equal_networkx(self, topology):
        lengths = dict(nx.all_pairs_shortest_path_length(graph_by_definition(topology)))
        for a in topology.positions():
            hops, via = topology.adjacency.search(a)
            assert hops == lengths[a]
            assert all(hops[node] == hops[closer] + 1 for node, closer in via.items())
            for b in topology.positions():
                assert topology.distance(a, b) == lengths[a][b]

    def test_distance_to_or_from_a_dead_router_is_an_error(self):
        topology = IrregularMesh(Mesh2D(3, 3), broken_routers=[(1, 1)])
        for a, b in (((0, 0), (1, 1)), ((1, 1), (0, 0))):
            with pytest.raises(ValueError, match="no path"):
                topology.distance(a, b)

    def test_connectivity_stays_a_check(self):
        with pytest.raises(ValueError, match="disconnects"):
            IrregularMesh(Mesh2D(3, 1), [((0, 0), (1, 0))])
        with pytest.raises(ValueError, match="disconnects"):
            IrregularMesh(Mesh2D(3, 3), broken_routers=[(1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# Routing tables
# ---------------------------------------------------------------------------


def reference_table(topology, destination):
    """``RoutingTable._build_table`` as it was before it read the index."""
    hops = {destination: 0}
    ports = {}
    frontier = deque([destination])
    while frontier:
        via = frontier.popleft()
        for _port, node in neighbors_by_definition(topology, via).items():
            if node not in hops:
                hops[node] = hops[via] + 1
                ports[node] = next(
                    port for port in NEIGHBOR_PORTS if topology.neighbor(node, port) == via
                )
                frontier.append(node)
    return hops, ports


class TestRoutingTableEqualsReference:
    @given(topology=topologies())
    @settings(max_examples=40, deadline=None)
    def test_port_for_and_distance_over_all_ordered_pairs(self, topology):
        table = RoutingTable(topology)
        plain_mesh = type(topology) is Mesh2D
        for destination in topology.positions():
            hops, ports = reference_table(topology, destination)
            assert table.distances_from(destination) == hops
            for source in topology.positions():
                assert table.distance(source, destination) == hops[source]
                if source == destination:
                    assert table.port_for(source, destination) is Port.TILE
                elif not plain_mesh:  # a plain mesh keeps XY dimension order
                    assert table.port_for(source, destination) is ports[source]

    def test_rebuild_follows_the_degraded_topology(self):
        mesh = Mesh2D(3, 3)
        table = RoutingTable(mesh)
        assert table.port_for((0, 0), (2, 0)) is Port.EAST
        table.rebuild(IrregularMesh(mesh, [((0, 0), (1, 0))]))
        assert table.port_for((0, 0), (2, 0)) is Port.NORTH
        assert table.distance((0, 0), (1, 0)) == 3


# ---------------------------------------------------------------------------
# Admission route search
# ---------------------------------------------------------------------------


def reference_route(allocator, src, dst, units_needed):
    """``AdmissionController._route`` as it was: a filtered DiGraph per call."""
    graph = nx.DiGraph()
    for position in allocator.topology.positions():
        if position not in allocator._dead_routers:
            graph.add_node(position)
    for (a, b), free in allocator._free_link_units.items():
        if (a, b) in allocator._dead_links:
            continue
        if a in allocator._dead_routers or b in allocator._dead_routers:
            continue
        if len(free) >= units_needed:
            graph.add_edge(a, b)
    try:
        return nx.shortest_path(graph, src, dst)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        raise AllocationError(
            f"no route with {units_needed} free {allocator.unit_name}(s) from {src} to {dst}"
        ) from None


class TestRouteEqualsNetworkx:
    @given(data=st.data(), topology=topologies())
    @settings(max_examples=150, deadline=None)
    def test_random_pools_dead_links_and_dead_routers(self, data, topology):
        positions = list(topology.positions())
        if len(positions) < 2:
            return
        lanes = 4
        allocator = LaneAllocator(topology, lanes_per_link=lanes)
        for link, free in allocator._free_link_units.items():
            # Thin the pools unevenly so some links fall below the demand.
            free.intersection_update(range(data.draw(st.integers(0, lanes), label=f"free {link}")))
        links = allocator.topology.directed_links()
        dead_links = data.draw(st.lists(st.sampled_from(links), max_size=3, unique=True))
        dead_routers = data.draw(st.lists(st.sampled_from(positions), max_size=2, unique=True))
        allocator.invalidate_resources(dead_links, dead_routers)
        live = [p for p in positions if p not in dead_routers]
        if len(live) < 2:
            return
        src = data.draw(st.sampled_from(live))
        dst = data.draw(st.sampled_from([p for p in live if p != src]))
        units_needed = data.draw(st.integers(1, lanes))
        try:
            expected = reference_route(allocator, src, dst, units_needed)
        except AllocationError as error:
            with pytest.raises(AllocationError) as raised:
                allocator._route(src, dst, units_needed)
            assert str(raised.value) == str(error)
        else:
            assert allocator._route(src, dst, units_needed) == expected

    def test_admission_builds_no_graph(self):
        assert "networkx" not in vars(sys.modules["repro.noc.admission"])


# ---------------------------------------------------------------------------
# The index is not part of the value
# ---------------------------------------------------------------------------


def warm(topology):
    """Fill the index and one search, as a fabric under load would have."""
    topology.adjacency.search(next(topology.positions()))
    return topology


INSTANCES = [
    lambda: Mesh2D(4, 3),
    lambda: Torus2D(4, 3),
    lambda: IrregularMesh(Mesh2D(4, 3), [((0, 0), (1, 0))], [(3, 2)]),
]


@pytest.mark.parametrize("make", INSTANCES, ids=["mesh", "torus", "irregular"])
class TestIndexStaysOutOfTheValue:
    def test_equality_hash_and_repr_ignore_it(self, make):
        cold, warmed = make(), warm(make())
        assert "adjacency" in vars(warmed)
        assert cold == warmed and hash(cold) == hash(warmed)
        assert repr(cold) == repr(warmed) and "adjacency" not in repr(warmed)

    def test_pickles_travel_without_it(self, make):
        cold, warmed = make(), warm(make())
        if isinstance(warmed, IrregularMesh):
            warm(warmed.base)
        assert pickle.dumps(warmed) == pickle.dumps(cold)
        copy = pickle.loads(pickle.dumps(warmed))
        assert copy == warmed and "adjacency" not in vars(copy)
        assert copy.directed_links() == warmed.directed_links()

    def test_replace_copies_start_cold(self, make):
        warmed = warm(make())
        copy = dataclasses.replace(warmed)
        # (A degraded topology checks its connectivity at construction, so it
        # is born with an index — its own.)
        assert copy == warmed and vars(copy).get("adjacency") is not warmed.adjacency
        if isinstance(warmed, IrregularMesh):
            other = dataclasses.replace(warmed, broken_links=(), broken_routers=())
            assert other.directed_links() == warmed.base.directed_links()
        else:
            other = dataclasses.replace(warmed, width=warmed.width + 1)
            assert len(other.directed_links()) > len(warmed.directed_links())


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------


def test_a_fault_storm_builds_no_graphs(monkeypatch):
    """Eight faults on an 8x8 mesh built 326 topology graphs and 112 route
    graphs when every distance lookup and route search made its own."""
    built = {"to_networkx": 0, "DiGraph": 0}
    to_networkx, init = GridTopology.to_networkx, nx.DiGraph.__init__

    def counted_view(self):
        built["to_networkx"] += 1
        return to_networkx(self)

    def counted_init(self, *args, **kwargs):
        built["DiGraph"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GridTopology, "to_networkx", counted_view)
    monkeypatch.setattr(nx.DiGraph, "__init__", counted_init)
    outcome = run_storm(
        "circuit", Mesh2D(8, 8), storm_size=8, seed=7,
        arrival_spacing=60, fault_spacing=40, cooldown=60,
    )
    assert outcome.result.fault_count == 8
    assert outcome.recovered_or_rejected and outcome.leak_free
    assert built == {"to_networkx": 0, "DiGraph": 0}


def test_the_control_plane_runs_without_importing_networkx():
    """Only the two ``to_networkx`` views need it; a process that never asks
    for one saves the import (≈20 MiB, ≈0.15 s)."""
    script = (
        "import sys\n"
        "from repro.experiments.storm import run_storm\n"
        "from repro.noc import Mesh2D\n"
        "run_storm('packet', Mesh2D(6, 6), storm_size=1, seed=3)\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        "Mesh2D(2, 2).to_networkx()\n"
        "assert 'networkx' in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
