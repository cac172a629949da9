"""Topology protocol invariants and topology-generic network behaviour.

Every :class:`~repro.noc.topology.Topology` implementation must present the
same contract to the fabric layer: symmetric directed links, consistent
``port_towards``/``neighbor`` round trips, and a hop metric that matches the
link graph.  On top of that, both network kinds must construct on a mesh, a
torus and a degraded mesh via :func:`~repro.noc.fabric.build_network`,
allocate circuits / route packets on each, and deliver the offered traffic —
including across a torus wraparound link.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oracle import assert_identical, ran
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.common import Port, opposite_port
from repro.noc import (
    CentralCoordinationNode,
    CircuitSwitchedNoC,
    IrregularMesh,
    LaneAllocator,
    Mesh2D,
    PacketSwitchedNoC,
    RoutingTable,
    Torus2D,
    build_network,
    network_kinds,
)
from repro.baseline.routing import path_ports, xy_route

FREQUENCY_HZ = 100e6

BROKEN = (((0, 0), (1, 0)), ((1, 1), (1, 2)))


def make_topologies():
    """One representative instance per topology kind."""
    return [
        Mesh2D(4, 3),
        Torus2D(4, 3),
        IrregularMesh(Mesh2D(4, 3), BROKEN),
    ]


topology_params = pytest.mark.parametrize(
    "topology", make_topologies(), ids=lambda t: type(t).__name__
)


class TestTopologyInvariants:
    @topology_params
    def test_directed_links_are_symmetric(self, topology):
        links = set(topology.directed_links())
        assert links, "a topology must have links"
        for a, b in links:
            assert (b, a) in links, f"missing reverse link for {a}->{b}"

    @topology_params
    def test_directed_links_are_unique_channels(self, topology):
        links = topology.directed_links()
        assert len(links) == len(set(links))

    @topology_params
    def test_port_towards_neighbor_round_trip(self, topology):
        for position in topology.positions():
            neighbors = topology.neighbors(position)
            for port, neighbor in neighbors.items():
                assert topology.port_towards(position, neighbor) == port
                # The link is bidirectional: the neighbour sees us behind the
                # opposite port.
                assert topology.neighbor(neighbor, opposite_port(port)) == position

    @topology_params
    def test_distance_matches_graph_shortest_path(self, topology):
        import networkx as nx

        graph = topology.to_networkx()
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        for a in topology.positions():
            for b in topology.positions():
                assert topology.distance(a, b) == lengths[a][b], (a, b)

    @settings(max_examples=20, deadline=None)
    @given(width=st.integers(min_value=3, max_value=6), height=st.integers(min_value=3, max_value=6))
    def test_torus_degree_is_four_everywhere(self, width, height):
        torus = Torus2D(width, height)
        for position in torus.positions():
            neighbors = torus.neighbors(position)
            assert len(neighbors) == 4
            assert len(set(neighbors.values())) == 4
        assert len(torus.directed_links()) == 4 * torus.size

    def test_torus_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            Torus2D(2, 4)

    def test_irregular_mesh_drops_links_both_directions(self):
        topology = IrregularMesh(Mesh2D(4, 3), BROKEN)
        links = set(topology.directed_links())
        for a, b in BROKEN:
            assert (a, b) not in links and (b, a) not in links
            assert topology.neighbor(a, Mesh2D(4, 3).port_towards(a, b)) is None
        assert len(links) == len(set(Mesh2D(4, 3).directed_links())) - 2 * len(BROKEN)

    def test_irregular_mesh_rejects_unknown_links(self):
        with pytest.raises(ValueError, match="absent from the base topology"):
            IrregularMesh(Mesh2D(3, 3), [((0, 0), (2, 2))])

    def test_irregular_mesh_rejects_disconnection(self):
        with pytest.raises(ValueError, match="disconnects"):
            IrregularMesh(Mesh2D(2, 1), [((0, 0), (1, 0))])


class TestRoutingTable:
    @settings(max_examples=50, deadline=None)
    @given(
        src=st.tuples(st.integers(0, 4), st.integers(0, 3)),
        dst=st.tuples(st.integers(0, 4), st.integers(0, 3)),
    )
    def test_mesh_table_is_dimension_order(self, src, dst):
        table = RoutingTable(Mesh2D(5, 4))
        assert table.port_for(src, dst) == xy_route(src, dst)
        assert table.path_ports(src, dst) == path_ports(src, dst)
        assert table.distance(src, dst) == abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    @topology_params
    def test_paths_are_shortest_and_terminate(self, topology):
        table = RoutingTable(topology)
        for src in topology.positions():
            for dst in topology.positions():
                positions = table.path_positions(src, dst)
                assert positions[0] == src and positions[-1] == dst
                assert len(positions) - 1 == topology.distance(src, dst)
                ports = table.path_ports(src, dst)
                assert ports[-1] is Port.TILE
                assert len(ports) - 1 == topology.distance(src, dst)

    def test_torus_wraparound_is_one_hop(self):
        table = RoutingTable(Torus2D(4, 3))
        assert table.distance((0, 0), (3, 0)) == 1
        assert table.port_for((0, 0), (3, 0)) == Port.WEST
        assert table.path_positions((0, 0), (3, 0)) == [(0, 0), (3, 0)]

    def test_degraded_mesh_routes_around_broken_link(self):
        topology = IrregularMesh(Mesh2D(4, 3), BROKEN)
        table = RoutingTable(topology)
        path = table.path_positions((0, 0), (1, 0))
        assert len(path) - 1 == topology.distance((0, 0), (1, 0)) > 1
        for a, b in zip(path, path[1:]):
            assert b in topology.neighbors(a).values()


class TestTopologyGenericNetworks:
    """Acceptance: both kinds build, configure and deliver on every topology."""

    @topology_params
    @pytest.mark.parametrize("kind", ["circuit", "packet"])
    def test_factory_builds_and_delivers(self, topology, kind):
        network = build_network(kind, topology, frequency_hz=FREQUENCY_HZ)
        expected = {"circuit": CircuitSwitchedNoC, "packet": PacketSwitchedNoC}[kind]
        assert type(network) is expected
        assert set(network.links) == set(topology.directed_links())

        pairs = [((0, 0), (3, 2)), ((2, 1), (0, 2))]
        if kind == "circuit":
            allocator = LaneAllocator(topology)
            for index, (src, dst) in enumerate(pairs):
                name = f"s{index}"
                allocation = allocator.allocate(name, src, dst, 100.0, FREQUENCY_HZ)
                network.apply_allocation(allocation)
                generator = word_generator(BitFlipPattern.TYPICAL, seed=index)
                network.add_stream(name, allocation, generator, load=0.8)
        else:
            for index, (src, dst) in enumerate(pairs):
                generator = word_generator(BitFlipPattern.TYPICAL, seed=index)
                network.add_stream(f"s{index}", src, dst, generator, load=0.8)

        network.run(600)
        for name, stats in network.stream_statistics().items():
            assert stats["sent"] > 0, name
            assert stats["sent"] - stats["received"] <= 16, (name, stats)
        assert network.total_power().total_uw > 0
        assert network.energy_per_delivered_bit_pj() < float("inf")

    def test_network_kinds_cover_both_fabrics_and_aliases(self):
        kinds = network_kinds()
        assert {"circuit", "circuit_switched", "cs", "packet", "packet_switched", "ps"} <= set(kinds)
        with pytest.raises(Exception, match="unknown network kind"):
            build_network("optical", Mesh2D(2, 2))

    def test_circuit_stream_crosses_torus_wraparound(self):
        """A circuit over the wrap link uses it (1 hop) and delivers every word."""
        torus = Torus2D(4, 3)
        network = CircuitSwitchedNoC(torus, frequency_hz=FREQUENCY_HZ)
        allocation = LaneAllocator(torus).allocate("wrap", (0, 0), (3, 0), 100.0, FREQUENCY_HZ)
        assert allocation.circuits[0].route == ((0, 0), (3, 0))
        assert allocation.circuits[0].hops[0].out_port == Port.WEST
        network.apply_allocation(allocation)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=3)
        endpoints = network.add_stream("wrap", allocation, generator, load=1.0)
        network.run(500)
        assert endpoints.words_sent > 0
        # Only the words still in the two-router pipeline may be outstanding.
        assert endpoints.words_sent - endpoints.words_received <= 4

    def test_packet_stream_crosses_torus_wraparound(self):
        torus = Torus2D(4, 3)
        network = PacketSwitchedNoC(torus, frequency_hz=FREQUENCY_HZ)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=5)
        network.add_stream("wrap", (0, 0), (3, 0), generator, load=0.8)
        network.run(500)
        stats = network.stream_statistics()["wrap"]
        assert stats["sent"] > 0
        # At most the last packet may still be in the two-router pipeline.
        assert stats["received"] > 0
        assert stats["sent"] - stats["received"] <= network.words_per_packet
        # The wrap link was used: the packets went (0,0) -> (3,0) directly,
        # never through the routers of the long way round.
        assert network.router_at((3, 0)).activity.get("traffic.flits_routed") > 0
        for detour in ((1, 0), (2, 0)):
            assert network.router_at(detour).activity.get("traffic.flits_routed") == 0

    def test_strict_and_auto_schedules_agree_on_torus(self):
        """The PR-1 kernel invariant holds beyond the mesh."""

        def scenario(**params):
            torus = Torus2D(3, 3)
            network = CircuitSwitchedNoC(torus, frequency_hz=FREQUENCY_HZ, **params)
            allocation = LaneAllocator(torus).allocate("s", (0, 0), (2, 2), 100.0, FREQUENCY_HZ)
            network.apply_allocation(allocation)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=11)
            network.add_stream("s", allocation, generator, load=0.6)
            return ran(network, 400)

        assert_identical(scenario)


class TestPacketRingTraffic:
    """Every tile of a 5x5 fabric streams two hops east, one VC, shallow FIFOs."""

    @pytest.mark.parametrize("topology", [
        pytest.param(Mesh2D(5, 5), id="mesh"),
        pytest.param(Torus2D(5, 5), id="torus", marks=pytest.mark.xfail(
            strict=True, reason="packet routing on a torus deadlocks silently: 0 words delivered (ROADMAP item 11)")),
    ])
    def test_every_word_is_delivered_after_a_drain(self, topology):
        network = build_network("packet", topology, num_vcs=1, fifo_depth=2, words_per_packet=16)
        for x, y in topology.positions():
            network.attach_channel(f"t{x}_{y}", (x, y), ((x + 2) % 5, y), 80.0,
                                   word_generator(BitFlipPattern.TYPICAL, seed=5 * x + y), load=1.0)
        network.run(2000)
        for name in list(network.streams):
            network.halt_stream(name)
        network.run(2000)
        stats = network.stream_statistics()
        assert all(s["sent"] >= 300 for s in stats.values())
        assert {name: s["received"] for name, s in stats.items()} == {name: s["sent"] for name, s in stats.items()}


class TestCcnOnAlternativeTopologies:
    @pytest.mark.parametrize(
        "topology",
        [Torus2D(4, 4), IrregularMesh(Mesh2D(4, 4), (((1, 1), (2, 1)),))],
        ids=["torus", "degraded"],
    )
    def test_admission_pipeline_runs_end_to_end(self, topology):
        from repro.apps import hiperlan2

        ccn = CentralCoordinationNode(topology, network_frequency_hz=FREQUENCY_HZ)
        network = CircuitSwitchedNoC(topology, frequency_hz=FREQUENCY_HZ)
        admission = ccn.admit(hiperlan2.build_process_graph(), network)
        assert network.configured_circuits() > 0
        assert admission.delivery is not None and admission.delivery.meets_paper_targets()
        generator = word_generator(BitFlipPattern.TYPICAL, seed=7)
        for allocation in admission.allocations:
            network.add_stream(allocation.channel_name, allocation, generator, load=0.5)
        network.run(600)
        delivered = sum(s["received"] for s in network.stream_statistics().values())
        assert delivered > 0


class TestDimensionOrderSingleSource:
    """The XY arithmetic lives in repro.noc.routing; baseline consumes it."""

    def test_baseline_xy_route_delegates_to_noc_routing(self):
        from repro.noc.routing import dimension_order_route

        for current in Mesh2D(5, 5).positions():
            for dest in Mesh2D(5, 5).positions():
                assert xy_route(current, dest) == dimension_order_route(current, dest)

    @settings(max_examples=40, deadline=None)
    @given(
        current=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        dest=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    )
    def test_routing_table_equals_xy_route_on_plain_mesh(self, current, dest):
        table = RoutingTable(Mesh2D(5, 5))
        assert table.port_for(current, dest) == xy_route(current, dest)


class TestBrokenRouters:
    """IrregularMesh with whole router positions removed (dead routers)."""

    DEAD = (1, 1)

    def _topology(self):
        return IrregularMesh(Mesh2D(4, 3), broken_routers=[self.DEAD])

    def test_membership_and_size(self):
        topology = self._topology()
        assert topology.size == 11
        assert not topology.contains(self.DEAD)
        assert self.DEAD not in list(topology.positions())
        with pytest.raises(ValueError):
            topology.router_name(self.DEAD)

    def test_links_incident_to_the_dead_router_vanish(self):
        topology = self._topology()
        for src, dst in topology.directed_links():
            assert self.DEAD not in (src, dst)
        base_links = len(Mesh2D(4, 3).directed_links())
        # The dead router had four neighbours: eight directed links gone.
        assert len(topology.directed_links()) == base_links - 8
        for port, neighbor in topology.neighbors((1, 0)).items():
            assert neighbor != self.DEAD

    def test_distance_routes_around_the_hole(self):
        topology = self._topology()
        # (1, 0) -> (1, 2) is 2 hops on the full mesh, 4 around the hole.
        assert topology.distance((1, 0), (1, 2)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            IrregularMesh(Mesh2D(3, 3), broken_routers=[(9, 9)])
        # Removing the centre of a 3x3 plus a corner-adjacent link may
        # disconnect; removing a full row certainly does on a 3x1.
        with pytest.raises(ValueError):
            IrregularMesh(Mesh2D(3, 1), broken_routers=[(1, 0)])
        with pytest.raises(ValueError):
            IrregularMesh(
                Mesh2D(3, 3),
                broken_routers=[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
            )

    def test_broken_links_and_routers_combine(self):
        topology = IrregularMesh(
            Mesh2D(4, 3), broken_links=[((2, 0), (3, 0))], broken_routers=[self.DEAD]
        )
        assert topology.size == 11
        assert ((2, 0), (3, 0)) not in topology.directed_links()
        assert topology.distance((2, 0), (3, 0)) == 3

    def test_network_builds_without_a_router_at_the_hole(self):
        topology = self._topology()
        network = build_network("circuit", topology, frequency_hz=FREQUENCY_HZ)
        assert self.DEAD not in network.routers
        assert len(network.routers) == 11
        assert len(network.links) == len(topology.directed_links())

    def test_tile_grid_and_mapper_skip_the_hole(self):
        from repro.apps import hiperlan2
        from repro.noc import SpatialMapper, TileGrid

        topology = self._topology()
        grid = TileGrid(topology)
        assert len(grid.tiles) == 11
        mapping = SpatialMapper(grid).map(hiperlan2.build_process_graph())
        assert self.DEAD not in mapping.placement.values()

    def test_centroid_follows_surviving_positions(self):
        from repro.noc import SpatialMapper, TileGrid

        full = SpatialMapper(TileGrid(Mesh2D(4, 3)))
        # On the full grid the centroid equals the closed-form centre.
        assert full._centroid() == ((4 - 1) / 2, (3 - 1) / 2)
        holed = SpatialMapper(TileGrid(self._topology()))
        cx, cy = holed._centroid()
        assert (cx, cy) != ((4 - 1) / 2, (3 - 1) / 2)
        positions = list(self._topology().positions())
        assert cx == pytest.approx(sum(x for x, _ in positions) / len(positions))
        assert cy == pytest.approx(sum(y for _, y in positions) / len(positions))
