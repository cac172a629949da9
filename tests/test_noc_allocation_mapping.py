"""Tests for lane allocation, spatial mapping and the best-effort network."""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from conftest import topologies
from repro.apps import hiperlan2, umts
from repro.apps.kpn import Channel, Process, ProcessGraph, TileType
from repro.common import AllocationError, MappingError, Port
from repro.noc.be_network import BestEffortNetwork, BestEffortParameters
from repro.noc.mapping import Mapping, SpatialMapper
from repro.noc.path_allocation import LaneAllocator
from repro.noc.tile import TileGrid
from repro.noc.topology import Adjacency, IrregularMesh, Mesh2D, Position


class TestLaneAllocatorCapacity:
    def setup_method(self):
        self.mesh = Mesh2D(4, 4)
        self.allocator = LaneAllocator(self.mesh)

    def test_lane_capacity_at_paper_frequencies(self):
        # 25 MHz: 16 payload bits of every 20 lane bits -> 80 Mbit/s.
        assert self.allocator.lane_capacity_mbps(25e6) == pytest.approx(80.0)
        # 1075 MHz: 3.44 Gbit/s payload per lane.
        assert self.allocator.lane_capacity_mbps(1075e6) == pytest.approx(3440.0)

    def test_lanes_required(self):
        assert self.allocator.lanes_required(640.0, 1075e6) == 1
        assert self.allocator.lanes_required(640.0, 25e6) == 8
        assert self.allocator.lanes_required(0.0, 25e6) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            self.allocator.lane_capacity_mbps(0)
        with pytest.raises(ValueError):
            self.allocator.lanes_required(-1.0, 25e6)


class TestLaneAllocatorAllocation:
    def setup_method(self):
        self.mesh = Mesh2D(4, 4)
        self.allocator = LaneAllocator(self.mesh)

    def test_simple_allocation_structure(self):
        allocation = self.allocator.allocate("ch", (0, 0), (2, 1), 100.0, 1075e6)
        assert allocation.lanes_used == 1
        circuit = allocation.circuits[0]
        assert circuit.route[0] == (0, 0) and circuit.route[-1] == (2, 1)
        assert circuit.hops[0].in_port == Port.TILE
        assert circuit.hops[-1].out_port == Port.TILE
        assert circuit.hop_count == len(circuit.route)
        # Consecutive hops agree: the output port of one router faces the next.
        for a, b, hop in zip(circuit.route, circuit.route[1:], circuit.hops):
            assert self.mesh.port_towards(a, b) == hop.out_port

    def test_local_channel_uses_no_resources(self):
        allocation = self.allocator.allocate("local", (1, 1), (1, 1), 100.0, 1075e6)
        assert allocation.is_local
        assert allocation.lanes_used == 0
        assert self.allocator.link_utilization() == 0.0

    def test_duplicate_channel_rejected(self):
        self.allocator.allocate("ch", (0, 0), (1, 0), 10.0, 1075e6)
        with pytest.raises(AllocationError):
            self.allocator.allocate("ch", (0, 0), (1, 0), 10.0, 1075e6)

    def test_outside_mesh_rejected(self):
        with pytest.raises(AllocationError):
            self.allocator.allocate("ch", (0, 0), (9, 9), 10.0, 1075e6)

    def test_lane_exhaustion_and_rerouting(self):
        # Fill all four lanes of the direct (0,0)->(1,0) link.
        for index in range(4):
            self.allocator.allocate(f"ch{index}", (0, 0), (1, 0), 10.0, 1075e6)
        assert self.allocator.free_lanes((0, 0), (1, 0)) == 0
        # The tile at (0,0) has no outgoing tile lanes left either.
        with pytest.raises(AllocationError):
            self.allocator.allocate("ch4", (0, 0), (1, 0), 10.0, 1075e6)

    def test_release_restores_resources(self):
        self.allocator.allocate("ch", (0, 0), (3, 3), 10.0, 1075e6)
        used_before = self.allocator.link_utilization()
        assert used_before > 0
        self.allocator.release("ch")
        assert self.allocator.link_utilization() == 0.0
        with pytest.raises(AllocationError):
            self.allocator.release("ch")

    def test_multi_lane_allocation_for_high_bandwidth(self):
        # 200 Mbit/s at 100 MHz (320 Mbit/s per lane) -> 1 lane; at 25 MHz -> 3 lanes.
        allocation = self.allocator.allocate("wide", (0, 0), (1, 0), 200.0, 25e6)
        assert allocation.lanes_used == 3
        assert self.allocator.free_lanes((0, 0), (1, 0)) == 1
        # Each circuit uses a distinct lane on the shared link.
        lanes = {c.hops[0].out_lane for c in allocation.circuits}
        assert len(lanes) == 3

    def test_allocations_listing(self):
        self.allocator.allocate("a", (0, 0), (1, 0), 10.0, 1075e6)
        self.allocator.allocate("b", (0, 1), (2, 1), 10.0, 1075e6)
        assert {a.channel_name for a in self.allocator.allocations} == {"a", "b"}
        assert self.allocator.allocation("a").channel_name == "a"

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_no_lane_is_double_booked(self, endpoints):
        """Property: across all successful allocations, every (link, lane) pair
        is used by at most one circuit — the physical-separation guarantee that
        motivates circuit switching in the paper."""
        allocator = LaneAllocator(Mesh2D(4, 4))
        used: dict[tuple, str] = {}
        for index, (src, dst) in enumerate(endpoints):
            name = f"ch{index}"
            try:
                allocation = allocator.allocate(name, src, dst, 100.0, 1075e6)
            except AllocationError:
                continue
            for circuit in allocation.circuits:
                for a, b, hop in zip(circuit.route, circuit.route[1:], circuit.hops):
                    key = (a, b, hop.out_lane)
                    assert key not in used, f"lane {key} shared by {used[key]} and {name}"
                    used[key] = name


class TestSpatialMapper:
    def test_maps_hiperlan2_onto_4x4_mesh(self):
        grid = TileGrid(Mesh2D(4, 4))
        mapper = SpatialMapper(grid)
        graph = hiperlan2.build_process_graph()
        mapping = mapper.map(graph)
        assert len(mapping.placement) == len(graph.processes)
        assert mapping.tiles_used == len(graph.processes)
        # Type constraints respected.
        for process_name, position in mapping.placement.items():
            assert graph.process(process_name).can_run_on(grid.tile(position).tile_type)
        # High-bandwidth neighbours should end up close: cost is bounded well
        # below the worst case (every channel spanning the mesh diameter).
        worst = sum(c.bandwidth_mbps for c in graph.channels) * 6
        assert mapping.cost_bandwidth_hops < 0.5 * worst

    def test_unmap_releases_tiles(self):
        grid = TileGrid(Mesh2D(4, 4))
        mapper = SpatialMapper(grid)
        mapping = mapper.map(umts.build_process_graph())
        assert grid.occupancy() > 0
        mapper.unmap(mapping)
        assert grid.occupancy() == 0.0

    def test_too_many_processes_rejected(self):
        graph = ProcessGraph("big")
        previous = None
        for index in range(5):
            graph.add_process(Process(f"p{index}"))
            if previous is not None:
                graph.add_channel(Channel(f"c{index}", previous, f"p{index}", 1.0))
            previous = f"p{index}"
        grid = TileGrid(Mesh2D(2, 2))
        with pytest.raises(MappingError):
            SpatialMapper(grid).map(graph)

    def test_type_infeasibility_detected(self):
        graph = ProcessGraph("fpga_only")
        graph.add_process(Process("a", frozenset({TileType.FPGA})))
        graph.add_process(Process("b", frozenset({TileType.FPGA})))
        graph.add_channel(Channel("ab", "a", "b", 1.0))
        grid = TileGrid(Mesh2D(2, 1), pattern=[TileType.GPP])
        with pytest.raises(MappingError):
            SpatialMapper(grid).map(graph)

    def test_improvement_never_hurts(self):
        grid_a = TileGrid(Mesh2D(4, 4))
        grid_b = TileGrid(Mesh2D(4, 4))
        graph = hiperlan2.build_process_graph()
        greedy = SpatialMapper(grid_a).map(graph, improve=False)
        improved = SpatialMapper(grid_b).map(graph, improve=True)
        assert improved.cost_bandwidth_hops <= greedy.cost_bandwidth_hops

    def test_mapping_position_lookup(self):
        grid = TileGrid(Mesh2D(4, 4))
        mapping = SpatialMapper(grid).map(hiperlan2.build_process_graph())
        assert mapping.position_of("fft") in grid.mesh.positions()
        with pytest.raises(MappingError):
            mapping.position_of("missing")


class _ReferenceMapper:
    """``SpatialMapper`` as it was while ``_cost`` re-priced the whole
    application for every tile and swap it tried: ``_cost``,
    ``_placement_order``, ``_greedy``, ``_improve`` and ``map`` verbatim.  The per-channel pricing must place and
    price exactly like this."""

    def __init__(self, grid: TileGrid) -> None:
        self.grid = grid
        self.mesh = grid.topology

    def _cost(self, graph: ProcessGraph, placement: Dict[str, Position]) -> float:
        total = 0.0
        for channel in graph.channels:
            src = placement.get(channel.src)
            dst = placement.get(channel.dst)
            if src is None or dst is None:
                continue
            total += channel.bandwidth_mbps * self.mesh.distance(src, dst)
        return total

    def _placement_order(self, graph: ProcessGraph) -> List[Process]:
        def attached_bandwidth(process: Process) -> float:
            return sum(c.bandwidth_mbps for c in graph.channels_of(process.name))

        return sorted(graph.processes, key=attached_bandwidth, reverse=True)

    _centroid = SpatialMapper._centroid  # unchanged: reads ``self.mesh`` only

    def _greedy(self, graph: ProcessGraph) -> Dict[str, Position]:
        placement: Dict[str, Position] = {}
        used: set = set()
        cx, cy = self._centroid()
        for process in self._placement_order(graph):
            candidates = [
                t for t in self.grid.free_tiles_for(process) if t.position not in used
            ]
            if not candidates:
                raise MappingError(
                    f"no free tile of a suitable type for process {process.name!r} "
                    f"(needs one of {sorted(t.value for t in process.tile_types)})"
                )
            best_position: Optional[Position] = None
            best_cost = float("inf")
            for tile in candidates:
                trial = dict(placement)
                trial[process.name] = tile.position
                cost = self._cost(graph, trial)
                # Prefer central tiles for the first (highest-bandwidth) process.
                if not placement:
                    cost = abs(tile.position[0] - cx) + abs(tile.position[1] - cy)
                if cost < best_cost:
                    best_cost = cost
                    best_position = tile.position
            assert best_position is not None
            placement[process.name] = best_position
            used.add(best_position)
        return placement

    def _improve(self, graph: ProcessGraph, placement: Dict[str, Position], max_rounds: int = 10) -> Dict[str, Position]:
        names = list(placement)
        best_cost = self._cost(graph, placement)
        for _ in range(max_rounds):
            improved = False
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    a, b = names[i], names[j]
                    pa, pb = placement[a], placement[b]
                    # Only swap when both processes tolerate the other's tile type.
                    if not graph.process(a).can_run_on(self.grid.tile(pb).tile_type):
                        continue
                    if not graph.process(b).can_run_on(self.grid.tile(pa).tile_type):
                        continue
                    placement[a], placement[b] = pb, pa
                    cost = self._cost(graph, placement)
                    if cost < best_cost:
                        best_cost = cost
                        improved = True
                    else:
                        placement[a], placement[b] = pa, pb
            if not improved:
                break
        return placement

    def map(self, graph: ProcessGraph, improve: bool = True) -> Mapping:
        graph.validate()
        if len(graph.processes) > self.mesh.size:
            raise MappingError(
                f"application {graph.name!r} has {len(graph.processes)} processes but the "
                f"mesh only offers {self.mesh.size} tiles"
            )
        placement = self._greedy(graph)
        if improve:
            placement = self._improve(graph, placement)
        mapping = Mapping(graph.name, placement, self._cost(graph, placement))
        for process_name, position in placement.items():
            self.grid.tile(position).assign(graph.process(process_name))
        return mapping


#: Channel bandwidths of the paper's applications and a few more values no
#: binary fraction spells: their products and sums round, so the order of the
#: additions shows in the cost, and repeats make the ties ``<`` has to break.
_BANDWIDTHS = st.sampled_from(
    [3.84, 61.44, 7.68, 15.36, 122.88, 0.1, 1 / 3, 2.5, 640.0, 0.0]
) | st.floats(min_value=0.001, max_value=2000.0, allow_nan=False)

_TILE_TYPES = st.just(TileType.any()) | st.frozensets(st.sampled_from(list(TileType)), min_size=2)


@st.composite
def process_graphs(draw, name: str = "drawn", most: int = 12) -> ProcessGraph:
    """3 to *most* processes, each tied to an earlier one (once in a while one
    is not, so ``validate`` refuses the graph), plus a few more channels."""
    graph = ProcessGraph(name)
    count = draw(st.integers(3, max(3, most)))
    for index in range(count):
        graph.add_process(Process(f"p{index}", draw(_TILE_TYPES)))
    untied = draw(st.integers(-12, count - 1))
    pairs = [
        (draw(st.integers(0, index - 1)), index) for index in range(1, count) if index != untied
    ]
    others = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
    pairs += draw(st.lists(others.filter(lambda pair: pair[0] != pair[1]), max_size=8))
    for index, (a, b) in enumerate(pairs):
        if draw(st.booleans()):
            a, b = b, a
        graph.add_channel(Channel(f"c{index}", f"p{a}", f"p{b}", draw(_BANDWIDTHS)))
    return graph


class TestPerChannelPricingEqualsWholeCost:
    """``map()`` against the reference: same placement (order included), the
    very same cost float, the same refusals."""

    @staticmethod
    def _outcome(mapper, graph, improve):
        try:
            mapping = mapper.map(graph, improve=improve)
        except MappingError as error:
            return ("refused", str(error))
        return (list(mapping.placement.items()), mapping.cost_bandwidth_hops)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), topology=topologies(min_side=3), improve=st.booleans())
    def test_same_placements_costs_and_refusals(self, data, topology, improve):
        positions = list(topology.positions())
        pattern = data.draw(st.none() | st.lists(st.sampled_from(list(TileType)), min_size=2, max_size=5))
        taken = data.draw(st.sets(st.sampled_from(positions), max_size=len(positions) // 3))
        free = len(positions) - len(taken)
        graphs = [
            data.draw(process_graphs(f"app{index}", most=min(12, free)))
            for index in range(data.draw(st.integers(1, 2)))
        ]
        # A fault hands the mapper a degraded view of the topology its grid
        # was built on: tile types stay with their positions.
        built_on = topology
        if isinstance(topology, IrregularMesh) and data.draw(st.booleans()):
            built_on = topology.base
        outcomes = []
        for mapper_cls in (SpatialMapper, _ReferenceMapper):
            grid = TileGrid(built_on, pattern=pattern)
            mapper = mapper_cls(grid)
            if built_on is not topology:
                grid.topology = topology
                if mapper_cls is _ReferenceMapper:
                    mapper.mesh = topology  # it kept its own copy of the view
            for position in taken:
                grid.tile(position).process = "resident"
            # The second application maps onto what the first one left.
            results = [self._outcome(mapper, graph, improve) for graph in graphs]
            occupancy = {position: grid.tile(position).process for position in positions}
            outcomes.append((results, occupancy))
        assert outcomes[0] == outcomes[1]

    def test_paper_applications_cost_to_the_last_bit(self):
        for topology in (Mesh2D(4, 4), Mesh2D(8, 8), IrregularMesh(Mesh2D(5, 5), [((2, 2), (3, 2))], [(1, 1)])):
            for build in (hiperlan2.build_process_graph, umts.build_process_graph):
                new = SpatialMapper(TileGrid(topology)).map(build())
                old = _ReferenceMapper(TileGrid(topology)).map(build())
                assert list(new.placement.items()) == list(old.placement.items())
                assert new.cost_bandwidth_hops == old.cost_bandwidth_hops

    def test_a_degraded_topology_is_searched_from_placed_tiles_only(self, monkeypatch):
        """One breadth-first table per placed process, none per tile tried."""
        searched = []
        search = Adjacency.search

        def counted(self, source):
            searched.append(source)
            return search(self, source)

        topology = IrregularMesh(Mesh2D(6, 6), [((2, 2), (3, 2)), ((0, 0), (0, 1))], [(4, 4)])
        graph = hiperlan2.build_process_graph()
        grid = TileGrid(topology)
        monkeypatch.setattr(Adjacency, "search", counted)
        mapping = SpatialMapper(grid).map(graph)
        assert set(searched) <= set(mapping.placement.values())
        assert len(set(searched)) <= len(graph.processes)
        assert len(searched) <= len(graph.channels) + len(graph.processes)


class TestTileGridFollowsItsTopology:
    def test_listings_drop_a_dead_routers_tile(self):
        mesh = Mesh2D(3, 3)
        grid = TileGrid(mesh)
        assert [tile.position for tile in grid.tiles] == list(mesh.positions())
        degraded = IrregularMesh(mesh, broken_routers=[(1, 1)])
        grid.topology = degraded
        assert grid.mesh is degraded
        assert [tile.position for tile in grid.tiles] == list(degraded.positions())
        process = Process("p")
        assert (1, 1) not in [tile.position for tile in grid.free_tiles_for(process)]
        assert sum(grid.type_histogram().values()) == 8
        # The tile keeps its type for when a view lists it again.
        grid.topology = mesh
        assert len(grid.tiles) == 9

    def test_tiles_is_a_copy(self):
        grid = TileGrid(Mesh2D(2, 2))
        grid.tiles.clear()
        assert len(grid.tiles) == 4


class TestBestEffortNetwork:
    def setup_method(self):
        self.mesh = Mesh2D(4, 4)
        self.network = BestEffortNetwork(self.mesh, ccn_position=(0, 0))

    def test_command_packet_and_serialization(self):
        assert self.network.command_packet_bits() == 42  # 32-bit header + 10-bit command
        assert self.network.serialization_cycles() == 6  # at 8-bit links

    def test_latency_grows_with_distance(self):
        near = self.network.command_latency_s((1, 0))
        far = self.network.command_latency_s((3, 3))
        assert far > near

    def test_single_lane_configuration_below_1ms(self):
        for position in self.mesh.positions():
            assert self.network.command_latency_s(position) < 1e-3

    def test_full_router_reconfiguration_below_20ms(self):
        assert self.network.full_router_reconfiguration_s(lanes=20) < 20e-3

    def test_deliver_report(self):
        delivery = self.network.deliver({(3, 3): 20, (1, 0): 2})
        assert delivery.commands == 22
        assert delivery.per_router_commands[(3, 3)] == 20
        assert delivery.worst_command_latency_s < 1e-3
        assert delivery.meets_paper_targets()
        assert delivery.total_time_s >= 20 * self.network.command_latency_s((3, 3))

    def test_deliver_validation(self):
        with pytest.raises(ValueError):
            self.network.deliver({(9, 9): 1})
        with pytest.raises(ValueError):
            self.network.deliver({(0, 0): -1})

    def test_invalid_ccn_position(self):
        with pytest.raises(ValueError):
            BestEffortNetwork(self.mesh, ccn_position=(8, 8))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BestEffortParameters(frequency_hz=0)
        with pytest.raises(ValueError):
            BestEffortParameters(router_latency_cycles=-1)
