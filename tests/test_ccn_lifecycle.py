"""Tests for the kind-generic CCN lifecycle engine and fabric selection.

Covers the three-way admission pipeline (circuit / packet / GT), lifecycle
churn (repeated admit/release leaks nothing, re-admission is bit-identical),
traffic attach/detach on live networks, the fabric-selection policy and the
end-to-end admit-around-a-dead-router scenario.
"""

from __future__ import annotations

import pytest

from repro.apps import drm, hiperlan2, umts
from repro.apps.kpn import Channel, Process, ProcessGraph
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.common import ConfigurationError, MappingError
from repro.noc import (
    CentralCoordinationNode,
    FabricSelector,
    IrregularMesh,
    Mesh2D,
    build_network,
)

KINDS = ("circuit", "packet", "gt")
FREQUENCY_HZ = 100e6


def _network_and_ccn(kind, topology=None):
    network = build_network(kind, topology or Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
    return network, CentralCoordinationNode(network=network)


class TestShardedFabricsAreRefused:
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_sharded_network_raises_a_configuration_error(self, kind):
        """The lifecycle runs in one process: a CCN refuses a sharded fabric,
        at construction and as a call's network, naming it."""
        sharded = build_network(kind, Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ, shards=2)
        try:
            with pytest.raises(ConfigurationError, match="single-process fabric, not ShardedNetwork"):
                CentralCoordinationNode(network=sharded)
            ccn = CentralCoordinationNode(Mesh2D(4, 4), kind=kind, network_frequency_hz=FREQUENCY_HZ)
            with pytest.raises(ConfigurationError, match="single-process fabric, not ShardedNetwork"):
                ccn.admit(hiperlan2.build_process_graph(), network=sharded)
        finally:
            sharded.close()


class TestKindGenericAdmission:
    @pytest.mark.parametrize("kind", KINDS)
    def test_admit_configures_and_release_cleans(self, kind):
        network, ccn = _network_and_ccn(kind)
        graph = hiperlan2.build_process_graph()
        admission = ccn.admit(graph)
        assert admission.kind == network.kind
        if kind == "circuit":
            assert network.configured_circuits() > 0
            assert admission.command_bits == 10
        elif kind == "gt":
            assert network.occupied_slots() > 0
            assert admission.command_bits > 10  # slot-table writes are wider
        else:
            assert admission.allocations == []
            assert admission.configuration_commands == 0
            assert admission.command_bits == 0
        ccn.release(graph.name)
        if kind == "circuit":
            assert network.configured_circuits() == 0
        elif kind == "gt":
            assert network.occupied_slots() == 0
        assert ccn.grid.occupancy() == 0.0
        if ccn.allocator is not None:
            assert ccn.allocator.link_utilization() == 0.0

    def test_gt_feasibility_reports_slots(self):
        ccn = CentralCoordinationNode(Mesh2D(4, 4), kind="gt", network_frequency_hz=100e6)
        report = ccn.feasibility(hiperlan2.build_process_graph())
        assert report.feasible
        assert report.unit_name == "slot"
        assert report.channel_units
        # Backwards-compatible aliases keep working.
        assert report.channel_lanes == report.channel_units
        assert report.lane_capacity_mbps == report.unit_capacity_mbps

    def test_packet_feasibility_checks_only_tiles(self):
        ccn = CentralCoordinationNode(Mesh2D(2, 2), kind="packet")
        report = ccn.feasibility(umts.build_process_graph())  # 9 processes > 4 tiles
        assert not report.feasible
        report = ccn.feasibility(hiperlan2.build_process_graph())  # 8 processes = 4 tiles?
        assert report.unit_capacity_mbps == float("inf")

    def test_configuration_effort_contrast(self):
        """Section 4: lane commands are fewer and narrower than slot writes."""
        _, circuit_ccn = _network_and_ccn("circuit")
        _, gt_ccn = _network_and_ccn("gt")
        graph = hiperlan2.build_process_graph()
        lane = circuit_ccn.admit(graph)
        slot = gt_ccn.admit(graph)
        assert lane.configuration_bits < slot.configuration_bits
        assert lane.reconfiguration_time_s < slot.reconfiguration_time_s

    def test_mismatched_network_kind_rejected(self):
        network = build_network("gt", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ)
        ccn = CentralCoordinationNode(Mesh2D(3, 3), kind="circuit")
        with pytest.raises(ConfigurationError):
            ccn.admit(hiperlan2.build_process_graph(), network)

    def test_requires_topology_or_network(self):
        with pytest.raises(ConfigurationError):
            CentralCoordinationNode()

    def test_bound_ccn_shares_the_network_admission_pools(self):
        network, ccn = _network_and_ccn("circuit")
        assert ccn.allocator is network.admission
        ccn.admit(hiperlan2.build_process_graph())
        assert network.admission.link_utilization() > 0.0


class TestLifecycleChurn:
    @pytest.mark.parametrize("kind", KINDS)
    def test_repeated_admit_release_leaks_nothing(self, kind):
        network, ccn = _network_and_ccn(kind)
        graph = hiperlan2.build_process_graph()
        generator = word_generator(BitFlipPattern.TYPICAL, seed=3)
        reference = None
        for _ in range(4):
            admission = ccn.admit(graph)
            ccn.attach_traffic(graph.name, generator, load=0.5)
            network.run(120)
            snapshot = (
                admission.mapping.placement,
                [c.circuits for c in admission.allocations],
                admission.configuration_commands,
            )
            if reference is None:
                reference = snapshot
            else:
                # Re-admission after release is bit-identical.
                assert snapshot == reference
            ccn.release(graph.name)
            # No lanes, slots, tiles, streams or kernel components leak.
            assert ccn.grid.occupancy() == 0.0
            if ccn.allocator is not None:
                assert ccn.allocator.link_utilization() == 0.0
            assert network.streams == {}

    def test_kernel_component_count_returns_to_baseline(self):
        """The kernel clocks the datapath alone; the stream endpoints it
        adopts for an application leave it with the application."""
        network, ccn = _network_and_ccn("circuit")
        datapath = network.datapath
        graph = hiperlan2.build_process_graph()
        generator = word_generator(BitFlipPattern.TYPICAL, seed=3)
        ccn.admit(graph)
        ccn.attach_traffic(graph.name, generator, load=0.5)
        assert network.kernel.components == (datapath,)
        assert datapath._sinks and datapath.drivers.next_due is not None
        network.run(50)
        ccn.release(graph.name)
        assert network.kernel.components == (datapath,)
        assert not datapath._sinks and datapath.drivers.next_due is None

    def test_two_applications_depart_independently(self):
        network, ccn = _network_and_ccn("gt", Mesh2D(4, 5))
        generator = word_generator(BitFlipPattern.TYPICAL, seed=9)
        first = hiperlan2.build_process_graph()
        second = drm.build_process_graph()
        ccn.admit(first)
        ccn.attach_traffic(first.name, generator, load=0.5)
        ccn.admit(second)
        ccn.attach_traffic(second.name, generator, load=0.5)
        network.run(200)
        ccn.release(first.name)
        assert ccn.admitted_applications == [second.name]
        # The survivor's slot tables and streams are intact and still run.
        assert network.occupied_slots() > 0
        network.run(100)
        ccn.release(second.name)
        assert network.occupied_slots() == 0
        assert network.streams == {}


class TestTrafficAttachment:
    @pytest.mark.parametrize("kind", KINDS)
    def test_attached_traffic_is_delivered(self, kind):
        network, ccn = _network_and_ccn(kind)
        graph = hiperlan2.build_process_graph()
        ccn.admit(graph)
        names = ccn.attach_traffic(
            graph.name, word_generator(BitFlipPattern.TYPICAL, seed=4), load=0.5
        )
        assert names
        network.run(600)
        delivered = sum(s["received"] for s in network.stream_statistics().values())
        assert delivered > 0

    def test_attach_twice_rejected(self):
        network, ccn = _network_and_ccn("circuit")
        graph = hiperlan2.build_process_graph()
        ccn.admit(graph)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=4)
        ccn.attach_traffic(graph.name, generator)
        with pytest.raises(ConfigurationError):
            ccn.attach_traffic(graph.name, generator)

    def test_attach_without_network_rejected(self):
        ccn = CentralCoordinationNode(Mesh2D(4, 4), network_frequency_hz=FREQUENCY_HZ)
        graph = hiperlan2.build_process_graph()
        ccn.admit(graph)
        with pytest.raises(ConfigurationError):
            ccn.attach_traffic(graph.name, lambda: 0)

    def test_release_error_path_keeps_the_admission(self):
        """A release that fails validation must not leak the application."""
        network = build_network("circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
        ccn = CentralCoordinationNode(Mesh2D(4, 4), network_frequency_hz=FREQUENCY_HZ)
        graph = hiperlan2.build_process_graph()
        ccn.admit(graph, network)
        ccn.attach_traffic(
            graph.name, word_generator(BitFlipPattern.TYPICAL, seed=2), network=network
        )
        with pytest.raises(ConfigurationError):
            ccn.release(graph.name)  # live streams but no network given
        # Still admitted: the corrected retry succeeds and frees everything.
        assert ccn.admitted_applications == [graph.name]
        ccn.release(graph.name, network)
        assert ccn.leak_free(network)

    def test_failed_attach_rolls_back_earlier_streams(self):
        network, ccn = _network_and_ccn("circuit")
        graph = hiperlan2.build_process_graph()
        admission = ccn.admit(graph)
        # Collide with a later channel's stream name to fail mid-loop.
        collider = admission.allocations[-1].channel_name
        network.streams[collider] = object()
        with pytest.raises(ConfigurationError):
            ccn.attach_traffic(graph.name, word_generator(BitFlipPattern.TYPICAL, seed=2))
        # The foreign colliding entry is untouched; everything the failed
        # call attached itself was rolled back.
        assert network.streams.pop(collider) is not None
        assert admission.stream_names == []
        assert not any(n.startswith(f"{graph.name}:") for n in network.streams)
        # The retry succeeds cleanly.
        ccn.attach_traffic(graph.name, word_generator(BitFlipPattern.TYPICAL, seed=2))
        network.run(200)
        ccn.release(graph.name)
        assert ccn.leak_free()

    def test_release_reports_post_drain_delivery(self):
        network, ccn = _network_and_ccn("circuit")
        graph = hiperlan2.build_process_graph()
        ccn.admit(graph)
        ccn.attach_traffic(
            graph.name, word_generator(BitFlipPattern.TYPICAL, seed=2), load=0.8
        )
        network.run(300)
        mid_run = {
            name: stats["received"]
            for name, stats in network.stream_statistics().items()
        }
        final = ccn.release(graph.name)
        assert set(final) == set(mid_run)
        # The drain let in-flight words land: counts never shrink.
        assert all(final[name] >= mid_run[name] for name in final)
        assert sum(final.values()) > 0

    def test_detach_unknown_stream_rejected(self):
        network = build_network("circuit", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ)
        with pytest.raises(ConfigurationError):
            network.detach_stream("ghost")
        with pytest.raises(ConfigurationError):
            network.detach_channel("ghost")

    @pytest.mark.parametrize("kind", KINDS)
    def test_detach_channel_round_trip(self, kind):
        network = build_network(kind, Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=6)
        network.attach_channel("ch", (0, 0), (2, 2), 200.0, generator, load=0.5)
        network.run(200)
        network.detach_channel("ch")
        assert network.streams == {}
        if network.performs_admission:
            assert network.admission.link_utilization() == 0.0
        # The channel name is free again.
        network.attach_channel("ch", (0, 0), (2, 2), 200.0, generator, load=0.5)
        network.run(100)


class TestFabricSelection:
    def test_streaming_apps_choose_circuit_switching(self):
        selector = FabricSelector(Mesh2D(4, 4), probe_cycles=600, seed=11)
        for app in (hiperlan2, umts):
            decision = selector.select(app.build_process_graph())
            assert decision.chosen_kind == "circuit_switched"
            assert decision.rejections == 0
            circuit = decision.candidate("circuit_switched")
            gt = decision.candidate("time_division_gt")
            packet = decision.candidate("packet_switched")
            # The paper's energy ordering: circuit < TDMA < packet.
            assert circuit.energy_pj_per_bit < gt.energy_pj_per_bit < packet.energy_pj_per_bit
            # ... and its configuration-effort ordering (10-bit lane commands
            # vs. wider slot-table writes; equal command *counts* can tie the
            # transport time, never beat it).
            assert circuit.configuration_bits < gt.configuration_bits
            assert circuit.reconfiguration_time_s <= gt.reconfiguration_time_s
            assert packet.configuration_commands == 0

    def test_infeasible_application_is_rejected_per_kind(self):
        graph = ProcessGraph("monster")
        graph.add_process(Process("a"))
        graph.add_process(Process("b"))
        graph.add_channel(Channel("huge", "a", "b", 50_000.0))  # 50 Gbit/s
        selector = FabricSelector(Mesh2D(3, 3), probe_cycles=100, seed=1)
        decision = selector.select(graph)
        admission_kinds = {"circuit_switched", "time_division_gt"}
        for candidate in decision.candidates:
            if candidate.kind in admission_kinds:
                assert not candidate.feasible
                assert candidate.rejection_reason
        # Packet switching admits anything that maps — it wins by default.
        assert decision.chosen_kind == "packet_switched"
        assert decision.rejections == 2

    def test_unknown_candidate_kind_raises(self):
        selector = FabricSelector(Mesh2D(3, 3), probe_cycles=100)
        decision = selector.select(hiperlan2.build_process_graph())
        with pytest.raises(Exception):
            decision.candidate("optical")

    def test_probe_results_are_cached_per_application_and_kind(self):
        selector = FabricSelector(Mesh2D(4, 4), probe_cycles=200, seed=3)
        first = selector.select(hiperlan2.build_process_graph())
        assert selector.cache_misses == len(selector.kinds)
        assert selector.cache_hits == 0
        # A re-arrival of the same application is pure cache.
        second = selector.select(hiperlan2.build_process_graph())
        assert selector.cache_hits == len(selector.kinds)
        assert selector.cache_misses == len(selector.kinds)
        assert second.chosen_kind == first.chosen_kind
        for kind in ("circuit_switched", "time_division_gt", "packet_switched"):
            assert second.candidate(kind) is first.candidate(kind)
        # A different application probes again.
        selector.select(umts.build_process_graph())
        assert selector.cache_misses == 2 * len(selector.kinds)

    def test_topology_change_invalidates_the_probe_cache(self):
        selector = FabricSelector(Mesh2D(4, 4), probe_cycles=200, seed=3)
        selector.select(hiperlan2.build_process_graph())
        misses = selector.cache_misses
        selector.topology = Mesh2D(5, 5)
        selector.select(hiperlan2.build_process_graph())
        assert selector.cache_misses == 2 * misses  # probed afresh
        selector.invalidate_cache()
        selector.select(hiperlan2.build_process_graph())
        assert selector.cache_misses == 3 * misses


class TestDeadRouterAdmission:
    """End-to-end: admit an application around a dead router (ROADMAP item)."""

    DEAD = (2, 1)

    def _topology(self):
        return IrregularMesh(Mesh2D(4, 4), broken_routers=[self.DEAD])

    @pytest.mark.parametrize("kind", KINDS)
    def test_admit_and_stream_around_dead_router(self, kind):
        topology = self._topology()
        network = build_network(kind, topology, frequency_hz=FREQUENCY_HZ)
        assert self.DEAD not in network.routers
        ccn = CentralCoordinationNode(network=network)
        graph = hiperlan2.build_process_graph()
        admission = ccn.admit(graph)
        # Nothing is ever mapped onto (or routed through) the hole.
        assert self.DEAD not in admission.mapping.placement.values()
        for allocation in admission.allocations:
            for circuit in allocation.circuits:
                assert self.DEAD not in circuit.route
        ccn.attach_traffic(
            graph.name, word_generator(BitFlipPattern.TYPICAL, seed=8), load=0.5
        )
        network.run(600)
        delivered = sum(s["received"] for s in network.stream_statistics().values())
        assert delivered > 0
        ccn.release(graph.name)
        assert ccn.grid.occupancy() == 0.0

    def test_feasibility_counts_only_surviving_tiles(self):
        topology = self._topology()
        ccn = CentralCoordinationNode(topology, network_frequency_hz=FREQUENCY_HZ)
        assert topology.size == 15
        report = ccn.feasibility(hiperlan2.build_process_graph())
        assert report.feasible
