"""Tests for run-time fault injection and CCN-driven recovery."""

from __future__ import annotations

import pytest

from repro.apps import hiperlan2, umts
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.baseline.flit import Flit, FlitType
from repro.baseline.link import PacketLink
from repro.common import AllocationError, FaultError, ReproError
from repro.core.lane import LaneLink
from repro.experiments.dynamic import WorkloadEvent, run_dynamic_workload
from repro.experiments.storm import run_storm, storm_schedule, telemetry_columns
from repro.noc import (
    CentralCoordinationNode,
    FabricSelector,
    FaultInjector,
    FaultSpec,
    IrregularMesh,
    LaneAllocator,
    Mesh2D,
    SlotTableAllocator,
    TdmaLink,
    build_network,
    loaded_link_chooser,
    random_link_chooser,
    random_router_chooser,
)
from repro.noc import faults

KINDS = ("circuit", "packet", "gt")


def make_system(kind, mesh=None, frequency_hz=100e6):
    """A live network of *kind* with a bound CCN and one admitted application."""
    mesh = mesh if mesh is not None else Mesh2D(5, 5)
    network = build_network(kind, mesh, frequency_hz=frequency_hz)
    ccn = CentralCoordinationNode(network=network)
    generator = word_generator(BitFlipPattern.TYPICAL, seed=3)
    graph = hiperlan2.build_process_graph()
    ccn.admit(graph)
    ccn.attach_traffic(graph.name, generator, load=0.5)
    network.run(200)
    return network, ccn, graph


class TestLinkFailSemantics:
    def test_lane_link_drops_in_flight_phits_and_future_drives(self):
        link = LaneLink("lk")
        link.drive_forward(0, 0x5)
        link.drive_forward(1, 0x3)
        assert link.fail() == 2
        assert link.dead and link.dropped == 2
        assert link.idle()
        # A non-idle drive on the dead wire is swallowed and counted.
        link.drive_forward(0, 0x7)
        assert link.read_forward(0) == 0
        assert link.dropped == 3
        # Idle drives stay free (equality fast path, no count).
        link.drive_forward(0, 0)
        assert link.dropped == 3
        assert link.fail() == 0  # idempotent

    def test_packet_link_synthesises_credits_for_dropped_flits(self):
        link = PacketLink("pk", num_vcs=2)
        flit = Flit(FlitType.HEAD, 0xAB, (1, 0), (0, 0), 1, 7, 0)
        link.drive(flit)
        assert link.fail() == 1
        assert link.read() is None
        # The lost flit's credit came back, so the sender's accounting heals.
        assert link.take_credits(1) == 1
        link.drive(Flit(FlitType.TAIL, 0x1, (1, 0), (0, 0), 0, 7, 1))
        assert link.dropped == 2
        assert link.take_credits(0) == 1

    def test_tdma_link_swallows_words(self):
        link = TdmaLink("td")
        link.drive(0x12)
        assert link.fail() == 1
        assert link.read() is None
        link.drive(0x34)
        assert link.read() is None
        assert link.dropped == 2
        link.drive(None)  # idle drive on a dead wire is free
        assert link.dropped == 2


class TestFaultErrorPrecision:
    def test_disconnecting_link_kill_names_the_cut(self):
        # A 1x3 line: the middle link is a bridge.
        network, ccn = self._line_system()
        injector = FaultInjector(network, ccn=ccn)
        with pytest.raises(FaultError, match=r"cannot kill link \(1, 0\)-\(2, 0\)"):
            injector.kill_link((1, 0), (2, 0))

    def test_rejected_kill_is_atomic(self):
        network, ccn = self._line_system()
        injector = FaultInjector(network, ccn=ccn)
        with pytest.raises(FaultError):
            injector.kill_link((1, 0), (2, 0))
        # Nothing died, nothing was invalidated, routing still intact.
        assert not network.dead_links and not network.dead_routers
        assert all(not link.dead for link in network.links.values())
        if ccn.allocator is not None:
            assert not ccn.allocator.dead_links
        assert network.degraded_topology() is network.topology

    def test_disconnecting_router_kill_names_the_cut(self):
        network = build_network("gt", Mesh2D(3, 1))
        injector = FaultInjector(network)
        with pytest.raises(FaultError, match=r"cannot kill router \(1, 0\)"):
            injector.kill_router((1, 0))

    def test_absent_and_dead_targets_rejected(self):
        network = build_network("circuit", Mesh2D(3, 3))
        injector = FaultInjector(network)
        with pytest.raises(FaultError, match="no link between"):
            injector.kill_link((0, 0), (2, 2))
        with pytest.raises(FaultError, match="no router at"):
            injector.kill_router((7, 7))
        injector.kill_link((0, 0), (1, 0))
        with pytest.raises(FaultError, match="already dead"):
            injector.kill_link((1, 0), (0, 0))

    def test_ccn_router_kill_rejected(self):
        network = build_network("circuit", Mesh2D(3, 3))
        ccn = CentralCoordinationNode(network=network)
        injector = FaultInjector(network, ccn=ccn)
        with pytest.raises(FaultError, match="CCN's own router"):
            injector.kill_router(ccn.be_network.ccn_position)

    @staticmethod
    def _line_system():
        network = build_network("circuit", Mesh2D(3, 1))
        ccn = CentralCoordinationNode(network=network)
        return network, ccn


class TestAdmissionReleaseUnderFault:
    @pytest.mark.parametrize(
        "allocator_cls", [LaneAllocator, SlotTableAllocator], ids=["lane", "slot"]
    )
    def test_pools_survive_invalidation_without_leaking(self, allocator_cls):
        allocator = allocator_cls(Mesh2D(3, 3))
        allocation = allocator.allocate("ch", (0, 0), (2, 0), 32.0, 100e6)
        route = allocation.circuits[0].route
        dead = (route[0], route[1])
        allocator.invalidate_resources(dead_links=[dead])
        assert allocator.free_units(*dead) == 0
        # Release returns every unit to the (now unroutable) pools: no leak.
        allocator.release("ch")
        assert allocator.link_utilization() == 0.0
        # And a fresh allocation routes around the dead link.
        again = allocator.allocate("ch2", (0, 0), (2, 0), 32.0, 100e6)
        hops = list(zip(again.circuits[0].route, again.circuits[0].route[1:]))
        assert dead not in hops and (dead[1], dead[0]) not in hops

    def test_dead_router_blocks_allocation(self):
        allocator = LaneAllocator(Mesh2D(3, 3))
        allocator.invalidate_resources(dead_routers=[(1, 1)])
        with pytest.raises(AllocationError, match="dead"):
            allocator.allocate("ch", (1, 1), (2, 2), 32.0, 100e6)
        route = allocator.allocate("ch2", (0, 1), (2, 1), 32.0, 100e6).circuits[0].route
        assert (1, 1) not in route

    @pytest.mark.parametrize("kind", KINDS)
    def test_ccn_leak_free_after_fault_and_release(self, kind):
        network, ccn, graph = make_system(kind)
        injector = FaultInjector(network, ccn=ccn)
        report = injector.inject(FaultSpec("link", chooser=loaded_link_chooser(5)))
        assert report.recovery is not None
        assert report.recovery.recovered_all
        for name in list(ccn.admitted_applications):
            ccn.release(name)
        assert ccn.leak_free(network)
        if ccn.allocator is not None:
            assert ccn.allocator.link_utilization() == 0.0


class TestInjectorRecovery:
    @pytest.mark.parametrize("kind", KINDS)
    def test_displaced_application_readmitted_and_delivering(self, kind):
        network, ccn, graph = make_system(kind)
        injector = FaultInjector(network, ccn=ccn)
        report = injector.inject(FaultSpec("link", chooser=loaded_link_chooser(5)))
        assert report.recovery.displaced == [graph.name]
        assert report.recovery.readmitted == [graph.name]
        assert graph.name in ccn.admitted_applications
        # The re-admitted application keeps delivering on the degraded fabric.
        stats_before = network.stream_statistics()
        network.run(600)
        stats_after = network.stream_statistics()
        assert sum(s["received"] for s in stats_after.values()) > sum(
            s["received"] for s in stats_before.values()
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_router_kill_remaps_off_the_dead_tile(self, kind):
        network, ccn, graph = make_system(kind)
        victim = ccn.admission(graph.name).mapping.placement[
            graph.processes[0].name
        ]
        if victim == ccn.be_network.ccn_position:
            victim = ccn.admission(graph.name).mapping.placement[
                graph.processes[1].name
            ]
        injector = FaultInjector(network, ccn=ccn)
        report = injector.kill_router(victim)
        assert graph.name in report.recovery.displaced
        recovery = report.recovery
        if graph.name in recovery.readmitted:
            placement = ccn.admission(graph.name).mapping.placement
            assert victim not in placement.values()
        else:
            assert graph.name in recovery.rejected

    def test_faults_accumulate_into_degraded_view(self):
        network = build_network("circuit", Mesh2D(4, 4))
        injector = FaultInjector(network)
        injector.kill_link((0, 0), (1, 0))
        injector.kill_router((2, 2))
        degraded = network.degraded_topology()
        assert not degraded.contains((2, 2))
        assert ((0, 0), (1, 0)) not in degraded.directed_links()
        assert network.fault_drops() == sum(
            report.wire_drops for report in injector.reports
        )

    @pytest.mark.parametrize(
        "chooser", [random_link_chooser, loaded_link_chooser, random_router_chooser]
    )
    def test_a_chosen_fault_builds_one_degraded_topology(self, chooser, monkeypatch):
        """The chooser's ``survives`` validates the candidate the kill executes:
        the second build of the same value is the first one's."""
        network, ccn, _graph = make_system("circuit")
        built = []
        validate = IrregularMesh.__post_init__

        def counted(topology):
            built.append(topology)
            validate(topology)

        monkeypatch.setattr(IrregularMesh, "__post_init__", counted)
        faults._degraded.cache_clear()
        injector = FaultInjector(network, ccn=ccn)
        kind = "router" if chooser is random_router_chooser else "link"
        for expected in (1, 2):  # seed 4's victims keep the 5x5 mesh connected at the first try
            injector.inject(FaultSpec(kind, chooser=chooser(4)))
            assert len(built) == expected
            assert ccn.topology is built[-1] and ccn.grid.topology is built[-1]
        executed = built[-1]
        assert network.degraded_topology().directed_links() == executed.directed_links()

    def test_choosers_are_deterministic(self):
        for chooser_factory in (random_link_chooser, random_router_chooser):
            picks = []
            for _ in range(2):
                network = build_network("gt", Mesh2D(4, 4))
                picks.append(chooser_factory(9)(network, None))
            assert picks[0] == picks[1]


class TestSelectorCacheInvalidation:
    def test_fault_invalidates_cached_probes(self):
        mesh = Mesh2D(4, 4)
        selector = FabricSelector(mesh, probe_cycles=200, seed=3)
        graph = umts.build_process_graph()
        selector.select(graph)
        misses_first = selector.cache_misses
        selector.select(graph)
        # The repeat selection was served fully from the probe cache.
        assert selector.cache_hits > 0
        assert selector.cache_misses == misses_first
        network = build_network("circuit", mesh)
        injector = FaultInjector(network, selector=selector)
        injector.kill_link((0, 0), (1, 0))
        # The probe cache was dropped and re-anchored on the degraded view.
        hits_before = selector.cache_hits
        misses_before = selector.cache_misses
        selector.select(umts.build_process_graph())
        assert selector.cache_hits == hits_before
        assert selector.cache_misses > misses_before
        assert ((0, 0), (1, 0)) not in selector.topology.directed_links()


class TestStormDeterminism:
    def test_schedule_is_reproducible(self):
        events_a, total_a = storm_schedule(3, seed=4)
        events_b, total_b = storm_schedule(3, seed=4)
        assert total_a == total_b
        assert [(e.cycle, e.action, e.application) for e in events_a] == [
            (e.cycle, e.action, e.application) for e in events_b
        ]
        assert sum(1 for e in events_a if e.action == "fault") == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_strict_and_auto_storms_are_identical(self, kind):
        outcomes = {
            schedule: run_storm(
                kind, topology=Mesh2D(5, 5), storm_size=1, seed=2, schedule=schedule,
                apps=[("hiperlan2", hiperlan2.build_process_graph)],
            )
            for schedule in ("strict", "vector")
        }
        strict, auto = outcomes["strict"].result, outcomes["vector"].result
        assert telemetry_columns(strict) == telemetry_columns(auto)
        assert strict.displaced == auto.displaced
        assert outcomes["vector"].recovered_or_rejected
        assert outcomes["vector"].leak_free

    def test_telemetry_is_columnar_and_json_safe(self):
        outcome = run_storm(
            "gt", topology=Mesh2D(5, 5), storm_size=1, seed=2,
            apps=[("hiperlan2", hiperlan2.build_process_graph)],
        )
        columns = outcome.telemetry
        lengths = {len(values) for values in columns.values()}
        assert len(lengths) == 1
        assert sum(columns["faults"]) == 1
        assert all(
            value is None or value == value  # no NaN
            for value in columns["energy_pj_per_bit"]
        )
        assert float("inf") not in columns["energy_pj_per_bit"]


class TestWorkloadFaultEvents:
    def test_fault_event_needs_a_spec(self):
        with pytest.raises(ValueError, match="FaultSpec"):
            WorkloadEvent(10, "fault")

    def test_only_fault_events_carry_a_spec(self):
        spec = FaultSpec("link", target=((0, 0), (1, 0)))
        with pytest.raises(ValueError, match="only fault events"):
            WorkloadEvent(10, "depart", "app", fault=spec)

    def test_spec_validates_kind_and_target(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec("meteor", target=(0, 0))
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec("link")

    def test_departure_of_displaced_rejected_app_is_tolerated(self):
        # On a 2x2 mesh the surviving fabric cannot re-admit HiperLAN/2's
        # 12-process graph after losing a router — forcing the clean-reject
        # path, whose scheduled departure must then be a no-op.
        events = [
            WorkloadEvent(0, "arrive", "hl2", hiperlan2.build_process_graph),
            WorkloadEvent(
                400, "fault",
                fault=FaultSpec("router", chooser=random_router_chooser(1)),
            ),
            WorkloadEvent(900, "depart", "hl2"),
        ]
        result = run_dynamic_workload(
            "gt", topology=Mesh2D(4, 3), events=events, total_cycles=1200
        )
        if result.displaced_rejected:
            assert result.end_leak_free
            assert any("already displaced" in e for ep in result.epochs for e in ep.events)
        else:
            # Fabric had room after all — recovery must then be complete.
            assert result.readmitted == result.displaced

    def test_depart_without_admission_still_raises(self):
        events = [WorkloadEvent(10, "depart", "ghost")]
        with pytest.raises(ReproError, match="without a live admission"):
            run_dynamic_workload("gt", topology=Mesh2D(3, 3), events=events,
                                 total_cycles=100)
