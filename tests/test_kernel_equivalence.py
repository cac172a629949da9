"""Equivalence of the strict and the default (``vector``) schedule.

The default schedule must be an *invisible* optimisation: the event heap
with its self-gating vector plane has to reproduce the ``strict``
(seed-equivalent) schedule bit for bit, as :func:`oracle.assert_identical`
compares it through ``network.snapshot()``.  :mod:`tests.test_event_scheduling`
draws the scenarios; the named cases here pin the mechanisms a draw may
miss: an idle mesh, crossing streams, the UMTS / HiperLAN/2 application
traffic, CCN admit / release, a mid-run reconfiguration, ``reset()``,
strided hooks, clock gating and the snapshot's own sensitivity.  Any
schedule name but ``strict`` and ``vector`` raises.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import KINDS, FabricScenario
from oracle import SCHEDULES, assert_schedules_identical, ran
from repro.apps import hiperlan2, umts
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.energy.activity import ActivityKeys
from repro.noc.ccn import CentralCoordinationNode
from repro.noc.fabric import build_network
from repro.noc.network import CircuitSwitchedNoC
from repro.noc.packet_network import PacketSwitchedNoC
from repro.noc.path_allocation import LaneAllocator
from repro.noc.topology import Mesh2D, Torus2D

FREQUENCY_HZ = 100e6


def _circuit_network(width=3, height=3, clock_gating=False, **params):
    mesh = Mesh2D(width, height)
    return mesh, CircuitSwitchedNoC(mesh, frequency_hz=FREQUENCY_HZ, clock_gating=clock_gating, **params)


class TestSnapshot:
    """``network.snapshot()`` sees one unit of divergence anywhere and encodes as JSON."""

    @pytest.mark.parametrize("change", ["activity", "one word fewer", "fault drop", "cycle"])
    def test_one_change_makes_the_snapshot_differ(self, change):
        scenario = FabricScenario(Mesh2D(3, 2), [((0, 0), (2, 0), 100.0, 1.0)], 300,
                                  (150, (1, 0), (2, 0), False), None)
        network, twin = scenario(), scenario()
        assert network.snapshot() == twin.snapshot()
        assert json.loads(json.dumps(network.snapshot(), sort_keys=True))["fault_drops"] > 0
        if change == "activity":
            network.router_at((1, 1)).activity.add(ActivityKeys.REG_TOGGLE_BITS)
        elif change == "one word fewer":
            network.streams["ch0#0"].sink.received.pop()  # the channel stripes two lanes
        elif change == "fault drop":
            network.link((1, 0), (2, 0)).dropped += 1
        else:
            network.run(1)
        assert network.snapshot() != twin.snapshot()


class TestIdleMesh:
    def test_idle_circuit_mesh_is_identical_and_mostly_skipped(self):
        networks = assert_schedules_identical(lambda **params: ran(_circuit_network(**params)[1], 500))
        # Idle routers sleep from the second cycle onward.
        stats = networks["default"].kernel.scheduler_stats
        assert stats.skipped > stats.evaluated

    def test_idle_clock_gated_mesh_is_identical(self):
        assert_schedules_identical(lambda **params: ran(_circuit_network(clock_gating=True, **params)[1], 500))

    def test_idle_packet_mesh_is_identical(self):
        def scenario(**params):
            network = PacketSwitchedNoC(Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, **params)
            network.add_stream("idle", (0, 0), (2, 2), word_generator(BitFlipPattern.TYPICAL, seed=1), load=0.0)
            return ran(network, 500)

        assert_schedules_identical(scenario)


class TestSingleStream:
    @settings(max_examples=8, deadline=None)
    @given(
        load=st.sampled_from([0.05, 0.3, 0.6, 1.0]),
        seed=st.integers(min_value=0, max_value=2**16),
        gating=st.booleans(),
    )
    def test_stream_over_line_is_identical(self, load, seed, gating):
        def scenario(**params):
            mesh, network = _circuit_network(width=4, height=1, clock_gating=gating, **params)
            allocation = LaneAllocator(mesh).allocate("s", (0, 0), (3, 0), 100.0, FREQUENCY_HZ)
            network.apply_allocation(allocation)
            network.add_stream("s", allocation, word_generator(BitFlipPattern.TYPICAL, seed=seed), load=load)
            return ran(network, 1200)

        networks = assert_schedules_identical(scenario)
        if load >= 0.3:
            assert networks["default"].streams["s"].words_received > 0

    @settings(max_examples=6, deadline=None)
    @given(load=st.sampled_from([0.1, 0.5, 1.0]), seed=st.integers(min_value=0, max_value=2**16))
    def test_packet_stream_is_identical(self, load, seed):
        def scenario(**params):
            network = PacketSwitchedNoC(Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ, **params)
            network.add_stream("s", (0, 0), (3, 1), word_generator(BitFlipPattern.TYPICAL, seed=seed), load=load)
            return ran(network, 1200)

        assert_schedules_identical(scenario)


class TestCrossingStreams:
    def test_four_streams_through_center_router(self):
        def scenario(**params):
            mesh, network = _circuit_network(**params)
            allocator = LaneAllocator(mesh)
            pairs = [((0, 1), (2, 1)), ((2, 1), (0, 1)), ((1, 0), (1, 2)), ((1, 2), (1, 0))]
            for index, (src, dst) in enumerate(pairs):
                allocation = allocator.allocate(f"s{index}", src, dst, 100.0, FREQUENCY_HZ)
                network.apply_allocation(allocation)
                generator = word_generator(BitFlipPattern.TYPICAL, seed=index)
                network.add_stream(f"s{index}", allocation, generator, load=0.8)
            return ran(network, 600)

        networks = assert_schedules_identical(scenario)
        for endpoint in networks["default"].streams.values():
            assert endpoint.words_received > 0


def _delivered(network):
    return sum(s["received"] for s in network.stream_statistics().values())


class TestApplicationTraffic:
    @pytest.mark.parametrize("app", [hiperlan2, umts], ids=["hiperlan2", "umts"])
    def test_admitted_application_is_identical(self, app):
        def scenario(**params):
            mesh = Mesh2D(4, 4)
            ccn = CentralCoordinationNode(mesh, network_frequency_hz=FREQUENCY_HZ)
            network = CircuitSwitchedNoC(mesh, frequency_hz=FREQUENCY_HZ, **params)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=42)
            for allocation in ccn.admit(app.build_process_graph(), network).allocations:
                network.add_stream(allocation.channel_name, allocation, generator, load=0.6)
            return ran(network, 800)

        assert _delivered(assert_schedules_identical(scenario)["default"]) > 0


class TestMidRunReconfiguration:
    def test_teardown_and_reroute_mid_run_is_identical(self):
        """Configure a circuit, stream, tear it down mid-run, configure a new
        one through different routers and stream again — the sequence every
        CCN reconfiguration performs, exercising sleeping routers being woken
        by configuration writes."""

        def scenario(**params):
            mesh, network = _circuit_network(**params)
            allocator = LaneAllocator(mesh)
            first = allocator.allocate("first", (0, 0), (2, 0), 100.0, FREQUENCY_HZ)
            network.apply_allocation(first)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=9)
            network.add_stream("first", first, generator, load=0.7)
            network.run(400)
            # Tear the first circuit down and route a second one elsewhere;
            # the routers of row 2 were quiescent the whole first phase.
            network.remove_allocation(first)
            second = allocator.allocate("second", (0, 2), (2, 2), 100.0, FREQUENCY_HZ)
            network.apply_allocation(second)
            network.add_stream("second", second, generator, load=0.7)
            return ran(network, 400)

        assert assert_schedules_identical(scenario)["default"].streams["second"].words_received > 0

    def test_gated_teardown_from_a_hook_books_the_old_routes_idle_bits(self):
        """A clock-gated circuit drains and its routers park; between two
        run windows the circuit is torn down: the parked routers' idle cycles
        book the clocked/gated split of the routes they ran with, and the
        later ones that of none, as ``strict`` books them cycle by cycle."""

        def scenario(**params):
            _mesh, network = _circuit_network(3, 1, clock_gating=True, **params)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=1)
            network.attach_channel("a", (0, 0), (2, 0), 100.0, generator, load=1.0)
            network.run(60)
            network.halt_stream("a")
            network.run(90)
            network.remove_allocation(network.admission.allocation("a"))
            return ran(network, 110)

        assert_schedules_identical(scenario)


class TestResetClearsWires:
    def test_reset_mid_stream_leaves_no_stale_phits_on_links(self):
        """The change-gated link drive must not let a pre-reset phit survive
        kernel.reset(): the wires go back to idle with the registers."""

        def scenario(**params):
            mesh, network = _circuit_network(width=3, height=1, **params)
            allocation = LaneAllocator(mesh).allocate("s", (0, 0), (2, 0), 100.0, FREQUENCY_HZ)
            network.apply_allocation(allocation)
            network.add_stream("s", allocation, word_generator(BitFlipPattern.TYPICAL, seed=4), load=1.0)
            network.run(37)  # mid-packet: phits are on the wires
            network.kernel.reset()
            for link in network.links.values():
                assert link.idle()
                assert not any(link.ack)
            return ran(network, 300)

        assert assert_schedules_identical(scenario)["default"].streams["s"].words_received > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_reset_returns_paced_endpoints_to_power_on(self, kind):
        """A reset fabric sends and delivers at the cycles a fresh one does:
        the pacers' accumulated credit is cleared with everything else (the
        word *values* are the source's and are not rewound).  Reset
        mid-stream, with payload on the links, nothing of it survives."""

        def fabric(words=None):
            network = build_network(kind, Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
            generator = words or word_generator(BitFlipPattern.TYPICAL, seed=4)
            network.attach_channel("a", (0, 0), (3, 2), 100.0, generator, load=0.7)
            return network

        def history(network, cycles=600):  # the packet kind sends whole packets
            return [network.run(1) and network.stream_statistics() for _ in range(cycles)]

        fresh = history(fabric())
        assert fresh[-1]["a"]["received"] > 3
        used = fabric()
        used.run(13)  # the pacer is part-way to its first word
        used.kernel.reset()
        assert history(used) == fresh

        # Mid-stream, the source rewound with the fabric: every counter repeats.
        drawn = []

        def rewound_words():
            drawn.append(None)
            return len(drawn) * 40503 & 0xFFFF

        def booked(router):
            counts = router.activity.as_dict()
            counts.pop(ActivityKeys.CONFIG_WRITES, None)  # the configuration survives a reset, not the count
            return counts, router.activity.cycles

        def counters(network, cycles=400):
            return [
                network.run(1)
                and ({p: booked(r) for p, r in network.routers.items()}, network.stream_statistics())
                for _ in range(cycles)
            ]

        def in_flight(network):
            if kind == "circuit":
                return not all(link.idle() for link in network.links.values())
            return any(link.forward is not None for link in network.links.values())

        fresh = counters(fabric(rewound_words))
        drawn.clear()
        used = fabric(rewound_words)
        used.kernel.run_until(lambda _cycle: in_flight(used), max_cycles=400)
        used.run(2)  # and a change or two remembered on the wires behind it
        assert in_flight(used)
        used.kernel.reset()
        drawn.clear()
        assert counters(used) == fresh


class TestGtNetwork:
    """Strict-vs-default equivalence of the Æthereal-style TDMA network."""

    @staticmethod
    def _gt(width=3, height=3, topology=Mesh2D, **params):
        return build_network("gt", topology(width, height), frequency_hz=FREQUENCY_HZ, **params)

    def test_idle_gt_mesh_is_identical_and_mostly_skipped(self):
        stats = assert_schedules_identical(lambda **params: ran(self._gt(**params), 500))["default"].kernel.scheduler_stats
        assert stats.skipped > stats.evaluated

    def test_configured_but_unloaded_gt_mesh_sleeps(self):
        """Programmed slot tables without traffic are still a fixed point."""

        def scenario(**params):
            network = self._gt(**params)
            network.apply_allocation(network.admission.allocate("s", (0, 0), (2, 2), 100.0, FREQUENCY_HZ))
            return ran(network, 400)

        assert assert_schedules_identical(scenario)["default"].kernel.scheduler_stats.skipped > 0

    @pytest.mark.parametrize("load", [0.1, 0.6, 1.0])
    def test_gt_streams_are_identical(self, load):
        def scenario(**params):
            network = self._gt(4, 2, **params)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=17)
            network.attach_channel("a", (0, 0), (3, 1), 200.0, generator, load=load)
            network.attach_channel("b", (3, 0), (0, 0), 100.0, generator, load=load)
            return ran(network, 1000)

        for endpoint in assert_schedules_identical(scenario)["default"].streams.values():
            assert endpoint.words_received > 0

    @pytest.mark.parametrize("app", [hiperlan2, umts], ids=["hiperlan2", "umts"])
    def test_gt_application_traffic_is_identical(self, app):
        from repro.experiments.harness import run_app_traffic

        def scenario(**params):
            return run_app_traffic(
                "gt", Mesh2D(4, 4), app.build_process_graph(),
                frequency_hz=FREQUENCY_HZ, cycles=800, load=0.6, **params,
            ).network

        assert _delivered(assert_schedules_identical(scenario)["default"]) > 0

    def test_gt_on_torus_is_identical(self):
        def scenario(**params):
            network = self._gt(4, 4, Torus2D, **params)
            # The wraparound link makes this a 2-hop route instead of 4.
            network.attach_channel("wrap", (0, 0), (3, 0), 300.0,
                                   word_generator(BitFlipPattern.TYPICAL, seed=5), load=0.8)
            return ran(network, 600)

        wrap = assert_schedules_identical(scenario)["default"].streams["wrap"]
        assert wrap.words_received > 0
        assert wrap.allocation.hop_count == 2

    def test_gt_mid_run_reconfiguration_is_identical(self):
        """Tear a slot schedule down mid-run and program a new one through
        routers that were quiescent the whole first phase."""

        def scenario(**params):
            network = self._gt(**params)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=23)
            first = network.admission.allocate("first", (0, 0), (2, 0), 100.0, FREQUENCY_HZ)
            network.apply_allocation(first)
            network.add_stream("first", first, generator, load=0.7)
            network.run(400)
            network.remove_allocation(first)
            network.admission.release("first")
            second = network.admission.allocate("second", (0, 2), (2, 2), 100.0, FREQUENCY_HZ)
            network.apply_allocation(second)
            network.add_stream("second", second, generator, load=0.7)
            return ran(network, 400)

        assert assert_schedules_identical(scenario)["default"].streams["second"].words_received > 0


class TestCcnLifecycleReconfiguration:
    """CCN-driven mid-run reconfiguration is bit-identical on every kind.

    The full lifecycle an application churn performs — admit + program +
    attach paced streams, run, transactionally release (streams leave the
    kernel, routers are deconfigured), admit a *different* application onto
    other tiles and run again — must be invisible to the quiescence-aware
    scheduler on all three network kinds.
    """

    @pytest.mark.parametrize("kind", KINDS)
    def test_ccn_admit_release_admit_is_identical(self, kind):
        def scenario(**params):
            network = build_network(kind, Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ, **params)
            ccn = CentralCoordinationNode(network=network)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=31)
            first = hiperlan2.build_process_graph()
            ccn.admit(first)
            ccn.attach_traffic(first.name, generator, load=0.6)
            network.run(400)
            ccn.release(first.name)
            second = umts.build_process_graph()
            ccn.admit(second)
            ccn.attach_traffic(second.name, generator, load=0.6)
            return ran(network, 400)

        networks = assert_schedules_identical(scenario)
        assert _delivered(networks["default"]) > 0
        # Released streams really left the schedule on both kernels.
        for network in networks.values():
            assert not any(name.startswith("hiperlan2") for name in network.streams)


class TestDefaultSchedule:
    """What a user gets without asking must equal ``strict``.

    The networks on the default side are built with **no** ``schedule``
    argument, so these inputs follow :data:`repro.sim.engine.DEFAULT_SCHEDULE`
    wherever it points: three kinds × mesh/torus × paced application
    traffic, full-load rows, a mid-run reconfiguration that grows and
    shrinks the configuration, and a live link fault.
    """

    SIZE = 4

    @staticmethod
    def _rows(network, rows, load=1.0):
        for row in rows:
            network.attach_channel(
                f"row{row}", (0, row), (2, row), 100.0,
                word_generator(BitFlipPattern.TYPICAL, seed=row), load=load,
            )

    def _paced_app(self, network):
        ccn = CentralCoordinationNode(network=network)
        graph = hiperlan2.build_process_graph()
        ccn.admit(graph)
        ccn.attach_traffic(graph.name, word_generator(BitFlipPattern.TYPICAL, seed=11), load=0.5)
        network.run(400)

    def _full_rows(self, network):
        self._rows(network, range(self.SIZE))
        network.run(300)

    def _reconfiguration(self, network):
        self._rows(network, [0])
        network.run(150)
        self._rows(network, range(1, self.SIZE))
        network.run(150)
        for row in range(1, self.SIZE):
            network.detach_channel(f"row{row}", drain_cycles=32)
        network.run(150)

    def _link_fault(self, network):
        self._rows(network, range(self.SIZE))
        network.run(150)
        network.fail_link((0, 1), (1, 1))
        network.refresh_routing(network.degraded_topology())
        network.run(150)

    @pytest.mark.parametrize(
        "scenario", ["_paced_app", "_full_rows", "_reconfiguration", "_link_fault"]
    )
    @pytest.mark.parametrize("topology", [Mesh2D, Torus2D])
    @pytest.mark.parametrize("kind", KINDS)
    def test_default_equals_strict(self, kind, topology, scenario):
        def run(**params):
            network = build_network(kind, topology(self.SIZE, self.SIZE), frequency_hz=FREQUENCY_HZ, **params)
            getattr(self, scenario)(network)
            return network

        assert _delivered(assert_schedules_identical(run)["default"]) > 0

    def test_strided_hook_that_syncs_observes_strict_wires_and_activity(self):
        """A sample after every ``run(7)`` window reads the link wires and
        merged activity ``strict`` shows it, while the plane batches between
        the samples."""
        observed = {}
        for name, params in SCHEDULES.items():
            network = build_network(
                "circuit", Mesh2D(self.SIZE, self.SIZE), frequency_hz=FREQUENCY_HZ, **params
            )
            self._rows(network, range(self.SIZE), load=0.8)
            samples = []
            while network.kernel.cycle < 200:
                network.run(min(7, 200 - network.kernel.cycle))
                wires = {
                    key: (tuple(link.forward), tuple(link.ack))
                    for key, link in network.links.items()
                }
                samples.append((network.kernel.cycle, wires, network.merged_activity().as_dict()))
            observed[name] = samples
        assert len(observed["strict"]) == len(range(0, 200, 7))
        assert observed["default"] == observed["strict"]
        assert any(
            any(forward) for _, wires, _ in observed["strict"] for forward, _ in wires.values()
        ), "the hook never caught a phit on a wire"


class TestGenericComponentsNeverSkipped:
    def test_component_without_protocol_runs_every_cycle(self):
        from repro.sim.engine import ClockedComponent, SimulationKernel

        class Plain(ClockedComponent):
            """Keeps the default next_event_cycle(), "due now": always dense."""

            def __init__(self):
                super().__init__("plain")
                self.ticks = 0

            def evaluate(self, cycle):
                pass

            def commit(self, cycle):
                self.ticks += 1

        kernel = SimulationKernel()
        component = kernel.add(Plain())
        kernel.run(250)
        assert component.ticks == 250
        assert kernel.scheduler_stats.skipped == 0


class TestScheduleNames:
    """The two schedules are the only names the kernel accepts."""

    def test_unknown_schedule_lists_the_accepted_names(self):
        from repro.sim.engine import SimulationKernel

        for name in ("quiescent", "auto", "event"):  # the last two named retired schedules
            with pytest.raises(ValueError, match=f"one of 'strict', 'vector', got '{name}'"):
                SimulationKernel(schedule=name)
