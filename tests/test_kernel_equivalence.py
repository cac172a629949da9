"""Equivalence of the strict and the default (``vector``) schedule.

The default schedule must be an *invisible* optimisation: for every tier-1
scenario — an idle mesh, a single stream, crossing streams, the full
UMTS / HiperLAN/2 application traffic, a mid-run reconfiguration, and the
clock-gated router variant — the event heap with its self-gating vector plane
has to reproduce the ``strict`` (seed-equivalent) schedule bit for bit:
identical cycle counts, identical activity counters, identical delivered
data, identical power numbers.  The names of two retired schedules, ``auto``
and ``event``, are aliases of ``vector``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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
SCHEDULES = ("strict", "vector")


def _snapshot(network):
    """Everything the experiments read from a network, in comparable form."""
    activity = {
        position: (router.activity.as_dict(), router.activity.cycles)
        for position, router in network.routers.items()
    }
    power = {
        position: network.routers[position].power(FREQUENCY_HZ).as_dict()
        for position in network.routers
    }
    return {
        "cycle": network.kernel.cycle,
        "activity": activity,
        "power": power,
        "streams": network.stream_statistics(),
    }


def _assert_equivalent(nets):
    reference = _snapshot(nets["strict"])
    for schedule, network in nets.items():
        if schedule == "strict":
            continue
        assert _snapshot(network) == reference, f"{schedule} diverged from strict"
    # Only the optimised schedules may skip cycles; strict never does.
    assert nets["strict"].kernel.scheduler_stats.skipped == 0


def _circuit_network(schedule, width=3, height=3, clock_gating=False):
    mesh = Mesh2D(width, height)
    return mesh, CircuitSwitchedNoC(
        mesh, frequency_hz=FREQUENCY_HZ, clock_gating=clock_gating, schedule=schedule
    )


class TestIdleMesh:
    def test_idle_circuit_mesh_is_identical_and_mostly_skipped(self):
        nets = {}
        for schedule in SCHEDULES:
            _, network = _circuit_network(schedule)
            network.run(500)
            nets[schedule] = network
        _assert_equivalent(nets)
        # Idle routers sleep from the second cycle onward.
        stats = nets["vector"].kernel.scheduler_stats
        assert stats.skipped > stats.evaluated

    def test_idle_clock_gated_mesh_is_identical(self):
        nets = {}
        for schedule in SCHEDULES:
            _, network = _circuit_network(schedule, clock_gating=True)
            network.run(500)
            nets[schedule] = network
        _assert_equivalent(nets)

    def test_idle_packet_mesh_is_identical(self):
        nets = {}
        for schedule in SCHEDULES:
            mesh = Mesh2D(3, 3)
            network = PacketSwitchedNoC(mesh, frequency_hz=FREQUENCY_HZ, schedule=schedule)
            gen = word_generator(BitFlipPattern.TYPICAL, seed=1)
            network.add_stream("idle", (0, 0), (2, 2), gen, load=0.0)
            network.run(500)
            nets[schedule] = network
        _assert_equivalent(nets)


class TestSingleStream:
    @settings(max_examples=8, deadline=None)
    @given(
        load=st.sampled_from([0.05, 0.3, 0.6, 1.0]),
        seed=st.integers(min_value=0, max_value=2**16),
        gating=st.booleans(),
    )
    def test_stream_over_line_is_identical(self, load, seed, gating):
        nets = {}
        for schedule in SCHEDULES:
            mesh, network = _circuit_network(schedule, width=4, height=1, clock_gating=gating)
            allocation = LaneAllocator(mesh).allocate("s", (0, 0), (3, 0), 100.0, FREQUENCY_HZ)
            network.apply_allocation(allocation)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=seed)
            network.add_stream("s", allocation, generator, load=load)
            network.run(1200)
            nets[schedule] = network
        _assert_equivalent(nets)
        if load >= 0.3:
            assert nets["vector"].streams["s"].words_received > 0

    @settings(max_examples=6, deadline=None)
    @given(load=st.sampled_from([0.1, 0.5, 1.0]), seed=st.integers(min_value=0, max_value=2**16))
    def test_packet_stream_is_identical(self, load, seed):
        nets = {}
        for schedule in SCHEDULES:
            mesh = Mesh2D(4, 2)
            network = PacketSwitchedNoC(mesh, frequency_hz=FREQUENCY_HZ, schedule=schedule)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=seed)
            network.add_stream("s", (0, 0), (3, 1), generator, load=load)
            network.run(1200)
            nets[schedule] = network
        _assert_equivalent(nets)


class TestCrossingStreams:
    def test_four_streams_through_center_router(self):
        nets = {}
        for schedule in SCHEDULES:
            mesh, network = _circuit_network(schedule)
            allocator = LaneAllocator(mesh)
            pairs = [((0, 1), (2, 1)), ((2, 1), (0, 1)), ((1, 0), (1, 2)), ((1, 2), (1, 0))]
            for index, (src, dst) in enumerate(pairs):
                name = f"s{index}"
                allocation = allocator.allocate(name, src, dst, 100.0, FREQUENCY_HZ)
                network.apply_allocation(allocation)
                generator = word_generator(BitFlipPattern.TYPICAL, seed=index)
                network.add_stream(name, allocation, generator, load=0.8)
            network.run(600)
            nets[schedule] = network
        _assert_equivalent(nets)
        for endpoint in nets["vector"].streams.values():
            assert endpoint.words_received > 0


class TestApplicationTraffic:
    @pytest.mark.parametrize("app", [hiperlan2, umts], ids=["hiperlan2", "umts"])
    def test_admitted_application_is_identical(self, app):
        nets = {}
        for schedule in SCHEDULES:
            mesh = Mesh2D(4, 4)
            ccn = CentralCoordinationNode(mesh, network_frequency_hz=FREQUENCY_HZ)
            network = CircuitSwitchedNoC(mesh, frequency_hz=FREQUENCY_HZ, schedule=schedule)
            admission = ccn.admit(app.build_process_graph(), network)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=42)
            for allocation in admission.allocations:
                network.add_stream(allocation.channel_name, allocation, generator, load=0.6)
            network.run(800)
            nets[schedule] = network
        _assert_equivalent(nets)
        delivered = sum(s["received"] for s in nets["vector"].stream_statistics().values())
        assert delivered > 0


class TestMidRunReconfiguration:
    def test_teardown_and_reroute_mid_run_is_identical(self):
        """Configure a circuit, stream, tear it down mid-run, configure a new
        one through different routers and stream again — the sequence every
        CCN reconfiguration performs, exercising sleeping routers being woken
        by configuration writes."""
        nets = {}
        for schedule in SCHEDULES:
            mesh, network = _circuit_network(schedule)
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
            network.run(400)
            nets[schedule] = network
        _assert_equivalent(nets)
        assert nets["vector"].streams["second"].words_received > 0


class TestResetClearsWires:
    def test_reset_mid_stream_leaves_no_stale_phits_on_links(self):
        """The change-gated link drive must not let a pre-reset phit survive
        kernel.reset(): the wires go back to idle with the registers."""
        nets = {}
        for schedule in SCHEDULES:
            mesh, network = _circuit_network(schedule, width=3, height=1)
            allocation = LaneAllocator(mesh).allocate("s", (0, 0), (2, 0), 100.0, FREQUENCY_HZ)
            network.apply_allocation(allocation)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=4)
            network.add_stream("s", allocation, generator, load=1.0)
            network.run(37)  # mid-packet: phits are on the wires
            network.kernel.reset()
            for link in network.links.values():
                assert link.idle()
                assert not any(link.ack)
            network.run(300)
            nets[schedule] = network
        _assert_equivalent(nets)
        assert nets["vector"].streams["s"].words_received > 0


    @pytest.mark.parametrize("kind", ["circuit", "packet", "gt"])
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
    """Strict-vs-auto equivalence of the Æthereal-style TDMA network."""

    def test_idle_gt_mesh_is_identical_and_mostly_skipped(self):
        nets = {}
        for schedule in SCHEDULES:
            network = build_network(
                "gt", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule=schedule
            )
            network.run(500)
            nets[schedule] = network
        _assert_equivalent(nets)
        stats = nets["vector"].kernel.scheduler_stats
        assert stats.skipped > stats.evaluated

    def test_configured_but_unloaded_gt_mesh_sleeps(self):
        """Programmed slot tables without traffic are still a fixed point."""
        nets = {}
        for schedule in SCHEDULES:
            network = build_network(
                "gt", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule=schedule
            )
            allocation = network.admission.allocate("s", (0, 0), (2, 2), 100.0, FREQUENCY_HZ)
            network.apply_allocation(allocation)
            network.run(400)
            nets[schedule] = network
        _assert_equivalent(nets)
        stats = nets["vector"].kernel.scheduler_stats
        assert stats.skipped > 0

    @pytest.mark.parametrize("load", [0.1, 0.6, 1.0])
    def test_gt_streams_are_identical(self, load):
        nets = {}
        for schedule in SCHEDULES:
            network = build_network(
                "gt", Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ, schedule=schedule
            )
            generator = word_generator(BitFlipPattern.TYPICAL, seed=17)
            network.attach_channel("a", (0, 0), (3, 1), 200.0, generator, load=load)
            network.attach_channel("b", (3, 0), (0, 0), 100.0, generator, load=load)
            network.run(1000)
            nets[schedule] = network
        _assert_equivalent(nets)
        for endpoint in nets["vector"].streams.values():
            assert endpoint.words_received > 0

    @pytest.mark.parametrize("app", [hiperlan2, umts], ids=["hiperlan2", "umts"])
    def test_gt_application_traffic_is_identical(self, app):
        from repro.experiments.harness import run_app_traffic

        nets = {}
        for schedule in SCHEDULES:
            result = run_app_traffic(
                "gt", Mesh2D(4, 4), app.build_process_graph(),
                frequency_hz=FREQUENCY_HZ, cycles=800, load=0.6, schedule=schedule,
            )
            nets[schedule] = result.network
        _assert_equivalent(nets)
        delivered = sum(s["received"] for s in nets["vector"].stream_statistics().values())
        assert delivered > 0

    def test_gt_on_torus_is_identical(self):
        nets = {}
        for schedule in SCHEDULES:
            network = build_network(
                "gt", Torus2D(4, 4), frequency_hz=FREQUENCY_HZ, schedule=schedule
            )
            generator = word_generator(BitFlipPattern.TYPICAL, seed=5)
            # The wraparound link makes this a 2-hop route instead of 4.
            network.attach_channel("wrap", (0, 0), (3, 0), 300.0, generator, load=0.8)
            network.run(600)
            nets[schedule] = network
        _assert_equivalent(nets)
        assert nets["vector"].streams["wrap"].words_received > 0
        assert nets["vector"].streams["wrap"].allocation.hop_count == 2

    def test_gt_mid_run_reconfiguration_is_identical(self):
        """Tear a slot schedule down mid-run and program a new one through
        routers that were quiescent the whole first phase."""
        nets = {}
        for schedule in SCHEDULES:
            network = build_network(
                "gt", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule=schedule
            )
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
            network.run(400)
            nets[schedule] = network
        _assert_equivalent(nets)
        assert nets["vector"].streams["second"].words_received > 0


class TestCcnLifecycleReconfiguration:
    """CCN-driven mid-run reconfiguration is bit-identical on every kind.

    The full lifecycle an application churn performs — admit + program +
    attach paced streams, run, transactionally release (streams leave the
    kernel, routers are deconfigured), admit a *different* application onto
    other tiles and run again — must be invisible to the quiescence-aware
    scheduler on all three network kinds.
    """

    @pytest.mark.parametrize("kind", ["circuit", "packet", "gt"])
    def test_ccn_admit_release_admit_is_identical(self, kind):
        from repro.apps.drm import build_process_graph as build_drm

        nets = {}
        for schedule in SCHEDULES:
            network = build_network(
                kind, Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ, schedule=schedule
            )
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
            network.run(400)
            nets[schedule] = network
        _assert_equivalent(nets)
        delivered = sum(
            s["received"] for s in nets["vector"].stream_statistics().values()
        )
        assert delivered > 0
        # Released streams really left the schedule on both kernels.
        for network in nets.values():
            assert not any(
                name.startswith("hiperlan2") for name in network.streams
            )


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
    @pytest.mark.parametrize("kind", ["circuit", "packet", "gt"])
    def test_default_equals_strict(self, kind, topology, scenario):
        nets = {}
        for name, params in (("strict", {"schedule": "strict"}), ("default", {})):
            network = build_network(
                kind, topology(self.SIZE, self.SIZE), frequency_hz=FREQUENCY_HZ, **params
            )
            getattr(self, scenario)(network)
            nets[name] = network
        _assert_equivalent(nets)
        assert nets["default"].fault_drops() == nets["strict"].fault_drops()
        delivered = sum(s["received"] for s in nets["default"].stream_statistics().values())
        assert delivered > 0

    def test_strided_hook_that_syncs_observes_strict_wires_and_activity(self):
        """A ``every=7`` post-cycle hook that calls ``kernel.sync()`` first
        reads the link wires and merged activity ``strict`` shows it, while
        the plane batches between the hook cycles."""
        observed = {}
        for name, params in (("strict", {"schedule": "strict"}), ("default", {})):
            network = build_network(
                "circuit", Mesh2D(self.SIZE, self.SIZE), frequency_hz=FREQUENCY_HZ, **params
            )
            self._rows(network, range(self.SIZE), load=0.8)
            samples = []

            def hook(cycle, network=network, samples=samples):
                network.kernel.sync()
                wires = {
                    key: (tuple(link.forward), tuple(link.ack))
                    for key, link in network.links.items()
                }
                samples.append((cycle, wires, network.merged_activity().as_dict()))

            network.kernel.add_post_cycle_hook(hook, every=7)
            network.run(200)
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
