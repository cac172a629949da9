"""Tests for the leaping clock.

Before each cycle the default schedule asks every component for its next
interesting cycle and, when every answer lies later, leaps the clock
straight to the earliest one; nothing runs inside a leap, and every
component settles over everything elapsed at the end of each run.  These
tests pin down the leap semantics — exact emission schedules, leap
boundaries, removal of timed components — and the strict-vs-default
bit-identity with mixed timed/untimed components.
"""

from __future__ import annotations

import pytest

from oracle import assert_identical, ran
from pacing import CyclePacer, emissions
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.common import SimulationError
from repro.core.testbench import LoadPacer
from repro.noc.fabric import build_network
from repro.noc.network import CircuitSwitchedNoC
from repro.noc.path_allocation import LaneAllocator
from repro.noc.topology import Mesh2D
from repro.sim.engine import ClockedComponent, SimulationKernel

FREQUENCY_HZ = 100e6


class _Settling(ClockedComponent):
    """Counts the cycles it ran and the cycles it settled."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.executed: list[int] = []
        self.settled = 0

    def evaluate(self, cycle: int) -> None:
        self.executed.append(cycle)

    def commit(self, cycle: int) -> None:
        pass

    def settle(self, start_cycle: int, cycles: int) -> None:
        self.settled += cycles


class _PacedEmitter(_Settling):
    """Minimal timed component: emits at its pacer's cycles, in closed form."""

    def __init__(self, name: str, load: float, cycles_per_word: int = 5) -> None:
        super().__init__(name)
        self._pacer = LoadPacer(load, cycles_per_word)
        self._due = self._pacer.emit_from(0)
        self.emissions: list[int] = []

    def evaluate(self, cycle: int) -> None:
        super().evaluate(cycle)
        if cycle == self._due:
            self.emissions.append(cycle)
            self._due = self._pacer.emit_from(cycle + 1)

    def next_event_cycle(self, cycle: int):
        return self._due


class _Sink(_Settling):
    """Timed pure sink: never generates an event of its own."""

    def next_event_cycle(self, cycle: int):
        return None


class TestLoadPacerExactness:
    @pytest.mark.parametrize("load", [0.05, 0.1, 0.25, 0.3, 0.6, 0.8, 1.0])
    def test_prediction_matches_sequential_emission(self, load):
        """emit_from's leaps reproduce a per-cycle consultation cycle for cycle."""
        stepped = CyclePacer(load, 5)
        stepped_emissions = [c for c in range(2000) if stepped.should_emit()]
        assert emissions(LoadPacer(load, 5), 2000) == stepped_emissions

    def test_zero_load_never_emits(self):
        assert LoadPacer(0.0, 5).emit_from(0) is None
        assert not CyclePacer(0.0, 5).should_emit()

    def test_full_load_period_is_exact(self):
        assert emissions(LoadPacer(1.0, 5), 50) == [4, 9, 14, 19, 24, 29, 34, 39, 44, 49]


class TestCycleLeaping:
    def _run(self, schedule: str, load: float, cycles: int):
        kernel = SimulationKernel(schedule=schedule)
        emitter = kernel.add(_PacedEmitter("emitter", load))
        sink = kernel.add(_Sink("sink"))
        kernel.run(cycles)
        return kernel, emitter, sink

    def test_leaped_schedule_emits_on_identical_cycles(self):
        strict_kernel, strict_emitter, _ = self._run("strict", 0.1, 1000)
        kernel, emitter, sink = self._run("vector", 0.1, 1000)
        assert emitter.emissions == strict_emitter.emissions
        assert kernel.cycle == strict_kernel.cycle == 1000
        # The default schedule really leapt: only emission cycles ran, for
        # every component, and every cycle was settled exactly once.
        stats = kernel.scheduler_stats
        assert stats.leaps > 0
        assert emitter.executed == sink.executed == emitter.emissions
        assert len(emitter.executed) + stats.leaped_cycles == 1000
        assert stats.skipped == 2 * stats.leaped_cycles
        assert emitter.settled == sink.settled == 1000

    def test_event_exactly_at_leap_target_runs(self):
        """The event cycle itself is executed, never skipped."""
        kernel = SimulationKernel(schedule="vector")
        emitter = kernel.add(_PacedEmitter("emitter", 0.5, cycles_per_word=10))
        kernel.run(20)
        # load 0.5, threshold 10: emission on the 20th call (cycle 19).
        assert emitter.emissions == [19]
        assert emitter.executed == [19]

    def test_run_boundary_inside_leap_window(self):
        """A run ending before the next event executes no cycle at all, and
        the event still lands on the correct absolute cycle afterwards."""
        kernel = SimulationKernel(schedule="vector")
        emitter = kernel.add(_PacedEmitter("emitter", 0.5, cycles_per_word=10))
        kernel.run(7)  # inside the [0, 19) silent window
        assert kernel.cycle == 7
        assert emitter.executed == []
        assert emitter.settled == 7
        kernel.run(13)
        assert kernel.cycle == 20
        assert emitter.emissions == [19]

    def test_sink_only_kernel_leaps_to_the_horizon(self):
        kernel = SimulationKernel(schedule="vector")
        sink = kernel.add(_Sink("sink"))
        kernel.run(500)
        assert kernel.cycle == 500
        assert sink.executed == []
        assert kernel.scheduler_stats.leaps == 1
        assert kernel.scheduler_stats.leaped_cycles == 500

    def test_sleeping_components_stay_asleep_across_leaps(self):
        """A component with no event of its own runs only in the cycles
        another one needs, and settles over every cycle."""
        kernel = SimulationKernel(schedule="vector")
        sink = kernel.add(_Sink("sink"))
        emitter = kernel.add(_PacedEmitter("emitter", 0.05))
        kernel.run(600)
        assert kernel.scheduler_stats.leaps > 0
        assert sink.executed == emitter.executed == emitter.emissions
        assert sink.settled == emitter.settled == 600

    def test_strict_schedule_never_leaps(self):
        kernel, emitter, _ = self._run("strict", 0.05, 400)
        assert kernel.scheduler_stats.leaps == 0
        assert len(emitter.executed) == 400


class TestMixedTimedAndUntimed:
    def test_untimed_component_pins_the_horizon(self):
        """One plain component forces single-stepping; results stay exact."""
        strict = SimulationKernel(schedule="strict")
        strict_emitter = strict.add(_PacedEmitter("emitter", 0.1))
        strict.add(_Settling("plain"))
        strict.run(500)

        auto = SimulationKernel(schedule="vector")
        auto_emitter = auto.add(_PacedEmitter("emitter", 0.1))
        plain = auto.add(_Settling("plain"))
        auto.run(500)

        assert auto.scheduler_stats.leaps == 0
        assert plain.executed == auto_emitter.executed == list(range(500))
        assert auto_emitter.emissions == strict_emitter.emissions


class TestTimedComponentRemoval:
    def test_remove_timed_component_after_leaps(self):
        kernel = SimulationKernel(schedule="vector")
        emitter = kernel.add(_PacedEmitter("emitter", 0.05))
        keep = kernel.add(_Sink("sink"))
        kernel.run(300)
        assert kernel.scheduler_stats.leaps > 0
        kernel.remove(emitter)
        assert emitter.settled == 300
        kernel.run(200)  # only the sink remains: pure horizon leaps
        assert kernel.cycle == 500
        assert emitter.settled == 300 and keep.settled == 500
        assert keep._scheduler is kernel
        # The name is immediately reusable.
        kernel.add(_PacedEmitter("emitter", 0.5))

    def test_remove_sleeping_component_mid_leap_era_flushes_exactly(self):
        kernel = SimulationKernel(schedule="vector")
        sink = kernel.add(_Sink("sink"))
        emitter = kernel.add(_PacedEmitter("emitter", 0.05))
        kernel.run(250)
        kernel.remove(sink)
        assert sink.settled == 250 and sink.executed == emitter.executed
        kernel.run(50)
        assert sink.settled == 250 and emitter.settled == 300


class TestRunUntilStride:
    class _Counter(ClockedComponent):
        def __init__(self):
            super().__init__("counter")
            self.value = 0

        def evaluate(self, cycle):
            pass

        def commit(self, cycle):
            self.value += 1

    def test_default_stride_preserves_exact_stop_cycle(self):
        kernel = SimulationKernel()
        counter = kernel.add(self._Counter())
        kernel.run_until(lambda cycle: counter.value >= 7)
        assert counter.value == 7

    def test_stride_checks_only_at_chunk_boundaries(self):
        kernel = SimulationKernel()
        counter = kernel.add(self._Counter())
        end = kernel.run_until(lambda cycle: counter.value >= 7, check_every=8)
        assert end == 8  # overshoot bounded by one stride
        assert counter.value == 8

    def test_stride_still_honours_max_cycles(self):
        """max_cycles is a hard simulation bound: the last stride is clamped."""
        kernel = SimulationKernel()
        kernel.add(self._Counter())
        with pytest.raises(SimulationError):
            kernel.run_until(lambda cycle: False, max_cycles=20, check_every=8)
        assert kernel.cycle == 20  # 8 + 8 + 4, never past the budget

    def test_invalid_stride_rejected(self):
        kernel = SimulationKernel()
        kernel.add(self._Counter())
        with pytest.raises(ValueError):
            kernel.run_until(lambda cycle: True, check_every=0)


class TestPacedNetworkLeaping:
    """End-to-end: a paced circuit stream leaps between word injections."""

    @pytest.mark.parametrize("load", [0.05, 0.1])
    def test_paced_circuit_stream_is_identical_and_leaps(self, load):
        def scenario(**params):
            mesh = Mesh2D(4, 1)
            network = CircuitSwitchedNoC(mesh, frequency_hz=FREQUENCY_HZ, **params)
            allocation = LaneAllocator(mesh).allocate("s", (0, 0), (3, 0), 100.0, FREQUENCY_HZ)
            network.apply_allocation(allocation)
            network.add_stream("s", allocation, word_generator(BitFlipPattern.TYPICAL, seed=11), load=load)
            return ran(network, 1500)

        default = assert_identical(scenario)["default"]
        assert default.kernel.scheduler_stats.leaps > 0
        assert default.streams["s"].words_received > 0

    @pytest.mark.parametrize("load", [0.1, 0.37, 1.0])
    def test_gt_link_driver_scenario_is_identical_and_leaps(self, load):
        """The Table-3 single-router GT harness: a slot-gated link driver
        must leap emission-to-emission (pacer credit counts opportunities)."""
        from repro.common import Port
        from repro.noc.gt_network import (
            GtLinkStreamConsumer,
            GtLinkStreamDriver,
            SlotTableRouter,
            TdmaDatapath,
            TdmaLink,
        )

        def run(schedule):
            slots = 16
            router = SlotTableRouter("dut", slots=slots)
            rx = TdmaLink("rx_w")
            tx = TdmaLink("tx_e")
            router.attach_link(Port.WEST, rx, TdmaLink("tx_w"))
            router.attach_link(Port.EAST, TdmaLink("rx_e"), tx)
            stream_slots = frozenset({2, 7, 11})
            for slot in stream_slots:
                router.program(Port.EAST, slot, Port.WEST, "s0")
            source = word_generator(BitFlipPattern.TYPICAL, seed=13)
            driver = GtLinkStreamDriver("src", rx, slots, stream_slots, source, load)
            consumer = GtLinkStreamConsumer("dst", tx, slots)
            consumer.claim(0, stream_slots)
            kernel = SimulationKernel(FREQUENCY_HZ, schedule=schedule)
            datapath = TdmaDatapath("datapath", [router])
            datapath.adopt(driver), datapath.adopt(consumer)
            kernel.add(datapath)
            kernel.run(1200)
            return kernel, (
                driver.words_sent,
                consumer.received,
                router.activity.as_dict(),
                router.activity.cycles,
            )

        strict_kernel, strict_obs = run("strict")
        auto_kernel, auto_obs = run("vector")
        assert auto_obs == strict_obs
        assert strict_obs[0] > 0
        assert auto_kernel.scheduler_stats.leaps > 0
        if load <= 0.5:
            # Pacer-aware horizon: leaps cross silent slot opportunities too,
            # so most of the run is leaped, not stepped.
            assert auto_kernel.scheduler_stats.leaped_cycles > 600

    def test_paced_gt_stream_is_identical_and_leaps(self):
        def scenario(**params):
            network = build_network("gt", Mesh2D(3, 1), frequency_hz=FREQUENCY_HZ, **params)
            generator = word_generator(BitFlipPattern.TYPICAL, seed=7)
            # Low bandwidth relative to slot capacity: long silent windows.
            network.attach_channel("a", (0, 0), (2, 0), 40.0, generator, load=0.5)
            return ran(network, 1500)

        default = assert_identical(scenario)["default"]
        assert default.kernel.scheduler_stats.leaps > 0
        assert default.streams["a"].words_received > 0
