"""Tests for the timed-component tier and event-horizon cycle leaping.

The quiescence protocol (PR 1) made simulation cost proportional to
*component* activity; the timed tier makes it proportional to *event*
activity: every component that can predict its next interesting cycle waits
for it on the event heap, and when nothing else is scheduled the kernel leaps
the clock straight there.  A component runs on the cycle it is registered,
then only at its predicted events.  These tests pin down the
leap semantics — exact emission schedules, leap boundaries, the
impossibility of wakes inside a leap window, removal of timed components —
and the strict-vs-default bit-identity with mixed timed/untimed components.
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


class _PacedEmitter(ClockedComponent):
    """Minimal timed component: a load pacer plus execution bookkeeping."""

    def __init__(self, name: str, load: float, cycles_per_word: int = 5) -> None:
        super().__init__(name)
        self._pacer = CyclePacer(load, cycles_per_word)
        self.executed: list[int] = []
        self.emissions: list[int] = []
        self.idle_cycles = 0

    def evaluate(self, cycle: int) -> None:
        self.executed.append(cycle)
        if self._pacer.should_emit():
            self.emissions.append(cycle)

    def commit(self, cycle: int) -> None:
        pass

    def next_event_cycle(self, cycle: int):
        gap = self._pacer.cycles_until_emit()
        return None if gap is None else cycle + gap - 1

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        self._pacer.skip(cycles)
        self.idle_cycles += cycles


class _Sink(ClockedComponent):
    """Timed pure sink: never generates an event of its own."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.executed = 0

    def evaluate(self, cycle: int) -> None:
        self.executed += 1

    def commit(self, cycle: int) -> None:
        pass

    def next_event_cycle(self, cycle: int):
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        pass


class _Plain(ClockedComponent):
    """A component that keeps the default next_event_cycle() ("due now"): always dense."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ticks = 0

    def evaluate(self, cycle: int) -> None:
        pass

    def commit(self, cycle: int) -> None:
        self.ticks += 1


class _Sleeper(ClockedComponent):
    """Timed component with no event of its own: parks after its first cycle."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ticks = 0
        self.idle_cycles = 0

    def evaluate(self, cycle: int) -> None:
        pass

    def commit(self, cycle: int) -> None:
        self.ticks += 1

    def next_event_cycle(self, cycle: int):
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        self.idle_cycles += cycles


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
        kernel, emitter, _ = self._run("vector", 0.1, 1000)
        assert emitter.emissions == strict_emitter.emissions
        assert kernel.cycle == strict_kernel.cycle == 1000
        # The default schedule really leapt: after the registration cycle
        # only emission cycles were executed.
        assert kernel.scheduler_stats.leaps > 0
        assert emitter.executed == [0] + emitter.emissions
        # Every skipped cycle was idle-accounted exactly once.
        assert len(emitter.executed) + emitter.idle_cycles == 1000

    def test_event_exactly_at_leap_target_runs(self):
        """The event cycle itself is executed, never skipped."""
        kernel = SimulationKernel(schedule="vector")
        emitter = kernel.add(_PacedEmitter("emitter", 0.5, cycles_per_word=10))
        kernel.run(20)
        # load 0.5, threshold 10: emission on the 20th call (cycle 19).
        assert emitter.emissions == [19]
        assert emitter.executed == [0, 19]

    def test_run_boundary_inside_leap_window(self):
        """A run ending before the next event executes no cycle at all, and
        the event still lands on the correct absolute cycle afterwards."""
        kernel = SimulationKernel(schedule="vector")
        emitter = kernel.add(_PacedEmitter("emitter", 0.5, cycles_per_word=10))
        kernel.run(7)  # inside the [0, 19) silent window
        assert kernel.cycle == 7
        assert emitter.executed == [0]
        assert emitter.idle_cycles == 6
        kernel.run(13)
        assert kernel.cycle == 20
        assert emitter.emissions == [19]

    def test_sink_only_kernel_leaps_to_the_horizon(self):
        kernel = SimulationKernel(schedule="vector")
        sink = kernel.add(_Sink("sink"))
        kernel.run(500)
        assert kernel.cycle == 500
        assert sink.executed == 1  # its registration cycle
        assert kernel.scheduler_stats.leaps == 1
        assert kernel.scheduler_stats.leaped_cycles == 499

    def test_sleeping_components_stay_asleep_across_leaps(self):
        kernel = SimulationKernel(schedule="vector")
        sleeper = kernel.add(_Sleeper("sleeper"))
        emitter = kernel.add(_PacedEmitter("emitter", 0.05))
        kernel.run(600)
        assert kernel.scheduler_stats.leaps > 0
        assert sleeper.ticks + sleeper.idle_cycles == 600
        assert len(emitter.executed) + emitter.idle_cycles == 600

    def test_wake_during_leap_window_is_impossible_and_asserted(self):
        """idle_tick must not change observable inputs; the kernel turns a
        wake inside the leap window into a loud error."""

        class _Malicious(_PacedEmitter):
            def __init__(self, name, victim):
                super().__init__(name, 0.1)
                self.victim = victim

            def idle_tick(self, start_cycle, cycles):
                super().idle_tick(start_cycle, cycles)
                self.victim.wake()  # nothing runs during a leap: illegal

        kernel = SimulationKernel(schedule="vector")
        victim = kernel.add(_Sleeper("victim"))
        kernel.add(_Malicious("malicious", victim))
        with pytest.raises(SimulationError, match="cycle leap"):
            kernel.run(300)

    def test_wake_during_horizon_scan_is_asserted_too(self):
        """next_event_cycle must be a pure prediction; a side-effecting one
        is rejected as loudly as a side-effecting idle_tick."""

        class _ImpureScanner(_PacedEmitter):
            def __init__(self, name, victim):
                super().__init__(name, 0.1)
                self.victim = victim

            def next_event_cycle(self, cycle):
                self.victim.wake()  # scanning must not change inputs
                return super().next_event_cycle(cycle)

        kernel = SimulationKernel(schedule="vector")
        victim = kernel.add(_Sleeper("victim"))
        kernel.add(_ImpureScanner("impure", victim))
        with pytest.raises(SimulationError, match="cycle leap"):
            kernel.run(300)

    def test_strict_schedule_never_leaps(self):
        kernel, emitter, _ = self._run("strict", 0.05, 400)
        assert kernel.scheduler_stats.leaps == 0
        assert len(emitter.executed) == 400


class TestMixedTimedAndUntimed:
    def test_untimed_component_pins_the_horizon(self):
        """One plain component forces single-stepping, while the timed one
        still runs only at its events; results stay exact."""
        strict = SimulationKernel(schedule="strict")
        strict_emitter = strict.add(_PacedEmitter("emitter", 0.1))
        strict.add(_Plain("plain"))
        strict.run(500)

        auto = SimulationKernel(schedule="vector")
        auto_emitter = auto.add(_PacedEmitter("emitter", 0.1))
        plain = auto.add(_Plain("plain"))
        auto.run(500)

        assert auto.scheduler_stats.leaps == 0
        assert plain.ticks == 500
        assert auto_emitter.emissions == strict_emitter.emissions
        assert auto_emitter.executed == [0] + auto_emitter.emissions
        assert len(auto_emitter.executed) + auto_emitter.idle_cycles == 500

    def test_input_dirty_component_blocks_the_leap(self):
        """A freshly woken component must run before leaping resumes."""
        kernel = SimulationKernel(schedule="vector")
        sleeper = kernel.add(_Sleeper("sleeper"))
        kernel.add(_PacedEmitter("emitter", 0.05))
        kernel.run(100)
        assert sleeper._asleep
        sleeper.wake()  # external wake between runs
        kernel.run(100)
        assert kernel.cycle == 200
        # The woken component ran again (then went back to sleep).
        assert sleeper.ticks >= 2
        assert sleeper.ticks + sleeper.idle_cycles == 200


class TestTimedComponentRemoval:
    def test_remove_timed_component_after_leaps(self):
        kernel = SimulationKernel(schedule="vector")
        emitter = kernel.add(_PacedEmitter("emitter", 0.05))
        keep = kernel.add(_Sink("sink"))
        kernel.run(300)
        assert kernel.scheduler_stats.leaps > 0
        kernel.remove(emitter)
        assert len(emitter.executed) + emitter.idle_cycles == 300
        kernel.run(200)  # only the sink remains: pure horizon leaps
        assert kernel.cycle == 500
        assert len(emitter.executed) + emitter.idle_cycles == 300
        assert keep._scheduler is kernel
        # The name is immediately reusable.
        kernel.add(_PacedEmitter("emitter", 0.5))

    def test_remove_sleeping_component_mid_leap_era_flushes_exactly(self):
        kernel = SimulationKernel(schedule="vector")
        sleeper = kernel.add(_Sleeper("sleeper"))
        kernel.add(_PacedEmitter("emitter", 0.05))
        kernel.run(250)
        kernel.remove(sleeper)
        assert sleeper.ticks + sleeper.idle_cycles == 250

    def test_remove_pending_wake_component_between_runs(self):
        """A component woken but not yet rescheduled leaves via the woken list."""
        kernel = SimulationKernel(schedule="vector")
        sleeper = kernel.add(_Sleeper("sleeper"))
        kernel.add(_Plain("keepalive"))
        kernel.run(50)
        assert sleeper._asleep
        sleeper.wake()
        assert sleeper._pending_wake
        kernel.remove(sleeper)
        assert not sleeper._pending_wake
        kernel.run(10)
        assert sleeper.ticks + sleeper.idle_cycles == 50


class TestTimedHooks:
    def test_timed_hook_runs_identical_cycles_under_both_schedules(self):
        seen = {}
        for schedule in ("strict", "vector"):
            kernel = SimulationKernel(schedule=schedule)
            kernel.add(_PacedEmitter("emitter", 0.05))
            cycles: list[int] = []
            kernel.add_pre_cycle_hook(cycles.append, every=50)
            kernel.run(300)
            seen[schedule] = cycles
        assert seen["vector"] == seen["strict"] == [0, 50, 100, 150, 200, 250]

    def test_timed_post_hook_bounds_the_leap(self):
        kernel = SimulationKernel(schedule="vector")
        kernel.add(_Sink("sink"))
        cycles: list[int] = []
        kernel.add_post_cycle_hook(cycles.append, every=100)
        kernel.run(350)
        assert cycles == [0, 100, 200, 300]
        # Leaps covered everything except the four hook cycles.
        assert kernel.scheduler_stats.leaped_cycles == 350 - 4

    def test_dense_hook_forces_single_stepping(self):
        kernel = SimulationKernel(schedule="vector")
        kernel.add(_Sink("sink"))
        cycles: list[int] = []
        kernel.add_pre_cycle_hook(cycles.append)
        kernel.run(40)
        assert cycles == list(range(40))
        assert kernel.scheduler_stats.leaps == 0

    def test_invalid_hook_stride_rejected(self):
        kernel = SimulationKernel()
        with pytest.raises(ValueError):
            kernel.add_pre_cycle_hook(lambda cycle: None, every=0)
        with pytest.raises(ValueError):
            kernel.add_post_cycle_hook(lambda cycle: None, every=-3)


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
