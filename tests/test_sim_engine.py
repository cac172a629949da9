"""Tests for the simulation kernel: one commit per component per cycle."""

from __future__ import annotations

import pytest

from repro.common import SimulationError
from repro.sim.engine import SCHEDULES, ClockedComponent, SimulationKernel


class _Counter(ClockedComponent):
    """Counts clock cycles (the default next_event_cycle(), "due now", keeps
    it on every cycle)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = 0

    def commit(self, cycle: int) -> None:
        self.value += 1

    def reset(self) -> None:
        self.value = 0


class _Follower(ClockedComponent):
    """Copies another component's value in its commit (always due, like
    :class:`_Counter`)."""

    def __init__(self, name: str, source: _Counter) -> None:
        super().__init__(name)
        self.source = source
        self.value = 0

    def commit(self, cycle: int) -> None:
        self.value = self.source.value


class TestKernelBasics:
    def test_component_requires_name(self):
        with pytest.raises(ValueError):
            _Counter("")

    def test_add_rejects_non_component(self):
        kernel = SimulationKernel()
        with pytest.raises(TypeError):
            kernel.add(object())  # type: ignore[arg-type]

    def test_add_rejects_duplicate_names(self):
        kernel = SimulationKernel()
        kernel.add(_Counter("a"))
        with pytest.raises(SimulationError):
            kernel.add(_Counter("a"))

    def test_step_without_components_fails(self):
        with pytest.raises(SimulationError):
            SimulationKernel().step()

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            SimulationKernel(0)

    def test_run_advances_cycle_count(self):
        kernel = SimulationKernel()
        counter = kernel.add(_Counter("c"))
        kernel.run(10)
        assert kernel.cycle == 10
        assert counter.value == 10

    def test_negative_run_rejected(self):
        kernel = SimulationKernel()
        kernel.add(_Counter("c"))
        with pytest.raises(ValueError):
            kernel.run(-1)

    def test_time_tracks_frequency(self):
        kernel = SimulationKernel(25e6)
        kernel.add(_Counter("c"))
        kernel.run(5000)
        assert kernel.time_seconds == pytest.approx(200e-6)
        assert kernel.cycle_time_seconds == pytest.approx(40e-9)

    def test_run_for_time(self):
        kernel = SimulationKernel(1e6)
        kernel.add(_Counter("c"))
        kernel.run_for_time(1e-3)
        assert kernel.cycle == 1000

    def test_run_until_predicate(self):
        kernel = SimulationKernel()
        counter = kernel.add(_Counter("c"))
        kernel.run_until(lambda cycle: counter.value >= 7)
        assert counter.value == 7

    def test_run_until_raises_on_bound(self):
        kernel = SimulationKernel()
        kernel.add(_Counter("c"))
        with pytest.raises(SimulationError):
            kernel.run_until(lambda cycle: False, max_cycles=5)

    def test_reset_restores_components_and_cycle(self):
        kernel = SimulationKernel()
        counter = kernel.add(_Counter("c"))
        kernel.run(4)
        kernel.reset()
        assert kernel.cycle == 0
        assert counter.value == 0

    def test_components_view_is_readonly_tuple(self):
        kernel = SimulationKernel()
        counter = kernel.add(_Counter("c"))
        assert kernel.components == (counter,)


class _Sleeper(ClockedComponent):
    """Timed component with no event of its own, used to test removal accounting."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ticks = 0
        self.settled = 0

    def commit(self, cycle: int) -> None:
        self.ticks += 1

    def next_event_cycle(self, cycle: int):
        return None

    def settle(self, start_cycle: int, cycles: int) -> None:
        self.settled += cycles


class TestComponentRemoval:
    def test_removed_component_stops_running_and_frees_its_name(self):
        kernel = SimulationKernel()
        first = kernel.add(_Counter("a"))
        second = kernel.add(_Counter("b"))
        kernel.run(10)
        kernel.remove(first)
        kernel.run(5)
        assert first.value == 10
        assert second.value == 15
        # The name is reusable (re-admission of a released application).
        replacement = kernel.add(_Counter("a"))
        kernel.run(3)
        assert replacement.value == 3

    def test_remove_foreign_component_rejected(self):
        kernel = SimulationKernel()
        kernel.add(_Counter("a"))
        other = _Counter("b")
        with pytest.raises(SimulationError):
            kernel.remove(other)

    def test_removing_a_sleeper_flushes_idle_accounting(self):
        kernel = SimulationKernel()
        sleeper = kernel.add(_Sleeper("s"))
        kernel.add(_Counter("keepalive"))
        kernel.run(20)
        assert sleeper.ticks == 20  # the counter is due every cycle
        kernel.remove(sleeper)
        # Every cycle was settled exactly once, and none after the removal.
        assert sleeper.settled == 20
        kernel.run(4)
        assert sleeper.ticks == sleeper.settled == 20

    def test_registration_order_survives_interleaved_removal(self):
        kernel = SimulationKernel()
        counter = kernel.add(_Counter("src"))
        kernel.add(_Follower("f1", counter))
        doomed = kernel.add(_Counter("doomed"))
        follower = kernel.add(_Follower("f2", counter))
        kernel.run(5)
        kernel.remove(doomed)
        late = kernel.add(_Follower("late", counter))
        kernel.run(5)
        # Followers registered after the counter commit after it, so they copy
        # the value it committed in the same cycle, before and after removal.
        assert follower.value == counter.value == 10
        assert late.value == counter.value


class TestChangesBetweenCyclesOnly:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_add_inside_a_cycle_is_refused(self, schedule):
        """A component added from another's commit is refused: the set of
        components changes between cycles only."""
        kernel = SimulationKernel(schedule=schedule)
        late = _Counter("late")

        class Adder(ClockedComponent):
            def commit(self, cycle):
                kernel.add(late)

        kernel.add(Adder("adder"))
        with pytest.raises(SimulationError, match="added between cycles"):
            kernel.run(1)
        assert late.value == 0 and late._scheduler is None
        assert kernel.components[-1].name == "adder"

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_a_commit_that_raises_leaves_the_kernel_between_cycles(self, schedule):
        """A commit that raises ends its cycle: the kernel then accepts a new
        component and a circuit configuration write, as between any two cycles."""
        from repro.common import Port
        from repro.core.router import CircuitSwitchedRouter, LaneDatapath

        kernel = SimulationKernel(schedule=schedule)
        router = CircuitSwitchedRouter("dut")
        kernel.add(LaneDatapath("dut_datapath", [router]))

        class Failing(ClockedComponent):
            def commit(self, cycle):
                raise RuntimeError("commit failed")

        failing = kernel.add(Failing("failing"))
        with pytest.raises(RuntimeError, match="commit failed"):
            kernel.run(3)
        kernel.remove(failing)
        kernel.add(_Counter("late"))
        router.configure(Port.EAST, 0, Port.TILE, 0)
        kernel.run(2)
        assert router.active_circuits() == 1
