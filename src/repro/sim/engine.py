"""Two-phase synchronous simulation engine: a clock that leaps idle cycles.

The kernel keeps the classic two-phase model (``evaluate`` = combinational
logic, ``commit`` = clock edge) but need not pay for cycles in which nothing
can change.  The insight mirrors the paper's clock-gating argument
(Section 7.3): most of a circuit-switched fabric is idle most of the time, so
simulation cost should be proportional to *signal activity*, not to
component count.  That work lives inside the components: a network or a
single-router bench registers one compiled datapath
(:class:`repro.sim.datapath.FabricDatapath`) that clocks all its routers,
runs every stream endpoint feeding them, parks its own idle parts and
answers for all of them.

Two schedules are available (:data:`SCHEDULES`), bit-identical;
:data:`DEFAULT_SCHEDULE` names the one every constructor defaults to:

``strict``
    Every registered component is evaluated and committed on every cycle —
    the seed-equivalent schedule and the oracle of the equivalence tests.
    (A datapath walks only the routers that can move under either schedule;
    its independent references are the per-router models of the tests.)

``vector`` (default)
    The same loop, plus the leap: before each cycle the kernel asks every
    component :meth:`ClockedComponent.next_event_cycle` once, and when every
    answer lies later it moves the clock straight to the earliest one.
    Under this schedule the circuit-switched datapath
    (:class:`repro.core.router.LaneDatapath`) also has the columnar batch
    mode of :mod:`repro.sim.vector`: from its live-route gate up a busy
    cycle of the whole fabric is a handful of NumPy gathers/XORs/popcounts,
    whose toggle counts equal the scalar ``int.bit_count`` path exactly
    (:meth:`repro.noc.fabric.NocBase.schedule_report` says which ran).

The loop contract
-----------------

* **One question per cycle.**  Before each cycle, under ``vector``, every
  component is asked ``next_event_cycle(cycle)`` once.  If one answers
  *cycle* (or earlier) the cycle runs: every component evaluates, then every
  component commits, in registration order.  Otherwise the clock leaps to
  the earliest answer; ``None`` from everybody, or an answer past the end
  of the run, ends the run there.  Nothing executes inside a leap.
* **Soundness.**  ``next_event_cycle`` must be sound given the current
  inputs: every cycle in ``[cycle, result)`` must be one whose
  evaluate/commit would do nothing beyond the constant accounting
  :meth:`ClockedComponent.settle` books.  It need not be tight — answering
  *cycle* is always safe, and is the default.  Since no component runs
  inside a leap, no input can change there either; a write between two
  :meth:`SimulationKernel.run` calls is seen by the next question.
* **Settling.**  A component books the constant accounting of the cycles it
  did not run (and of those it did, where they book the same) in one
  :meth:`ClockedComponent.settle` call over everything elapsed since the
  last: at every :meth:`SimulationKernel.sync` (the end of every ``run`` and
  ``step``, and every ``add`` and ``remove``), under both schedules.
* **No wakes.**  There is no per-component sleep, wake or event queue.  A
  change a component must react to is a mark inside the component that
  makes its next answer "now"; whatever must see a change in the cycle it
  happens belongs inside the component that makes it — a datapath runs its
  stream endpoints itself.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Optional, Sequence

from repro.common import SimulationError
from repro.sim.stats import SchedulerStats

__all__ = ["ClockedComponent", "SimulationKernel", "SCHEDULES", "DEFAULT_SCHEDULE"]

#: Every schedule name.  ``strict`` is the oracle ``vector`` must equal bit
#: for bit.
SCHEDULES = ("strict", "vector")

#: What every constructor and experiment that takes a ``schedule`` defaults
#: to: the leaping clock plus, where the network kind has one, the
#: self-gating vector batch mode of its datapath.
DEFAULT_SCHEDULE = "vector"


class ClockedComponent(abc.ABC):
    """Base class for everything driven by the simulation clock.

    Subclasses implement :meth:`evaluate` and :meth:`commit`.  The split
    mirrors a synchronous hardware description: ``evaluate`` is the
    combinational logic in front of the registers, ``commit`` is the clock
    edge.  A component whose idle cycles are predictable overrides
    :meth:`next_event_cycle` and books their constant accounting in
    :meth:`settle` (the loop contract of the module docstring).
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        self.name = name
        #: Back-reference installed by :meth:`SimulationKernel.add`.
        self._scheduler: Optional["SimulationKernel"] = None

    @abc.abstractmethod
    def evaluate(self, cycle: int) -> None:
        """Compute the next state from the currently committed state."""

    @abc.abstractmethod
    def commit(self, cycle: int) -> None:
        """Latch the next state computed by :meth:`evaluate`."""

    def reset(self) -> None:  # pragma: no cover - default is a no-op
        """Return the component to its power-on state (optional)."""

    def settle(self, start_cycle: int, cycles: int) -> None:
        """Book the constant accounting of the *cycles* cycles from
        *start_cycle* on, run or leaped (by default nothing).

        Called at every :meth:`SimulationKernel.sync` over everything
        elapsed since the last call.  It must never change an input another component
        observes.
        """

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """First cycle ≥ *cycle* whose evaluate/commit may do more than
        :meth:`settle` books, given the current inputs.

        Return *cycle* itself when the component is (or may be) active right
        now — the default, which runs it every cycle — and ``None`` when no
        cycle is, until an input changes.
        """
        return cycle

    def refuse_inside_cycle(self, what: str) -> None:
        """Raise :class:`SimulationError` unless this component's kernel is
        between two cycles (*what* names the refused write, for the message)."""
        kernel = self._scheduler
        if kernel is not None and kernel._phase != "idle":
            raise SimulationError(
                f"{what} inside cycle {kernel.cycle} ({kernel._phase} phase); write between cycles"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class SimulationKernel:
    """Drives a set of :class:`ClockedComponent` objects cycle by cycle.

    Parameters
    ----------
    frequency_hz:
        Clock frequency used to convert cycle counts into wall-clock time and
        energies into powers.  Defaults to the 25 MHz used for the power
        experiments of the paper (Section 7.2).
    schedule:
        One of :data:`SCHEDULES`.  ``"vector"`` (:data:`DEFAULT_SCHEDULE`)
        leaps the cycles no component needs plus, for fabrics whose datapath
        has one, runs the columnar NumPy batch mode of
        :mod:`repro.sim.vector`; ``"strict"`` evaluates and commits every
        component every cycle.  Both produce bit-identical results;
        ``strict`` exists as the reference for the equivalence tests and for
        debugging.
    """

    def __init__(
        self, frequency_hz: float = 25e6, schedule: str = DEFAULT_SCHEDULE
    ) -> None:
        if frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if schedule not in SCHEDULES:
            raise ValueError(
                f"schedule must be one of {', '.join(map(repr, SCHEDULES))}, got {schedule!r}"
            )
        self.frequency_hz = float(frequency_hz)
        self.schedule = schedule
        self._leaps = schedule == "vector"
        self._components: list[ClockedComponent] = []
        self._cycle = 0
        #: The first cycle the components have not settled.
        self._settled = 0
        self._phase = "idle"
        self.scheduler_stats = SchedulerStats()

    # -- construction -----------------------------------------------------

    def add(self, component: ClockedComponent) -> ClockedComponent:
        """Register a component with the kernel (between cycles) and return it."""
        if not isinstance(component, ClockedComponent):
            raise TypeError(
                f"expected a ClockedComponent, got {type(component).__name__}"
            )
        if self._phase != "idle":
            raise SimulationError("components can only be added between cycles")
        if any(other.name == component.name for other in self._components):
            raise SimulationError(
                f"duplicate component name {component.name!r} in kernel"
            )
        self.sync()  # the newcomer settles from the current cycle on
        self._components.append(component)
        component._scheduler = self
        return component

    def remove(self, component: ClockedComponent) -> ClockedComponent:
        """Unregister a component (a run-time departure).

        The component is settled first, so its activity counters stay exact;
        its name becomes available again for a later :meth:`add`
        (re-admission of a released application).  Must not be called from
        within a component's ``evaluate``/``commit`` — remove between
        :meth:`run` calls, where both schedules observe the identical
        component set.
        """
        if component._scheduler is not self:
            raise SimulationError(
                f"component {component.name!r} is not registered with this kernel"
            )
        if self._phase != "idle":
            raise SimulationError("components can only be removed between cycles")
        self.sync()
        self._components.remove(component)
        component._scheduler = None
        return component

    def add_all(self, components: Iterable[ClockedComponent]) -> None:
        """Register several components at once."""
        for component in components:
            self.add(component)

    # -- inspection --------------------------------------------------------

    @property
    def components(self) -> Sequence[ClockedComponent]:
        """The registered components in registration order (read-only view)."""
        return tuple(self._components)

    @property
    def cycle(self) -> int:
        """Number of completed clock cycles."""
        return self._cycle

    @property
    def time_seconds(self) -> float:
        """Simulated time corresponding to :attr:`cycle`."""
        return self._cycle / self.frequency_hz

    @property
    def cycle_time_seconds(self) -> float:
        """Duration of a single clock cycle."""
        return 1.0 / self.frequency_hz

    def sync(self) -> None:
        """Settle every component up to the current cycle.

        :meth:`run`, :meth:`step`, :meth:`run_until` (before every predicate
        call), :meth:`add` and :meth:`remove` call it, so between two cycles
        every component is settled.
        """
        cycle, start = self._cycle, self._settled
        if cycle > start:
            for component in self._components:
                component.settle(start, cycle - start)
            self._settled = cycle

    # -- execution ---------------------------------------------------------

    def reset(self) -> None:
        """Reset the cycle counter and every component."""
        self._cycle = self._settled = 0
        self._phase = "idle"
        self.scheduler_stats = SchedulerStats()
        for component in self._components:
            component.reset()

    def _due(self, cycle: int, limit: int) -> int:
        """The earliest answer to ``next_event_cycle(cycle)``, within ``[cycle, limit]``."""
        target = limit
        for component in self._components:
            due = component.next_event_cycle(cycle)
            if due is not None and due < target:
                if due <= cycle:
                    return cycle
                target = due
        return target

    def _advance(self, end: int) -> None:
        """Run one clock cycle — under ``vector`` after leaping to the
        earliest cycle any component is due, or to *end* — without settling."""
        components = self._components
        if not components:
            raise SimulationError("cannot step a kernel with no components")
        cycle = self._cycle
        if self._leaps:
            target = self._due(cycle, end)
            if target > cycle:
                stats = self.scheduler_stats
                stats.leaps += 1
                stats.leaped_cycles += target - cycle
                stats.skipped += (target - cycle) * len(components)
                self._cycle = cycle = target
                if cycle >= end:
                    return
        self._phase = "evaluate"
        for component in components:
            component.evaluate(cycle)
        self._phase = "commit"
        for component in components:
            component.commit(cycle)
        self._phase = "idle"
        self._cycle = cycle + 1
        self.scheduler_stats.evaluated += len(components)

    def activity_horizon(self, limit: int) -> int:
        """First cycle ≥ :attr:`cycle` at which anything local may happen.

        The conservative-lookahead primitive of the sharded runner
        (:mod:`repro.sim.shard`): the earliest ``next_event_cycle`` answer,
        given that no input changes from outside.  Returning the current
        cycle means "active now" (the caller must single-step; always so
        under ``strict``); a later cycle means every cycle in between is one
        the kernel would leap, so a synchronisation window may batch them.
        Never exceeds *limit*, never runs a cycle, never changes observable
        state.
        """
        cycle = self._cycle
        if cycle >= limit or not self._leaps:
            return cycle
        return self._due(cycle, limit)

    def step(self) -> int:
        """Advance the simulation by one clock cycle and return the new count."""
        self._advance(self._cycle + 1)
        self.sync()
        return self._cycle

    def run(self, cycles: int) -> int:
        """Run for *cycles* additional clock cycles; return the total count."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        end = self._cycle + cycles
        advance = self._advance
        while self._cycle < end:
            advance(end)
        self.sync()
        return self._cycle

    def run_for_time(self, seconds: float) -> int:
        """Run for (at least) *seconds* of simulated time."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        cycles = int(round(seconds * self.frequency_hz))
        return self.run(cycles)

    def run_until(
        self,
        predicate: Callable[[int], bool],
        max_cycles: int = 1_000_000,
        check_every: int = 1,
    ) -> int:
        """Run until ``predicate(cycle)`` is true or *max_cycles* have elapsed.

        Returns the cycle count at which the predicate first held.  Raises
        :class:`SimulationError` if the bound is hit, so that a stuck
        simulation fails loudly instead of spinning forever.  Every
        component is settled before every predicate call, so predicates may
        read activity counters.

        *check_every* is the stride between predicate checks: with the
        default ``1`` the predicate sees every cycle (the original
        behaviour); a larger stride runs that many cycles per check, which
        both amortises an expensive predicate and opens a leap window
        between checks.  The returned cycle count may then overshoot the
        first satisfying cycle by up to one stride.
        """
        if check_every < 1:
            raise ValueError("check_every must be positive")
        start = self._cycle
        self.sync()
        while not predicate(self._cycle):
            if self._cycle - start >= max_cycles:
                raise SimulationError(
                    f"run_until exceeded {max_cycles} cycles without satisfying the predicate"
                )
            # The stride never runs past the max_cycles budget: the bound is
            # a hard simulation limit, not a check-granularity hint.
            end = min(self._cycle + check_every, start + max_cycles)
            while self._cycle < end:
                self._advance(end)
            self.sync()
        return self._cycle
