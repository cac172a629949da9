"""Two-phase synchronous simulation engine that skips idle components.

The kernel keeps the classic two-phase model (``evaluate`` = combinational
logic, ``commit`` = clock edge) but need not pay for components whose state
cannot change.  The insight mirrors the paper's clock-gating argument
(Section 7.3): most of a circuit-switched fabric is idle most of the time, so
simulation cost should be proportional to *signal activity*, not to component
count.

Two schedules are available (:data:`SCHEDULES`), bit-identical;
:data:`DEFAULT_SCHEDULE` names the one every constructor defaults to:

``strict``
    Every registered component is evaluated and committed on every cycle —
    the original, seed-equivalent schedule.  The oracle of the equivalence
    tests.  (A datapath walks only the routers that can move under either
    schedule; its independent references are the per-router models of the
    tests.)

``vector`` (default)
    The discrete-event schedule: a timestamp-ordered binary heap of
    ``(due_cycle, registration_index, seq, component)`` entries.  After every
    executed cycle each component either stays on the dense per-cycle batch
    (inputs dirty, no prediction available, or due immediately), parks until
    a dirty-bit wake (no future self-event), or is pushed onto the heap at its
    predicted ``next_event_cycle``.  The kernel pops the batch of same-cycle
    entries, evaluates/commits only those, and jumps the clock between
    batches — simulation cost is proportional to *events* rather than
    cycles × components.  Wake-up is driven by dirty-bits on the wire bundles
    (:mod:`repro.core.lane`, :mod:`repro.baseline.link`) and by the external
    interfaces (tile send/receive, configuration writes): any write that
    actually changes a value calls :meth:`ClockedComponent.wake` on the
    reading component.  A network or a single-router bench registers one
    compiled datapath (:class:`repro.sim.datapath.FabricDatapath`) that
    clocks all its routers, runs every stream endpoint feeding them and
    answers for all of them as one component.  Under this schedule the circuit-switched one
    (:class:`repro.core.router.LaneDatapath`) also has the columnar batch
    mode of :mod:`repro.sim.vector`: from its live-route
    gate up a busy cycle of the whole fabric is a handful of NumPy
    gathers/XORs/popcounts, whose toggle counts (``popcount(xor(new,
    old))``) equal the scalar ``int.bit_count`` path exactly.  Below the
    gate, and for every other kind, the routers run their compiled programs
    (:meth:`repro.noc.fabric.NocBase.schedule_report` says which).

Timed protocol
--------------

Every component is asked one question after each cycle it ran:

* :meth:`ClockedComponent.next_event_cycle` — given unchanged inputs, the
  first cycle at which its evaluate/commit could do anything beyond the
  constant accounting of :meth:`ClockedComponent.idle_tick` (``None`` =
  never: the component parks until an input changes).  The default answer
  is the cycle asked about ("due now"), which keeps the component on the
  dense batch.  A component that predicts anything later also implements
* :meth:`ClockedComponent.idle_tick` — applies *n* cycles worth of that
  constant accounting (clocked/gated register bits) in one call, and
  fast-forwards the component's deterministic per-cycle bookkeeping (pacer
  credit) over the skipped cycles.  While a component is off the batch the
  kernel defers this accounting entirely; it is flushed when the component
  runs again and at the end of every :meth:`SimulationKernel.run` (see
  :meth:`SimulationKernel.sync`), so a parked component costs *zero* work
  per cycle.

A component that keeps the default (an ad-hoc test component) runs every
cycle, which keeps the kernel a drop-in replacement.

Event-queue contract
--------------------

* One question per executed component: it is asked
  ``next_event_cycle`` only (``None`` parks it until a dirty-bit wake).
* ``next_event_cycle`` must be *sound*: every cycle in ``[cycle, result)``
  must be an idle tick given unchanged inputs.  It need not be tight — a
  component unsure of its horizon may return ``cycle`` and simply stays on
  the dense batch.  Executing a component on extra cycles is always safe —
  the strict schedule executes everything every cycle — only *skipping*
  needs the idle-tick guarantee.
* With the dense batch empty and no dense hook registered, the clock jumps
  straight to the earliest heap entry or timed-hook cycle: the only leap.
  Nothing executes inside the jump, so nothing may wake — the kernel
  rejects a wake while it flushes deferred accounting or asks predictions.
* A parked or heap-scheduled component's idle accounting is deferred: the
  kernel tracks its first unaccounted cycle and flushes the whole gap
  through ``idle_tick`` when the component next runs (or at ``sync``).
* Free idle ticks are not called at all: a component whose per-cycle
  accounting is one constant, busy or idle, or nothing, or that books what
  its parts owe itself (the datapaths) sets
  ``settles_at_sync``.  No wake or heap pop ticks it, and ``sync()`` /
  ``remove()`` settle it — awake or asleep, under both schedules — with
  one ``idle_tick(start, cycles)`` over everything elapsed since the last.
* Dirty-bit wakes invalidate a pending heap entry (lazy deletion: the entry
  stays in the heap and is discarded when popped), so a component woken
  early simply rejoins the dense batch.
* A component woken during the evaluate phase rejoins the cycle in flight
  (matching ``strict`` exactly); one woken during the commit phase rejoins
  at the next cycle: its own commit of the current one was an idle tick.
  Whatever must see a change in the cycle it happens belongs inside the
  component that makes it — a datapath runs its stream endpoints itself.
"""

from __future__ import annotations

import abc
import heapq
import operator
from typing import Callable, ClassVar, Iterable, Optional, Sequence

from repro.common import SimulationError
from repro.sim.stats import SchedulerStats

__all__ = ["ClockedComponent", "SimulationKernel", "SCHEDULES", "DEFAULT_SCHEDULE"]

#: Every schedule name.  ``strict`` is the oracle ``vector`` must equal bit
#: for bit.
SCHEDULES = ("strict", "vector")

#: What every constructor and experiment that takes a ``schedule`` defaults
#: to: the event heap plus, where the network kind has one, the self-gating
#: vector batch mode of its datapath.
DEFAULT_SCHEDULE = "vector"

#: Sort key of the awake list: registration order (a C-level getter).
_BY_REGISTRATION = operator.attrgetter("_kernel_index")


class ClockedComponent(abc.ABC):
    """Base class for everything driven by the simulation clock.

    Subclasses implement :meth:`evaluate` and :meth:`commit`.  The split
    mirrors a synchronous hardware description: ``evaluate`` is the
    combinational logic in front of the registers, ``commit`` is the clock
    edge.  Components whose idle behaviour is predictable override
    :meth:`next_event_cycle` and :meth:`idle_tick` (the timed protocol of the
    module docstring).  :attr:`settles_at_sync` is the one protocol switch.
    """

    #: Set by subclasses whose :meth:`idle_tick` books the same for a busy
    #: cycle as for an idle one, or that book what their parts owe
    #: themselves: called once per :meth:`SimulationKernel.sync` over
    #: everything elapsed, never at a wake (see "Event-queue contract").
    settles_at_sync: ClassVar[bool] = False
    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        self.name = name
        #: True while the kernel has taken this component off the schedule.
        self._asleep = False
        #: True while the component sits in the kernel's woken list (woken
        #: but not yet merged back into the awake set).
        self._pending_wake = False
        #: Set by :meth:`wake`, cleared when the component next evaluates.
        #: Guards the park decision against inputs that change *after* the
        #: component sampled them (e.g. during the commit phase of the same
        #: cycle, before the kernel's end-of-cycle reschedule).
        self._input_dirty = False
        #: Back-reference installed by :meth:`SimulationKernel.add`.
        self._scheduler: Optional["SimulationKernel"] = None
        #: Registration position; the scheduler keeps the awake set in this
        #: order so skipping never perturbs the strict execution order.
        self._kernel_index = -1
        #: Due cycle of this component's valid event-heap entry (``None``
        #: when dense or parked); doubles as the lazy-deletion validity tag.
        self._due: Optional[int] = None

    @abc.abstractmethod
    def evaluate(self, cycle: int) -> None:
        """Compute the next state from the currently committed state."""

    @abc.abstractmethod
    def commit(self, cycle: int) -> None:
        """Latch the next state computed by :meth:`evaluate`."""

    def reset(self) -> None:  # pragma: no cover - default is a no-op
        """Return the component to its power-on state (optional)."""

    # -- timed protocol -----------------------------------------------------

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        """Apply *cycles* skipped cycles worth of idle evaluate/commit rounds.

        Must have exactly the effect *cycles* known-idle evaluate/commit
        rounds would have had: the constant per-cycle activity accounting
        (functional state untouched), plus a fast-forward of deterministic
        per-cycle bookkeeping (pacer credit) so that skipping is
        bit-identical to single-stepping.  It must never change an input
        another component observes.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is skipped by the kernel (a later next_event_cycle(), "
            "settles_at_sync or parked) but does not implement idle_tick()"
        )

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """First cycle ≥ *cycle* whose evaluate/commit may exceed an idle tick.

        Only called while the component is on the schedule.  The contract:
        given that no input changes in the meantime, every cycle in
        ``[cycle, result)`` is an idle tick for this component.  Return
        *cycle* itself when the component is (or may be) active right now —
        the default, which runs it every cycle — and ``None`` when no future
        self-generated event exists (a pure sink).
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

    def wake(self) -> None:
        """Put this component back on the schedule (input changed).

        Safe to call at any time; while the component is already scheduled it
        only marks the input-dirty flag, which makes it cheap enough for
        per-wire dirty-bit hooks.
        """
        self._input_dirty = True
        if self._asleep:
            scheduler = self._scheduler
            if scheduler is not None:
                scheduler._wake_component(self)

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
        runs the heap-based discrete-event schedule plus, for fabrics whose
        datapath has one, the columnar NumPy batch mode of
        :mod:`repro.sim.vector`; ``"strict"`` evaluates and
        commits every component every cycle.  Both produce bit-identical
        results; ``strict`` exists as the reference for the equivalence tests
        and for debugging.
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
        self._event = schedule == "vector"
        self._components: list[ClockedComponent] = []
        self._names: set[str] = set()
        #: Monotonic registration counter; indices stay unique across
        #: :meth:`remove`, so the awake-set ordering never becomes ambiguous.
        self._next_index = 0
        self._cycle = 0
        #: Hooks as ``(hook, every)`` pairs; a hook runs on cycles divisible
        #: by its stride.  Dense hooks (``every == 1``) disable cycle leaping.
        self._pre_cycle_hooks: list[tuple[Callable[[int], None], int]] = []
        self._post_cycle_hooks: list[tuple[Callable[[int], None], int]] = []
        self._has_dense_hooks = False
        # Scheduling state: components currently on the schedule, sleeping
        # components mapped to their first unaccounted cycle, and components
        # woken during the current phase (joining the schedule next round).
        self._awake: list[ClockedComponent] = []
        self._sleeping: dict[ClockedComponent, int] = {}
        self._woken: list[ClockedComponent] = []
        #: ``settles_at_sync`` components mapped to their first unsettled cycle.
        self._unsettled: dict[ClockedComponent, int] = {}
        self._phase = "idle"
        # Event-schedule state: the timestamp-ordered heap of
        # (due, registration_index, sequence, component) entries (stale
        # entries are lazily discarded — see ClockedComponent._due) and a
        # monotonic push sequence that keeps duplicate entries of one
        # component from ever comparing the component objects.
        self._heap: list[tuple[int, int, int, ClockedComponent]] = []
        self._event_seq = 0
        self.scheduler_stats = SchedulerStats()

    # -- construction -----------------------------------------------------

    def add(self, component: ClockedComponent) -> ClockedComponent:
        """Register a component with the kernel and return it."""
        if not isinstance(component, ClockedComponent):
            raise TypeError(
                f"expected a ClockedComponent, got {type(component).__name__}"
            )
        if component.name in self._names:
            raise SimulationError(
                f"duplicate component name {component.name!r} in kernel"
            )
        self._names.add(component.name)
        component._kernel_index = self._next_index
        self._next_index += 1
        self._components.append(component)
        component._scheduler = self
        component._asleep = False
        component._pending_wake = False
        component._due = None
        self._awake.append(component)
        if component.settles_at_sync:
            self._unsettled[component] = self._cycle
        return component

    def remove(self, component: ClockedComponent) -> ClockedComponent:
        """Unregister a component (a run-time departure).

        The component's deferred idle accounting is flushed first, so its
        activity counters stay exact; its name becomes available again for a
        later :meth:`add` (re-admission of a released application).  Must not
        be called from within a component's ``evaluate``/``commit`` — remove
        between :meth:`run` calls, where both schedules observe the identical
        component set.
        """
        if component._scheduler is not self:
            raise SimulationError(
                f"component {component.name!r} is not registered with this kernel"
            )
        if self._phase != "idle":
            raise SimulationError("components can only be removed between cycles")
        cycle = owed = self._cycle  # owed: the first cycle idle_tick has not covered
        if component._asleep:
            owed = self._sleeping.pop(component)
            self.scheduler_stats.skipped += cycle - owed
            component._asleep = False
        elif component._pending_wake:
            # An awake component sits in exactly one of the two lists; the
            # pending-wake flag says which, so one scan suffices.
            self._woken.remove(component)
            component._pending_wake = False
        else:
            self._awake.remove(component)
        owed = self._unsettled.pop(component, owed)
        if cycle > owed:
            component.idle_tick(owed, cycle - owed)
        self._components.remove(component)
        self._names.discard(component.name)
        component._scheduler = None
        component._kernel_index = -1
        # Any heap entry of the departing component goes stale here (the
        # lazy-deletion validity check compares the registration index).
        component._due = None
        return component

    def add_all(self, components: Iterable[ClockedComponent]) -> None:
        """Register several components at once."""
        for component in components:
            self.add(component)

    def add_pre_cycle_hook(self, hook: Callable[[int], None], every: int = 1) -> None:
        """Run *hook(cycle)* before the evaluate phase of matching cycles.

        With the default ``every=1`` the hook is *dense*: it runs every cycle
        and disables cycle leaping entirely (the kernel must single-step so
        the hook observes every cycle — bit-identical to the strict
        schedule).  With ``every=N`` the hook is *timed*: it runs only on
        cycles divisible by *N* under both schedules, and leaps are bounded
        so no scheduled hook cycle is ever skipped.

        A hook sees the kernel between two cycles with the deferred
        bookkeeping still owed: sleeping components have not booked their
        idle ticks, and a datapath in its vector batch mode holds link
        wires, crossbar registers and converter lanes in its columns.  A
        hook that reads any of those calls :meth:`sync` first; the values
        then equal ``strict``.
        """
        if every < 1:
            raise ValueError("hook stride must be positive")
        self._pre_cycle_hooks.append((hook, every))
        self._has_dense_hooks = self._has_dense_hooks or every == 1

    def add_post_cycle_hook(self, hook: Callable[[int], None], every: int = 1) -> None:
        """Run *hook(cycle)* after the commit phase of matching cycles.

        The stride semantics match :meth:`add_pre_cycle_hook`, and so does
        its note on stale state: call :meth:`sync` before reading activity
        counters or wires.
        """
        if every < 1:
            raise ValueError("hook stride must be positive")
        self._post_cycle_hooks.append((hook, every))
        self._has_dense_hooks = self._has_dense_hooks or every == 1

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

    @property
    def sleeping_components(self) -> int:
        """Number of components currently taken off the schedule."""
        return len(self._sleeping)

    # -- scheduling --------------------------------------------------------

    def _wake_component(self, component: ClockedComponent) -> None:
        """Flush a sleeping component's idle accounting and reschedule it."""
        if self._phase == "leap":
            # Nothing executes during a leap, so nothing can legally change a
            # sleeping component's inputs; a wake here means a timed
            # component's next_event_cycle/idle_tick had a side effect.
            raise SimulationError(
                f"component {component.name!r} was woken during a cycle leap; "
                "next_event_cycle()/idle_tick() must not change observable inputs"
            )
        component._asleep = False
        component._due = None
        start = self._sleeping.pop(component)
        cycle = self._cycle
        phase = self._phase
        # Woken at a clock edge, its own commit of this cycle was an idle tick;
        # woken in the evaluate phase or between cycles, it rejoins this
        # cycle, so only fully skipped cycles are idle-accounted.
        boundary = cycle + 1 if phase == "commit" else cycle
        if boundary > start:
            if not component.settles_at_sync:
                component.idle_tick(start, boundary - start)
            self.scheduler_stats.skipped += boundary - start
        if phase == "evaluate":
            # Rejoin the cycle in flight: evaluate now (its inputs have not
            # changed since it went to sleep, so this matches the strict
            # schedule exactly) and commit with everybody else.
            component.evaluate(cycle)
        component._pending_wake = True
        self._woken.append(component)
        self.scheduler_stats.wakes += 1

    def sync(self) -> None:
        """Bring deferred accounting up to date: the idle ticks of sleeping
        components, everything elapsed for ``settles_at_sync`` components.

        Called automatically at the end of :meth:`run` and :meth:`step`;
        needed manually only when reading activity counters from a hook or
        after stepping a component by hand.
        """
        cycle = self._cycle
        stats = self.scheduler_stats
        for component, start in self._sleeping.items():
            if cycle > start:
                if not component.settles_at_sync:
                    component.idle_tick(start, cycle - start)
                stats.skipped += cycle - start
                self._sleeping[component] = cycle
        for component, start in self._unsettled.items():
            if cycle > start:
                component.idle_tick(start, cycle - start)
                self._unsettled[component] = cycle

    # -- execution ---------------------------------------------------------

    def reset(self) -> None:
        """Reset the cycle counter and every component."""
        self._cycle = 0
        self._sleeping.clear()
        self._unsettled = dict.fromkeys(self._unsettled, 0)
        self._woken.clear()
        self._heap.clear()
        self._phase = "idle"
        self.scheduler_stats = SchedulerStats()
        # Clear all scheduling flags before any component reset runs: a
        # resetting component may drive shared wires, which would otherwise
        # try to wake a not-yet-cleared sleeper through the scheduler.
        for component in self._components:
            component._asleep = False
            component._input_dirty = False
            component._pending_wake = False
            component._due = None
        for component in self._components:
            component.reset()
        self._awake = list(self._components)

    def _hook_bound(self, cycle: int, limit: int) -> int:
        """Earliest of *limit* and the next cycle any timed hook is due."""
        target = limit
        for hooks in (self._pre_cycle_hooks, self._post_cycle_hooks):
            for _hook, every in hooks:
                remainder = cycle % every
                due = cycle if remainder == 0 else cycle + every - remainder
                if due < target:
                    if due <= cycle:
                        return cycle
                    target = due
        return target

    def _advance_event(self, limit: Optional[int] = None) -> None:
        """Run one batch of the event schedule (at most one executed cycle).

        With the dense batch empty, the clock first jumps straight to the
        earliest valid heap entry (or timed-hook cycle), bounded by *limit*;
        if the whole remaining window is event-free no cycle is executed at
        all.  Sleeping components' idle accounting is deferred per component,
        so the jump itself costs O(stale heap entries), not O(components).
        """
        if not self._components:
            raise SimulationError("cannot step a kernel with no components")
        cycle = self._cycle
        heap = self._heap
        stats = self.scheduler_stats
        awake = self._awake
        woken = self._woken
        if (
            limit is not None
            and limit > cycle
            and not awake
            and not woken
            and not self._has_dense_hooks
        ):
            while heap:
                due, idx, _seq, component = heap[0]
                if component._due == due and component._kernel_index == idx:
                    break
                heapq.heappop(heap)
            target = self._hook_bound(cycle, limit)
            if heap and heap[0][0] < target:
                target = heap[0][0]
            if target > cycle:
                self._cycle = target
                stats.leaps += 1
                stats.leaped_cycles += target - cycle
                if target >= limit:
                    return
                cycle = target
        merged = False
        if heap and heap[0][0] <= cycle:
            # Pop the batch of entries due now.  Flushing the deferred idle
            # accounting must not wake anybody (the leap guard).
            sleeping = self._sleeping
            self._phase = "leap"
            try:
                while heap and heap[0][0] <= cycle:
                    due, idx, _seq, component = heapq.heappop(heap)
                    if component._due != due or component._kernel_index != idx:
                        continue  # stale: woken early, re-scheduled or removed
                    component._due = None
                    component._asleep = False
                    start = sleeping.pop(component)
                    if cycle > start:
                        if not component.settles_at_sync:
                            component.idle_tick(start, cycle - start)
                        stats.skipped += cycle - start
                    awake.append(component)
                    stats.events_processed += 1
                    merged = True
            finally:
                self._phase = "idle"
        for hook, every in self._pre_cycle_hooks:
            if cycle % every == 0:
                hook(cycle)
        if woken:
            for component in woken:
                component._pending_wake = False
            awake.extend(woken)
            woken.clear()
            merged = True
        if merged:
            # The strict schedule runs components in registration order:
            # rejoining components slot back into their original position.
            awake.sort(key=_BY_REGISTRATION)
        self._phase = "evaluate"
        for component in awake:
            component._input_dirty = False
            component.evaluate(cycle)
        if woken:
            # Woken mid-evaluate; already evaluated inside _wake_component.
            for component in woken:
                component._pending_wake = False
            awake.extend(woken)
            woken.clear()
            awake.sort(key=_BY_REGISTRATION)
        self._phase = "commit"
        for component in awake:
            component.commit(cycle)
        self._phase = "idle"
        self._cycle = cycle + 1
        for hook, every in self._post_cycle_hooks:
            if cycle % every == 0:
                hook(cycle)
        stats.evaluated += len(awake)
        # Reschedule every batch member with one question, its
        # next_event_cycle(): stay dense (input dirty or due immediately),
        # park (no future self-event; dirty-bit wakes cover it), or push
        # onto the heap at the predicted due cycle.  The predictions run
        # under the leap guard: they must not wake anybody.
        sleeping = self._sleeping
        next_cycle = self._cycle
        self._phase = "leap"
        try:
            slept = False
            for component in awake:
                if not component._input_dirty:
                    event = component.next_event_cycle(next_cycle)
                    if event is None or event > next_cycle:
                        component._asleep = slept = True
                        sleeping[component] = next_cycle
                        stats.sleeps += 1
                        if event is not None:
                            component._due = event
                            self._event_seq += 1
                            heapq.heappush(
                                heap,
                                (event, component._kernel_index, self._event_seq, component),
                            )
            if slept:
                awake[:] = [component for component in awake if not component._asleep]
        finally:
            self._phase = "idle"
        if len(heap) > stats.heap_peak:
            stats.heap_peak = len(heap)

    def _advance(self, limit: Optional[int] = None) -> None:
        """Run one clock cycle — under ``vector`` one batch of the event
        schedule, bounded by *limit* — without flushing deferred idle
        accounting."""
        if self._event:
            self._advance_event(limit)
            return
        components = self._components
        if not components:
            raise SimulationError("cannot step a kernel with no components")
        cycle = self._cycle
        for hook, every in self._pre_cycle_hooks:
            if cycle % every == 0:
                hook(cycle)
        self._phase = "evaluate"
        for component in components:
            component.evaluate(cycle)
        self._phase = "commit"
        for component in components:
            component.commit(cycle)
        self._phase = "idle"
        self._cycle = cycle + 1
        for hook, every in self._post_cycle_hooks:
            if cycle % every == 0:
                hook(cycle)
        self.scheduler_stats.evaluated += len(components)

    def activity_horizon(self, limit: int) -> int:
        """First cycle ≥ :attr:`cycle` at which anything local may happen.

        The conservative-lookahead primitive of the sharded runner
        (:mod:`repro.sim.shard`): a lower bound on the next cycle whose
        evaluate/commit could exceed idle accounting, given that no input
        changes from outside.  Returning the current cycle means "active
        now" (the caller must single-step); a later cycle means every cycle
        in between is provably an idle tick for every registered component,
        so a synchronisation window may batch them.  Never exceeds *limit*,
        never runs a cycle, never changes observable state.
        """
        cycle = self._cycle
        if (
            cycle >= limit
            or not self._event
            or self._awake
            or self._woken
            or self._has_dense_hooks
        ):
            return cycle
        target = self._hook_bound(cycle, limit)
        heap = self._heap
        while heap:
            due, idx, _seq, component = heap[0]
            if component._due == due and component._kernel_index == idx:
                target = min(target, due)
                break
            heapq.heappop(heap)
        return max(cycle, target)

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
        simulation fails loudly instead of spinning forever.  The deferred
        idle accounting is flushed before every predicate call, so predicates
        may read activity counters.

        *check_every* is the stride between predicate checks: with the
        default ``1`` the predicate sees every cycle (the original
        behaviour); a larger stride runs that many cycles per check, which
        both amortises an expensive predicate and opens a leap window for
        the event heap between checks.  The returned cycle count may then
        overshoot the first satisfying cycle by up to one stride.
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
