"""Synchronous cycle-accurate simulation kernel with quiescence skipping.

The routers of the paper are synchronous designs whose state only changes at
clock edges (Section 5: "the tiles and NoC are synchronized by the same
clock", and the crossbar output lanes are registered).  The kernel therefore
uses a classic two-phase model:

1. ``evaluate(cycle)`` — every scheduled component computes its next state
   from the *committed* outputs of all components (the values latched at the
   previous clock edge).  No component may observe another component's next
   state.
2. ``commit(cycle)`` — every scheduled component latches its next state,
   which becomes visible to everybody in the following cycle.

Because ``evaluate`` only reads committed state, the order in which
components are evaluated cannot change the result; this is asserted by the
property-based tests.

Four schedules execute that model (:data:`repro.sim.engine.SCHEDULES`), all
bit-identical.  ``strict`` is the oracle.  ``vector`` — the event heap plus
the self-gating vector plane where the network kind has one — is
:data:`repro.sim.engine.DEFAULT_SCHEDULE`: what ``SimulationKernel``,
``build_network`` and every experiment hand out when no ``schedule`` is
passed.  ``event`` is the same heap without a plane, and ``auto`` the older
per-cycle scan, kept selectable for its own tests and bench column.  The
sections below introduce the tiers in the order they were built.

Execution model: quiescence-aware scheduling
--------------------------------------------

The paper's central energy argument — most of a circuit-switched fabric is
idle most of the time (Section 7.3 proposes clock gating for exactly this
reason) — applies to simulation cost as well.  The kernel therefore skips
components that have reached a *fixed point*:

* **Dirty-bit propagation.**  The wire bundles between routers
  (:class:`repro.core.lane.LaneLink`, :class:`repro.baseline.link.PacketLink`)
  carry a :class:`repro.sim.signals.DirtyBit` per direction.  A write that
  actually changes a committed value marks the bit and wakes the reading
  component; unchanged writes cost one comparison and nothing else.
* **Wake conditions.**  A sleeping component is rescheduled when (a) a wire
  it reads changes value, (b) its external interface is used (tile
  send/receive, configuration-memory writes), or (c) the kernel is reset.
  Wakes during the evaluate phase rejoin the *current* cycle (matching the
  strict schedule exactly); wakes at a clock edge rejoin the next cycle.
* **Deferred idle accounting.**  A quiescent component still accrues a
  constant per-cycle activity contribution (clocked or clock-gated register
  bits, the cycle counter itself).  The kernel defers this entirely while
  the component sleeps and flushes it in one ``idle_tick`` call on wake-up
  and at the end of every ``run`` — a sleeping component costs zero work per
  simulated cycle.  Where the contribution is the same for a busy cycle (the
  packet router, the GT datapath) the component sets ``settles_at_sync``: its
  ``commit`` books none of it, no wake-up ticks it, and ``sync()`` books
  everything elapsed, awake or asleep, in one call.
* **Strict mode.**  ``SimulationKernel(schedule="strict")`` runs the original
  every-component schedule.  Every schedule produces bit-identical cycle
  counts, activity counters and power results; the equivalence is asserted
  by ``tests/test_kernel_equivalence.py`` across all tier-1 scenarios, the
  default (no ``schedule`` argument) included.

Components opt in via the quiescence protocol of
:class:`repro.sim.engine.ClockedComponent` (``supports_quiescence``,
``quiescent()``, ``idle_tick()``); everything else is simply always
scheduled.

Timed components and event-horizon cycle leaping
------------------------------------------------

Quiescence makes the cost per cycle proportional to *component* activity,
but the kernel still pays one Python iteration per simulated cycle — and a
paced traffic driver is never quiescent, so a single stream keeps the whole
clock ticking.  The **timed tier** removes the per-cycle iteration too:

* A component sets ``supports_timed_wake`` and implements
  ``next_event_cycle(cycle)`` — the first cycle at which its
  evaluate/commit could do more than an idle tick, given unchanged inputs
  (``None`` = never; traffic pacers predict their next emission in closed
  form, the GT datapath predicts the injection slot of the next queued word
  as a pure function of the cycle count).
* Under ``schedule="auto"``, when everything on the schedule is timed
  (sleeping components do not count — they have no events by definition)
  and no dense per-cycle hook is registered, ``SimulationKernel._advance``
  **leaps** the clock straight to
  the earliest predicted event, bulk-applying the skipped cycles through
  the same ``idle_tick`` machinery (which for timed components also
  fast-forwards their deterministic bookkeeping, e.g. pacer credit).
* Leaping is legal exactly when every scheduled component has declared the
  window an idle tick; since nothing executes inside the window, no wire
  can change and no sleeping component can wake — the kernel asserts this
  by rejecting ``wake()`` calls during a leap.
* Cycle hooks are *timed* as well: ``add_pre_cycle_hook(hook, every=N)``
  runs the hook on cycles divisible by ``N`` under every schedule, and
  leaps never skip a scheduled hook cycle.  A dense hook (``every=1``)
  disables leaping, preserving strict-mode bit-identity for external
  per-cycle observers.  A hook that reads router activity, link wires or
  converter lanes calls ``kernel.sync()`` first: sleeping components owe
  their idle accounting and a batching vector plane holds the wires in its
  columns until then.

The strict schedule never leaps; ``tests/test_kernel_equivalence.py`` and
``tests/test_timed_scheduling.py`` assert bit-identical results with and
without leaping, and ``BENCH_kernel.json`` tracks the paced-stream speedup
the tier buys (≥8× required at 25 % row occupancy on the 8×8 mesh).

Event-queue native scheduling
-----------------------------

``SimulationKernel(schedule="event")`` replaces the per-cycle component
sweep with a timestamp-ordered binary heap of ``(due, index, seq,
component)`` entries — simulation cost becomes proportional to *events*,
not cycles:

* Every off-schedule component's prediction (``next_event_cycle``) lives on
  the heap; entries are lazily invalidated (an entry is live only if it
  still matches the component's recorded due cycle), so wakes and removals
  never search the heap.
* Each step pops the batch of entries due at the earliest cycle, runs
  exactly those components (plus any densely scheduled ones), and — when
  nothing is dense and no per-cycle hook is registered — jumps the clock
  straight to the next batch.  The paper's contract for ``next_event_cycle``
  makes this exact: the prediction is the *first* cycle at which the
  component could do more than an idle tick given unchanged inputs, so
  nothing observable happens in the gap.
* Components without the timed protocol (``supports_timed_wake`` unset, or
  predictions of ``None`` while holding live state) fall back to the dense
  set — an untimed island keeps its neighbourhood cycle-accurate while the
  rest of the fabric runs off the heap.
* Event mode also switches routers and converters to *sparse* per-event
  work: evaluate samples only configured lanes, commit visits only active
  routes, and a fully idle data converter books its constant idle activity
  in O(1).  Every sparse path is guarded by a configuration version and
  swept densely once per reconfiguration, so stale lanes cannot linger.

Ordering stays deterministic: batches commit in registration-index order
(the same order the dense schedules use), and the ``seq`` tiebreaker makes
heap order independent of hash seeds or insertion history.  Tri-modal
bit-identity (strict = auto = event) is asserted by
``tests/test_kernel_equivalence.py`` and the randomised
``tests/test_event_scheduling.py``; ``BENCH_kernel.json`` tracks the ≥3×
event-vs-auto speedup on the fully loaded 8×8 mesh, where quiescence and
leaping cannot help.

The columnar vector tier (the default)
--------------------------------------

Every tier above attacks *idle* cost; a fully loaded fabric still pays a
pure-Python per-component loop on every busy cycle.
``SimulationKernel(schedule="vector")`` is the event schedule plus a
**struct-of-arrays fast path** (:mod:`repro.sim.vector`): a
circuit-switched fabric registers one :class:`~repro.sim.vector.VectorPlane`
component behind its routers, holding every crossbar output/acknowledge
register in flat preallocated NumPy arrays.  The plane gates itself on the
live routes of the current configuration
(:data:`repro.sim.vector.MIN_BATCH_ROUTES`): from the gate up it parks the
routers in the kernel and batches them, below it the plane sleeps and the
kernel schedules the routers exactly as under ``event``, so a small or idle
fabric never pays for NumPy.  The active routes compile into
a route-index gather per configuration version, so one busy cycle over the
whole fabric becomes a handful of ``take``/``xor``/``bitwise_count`` calls;
toggle accounting is vectorised popcounts that equal the scalar
``int.bit_count`` path exactly.  A configuration write hands the routers
back to the kernel for one cycle before the recompile — reconfiguration, live faults and
post-start channel attach all invalidate the compiled gather exactly like
the event schedule's sparse sweeps — and a flush at every ``sync`` folds
the columnar state back into the scalar objects, so external readers never
observe the plane.  The network side of every data converter — serialiser
shift register and output phit, deserialiser collected phits, owed and
committed acknowledge pulses — is columns of the same plane, shifted for all
lanes at once; only the word edges (load a queued word, return credit,
deliver a word to the tile) stay scalar.  GT slot tables, packet routers and
clock-gated fabrics do not register a plane and run event-driven;
``network.schedule_report()`` names the requested and the effective schedule
and the reason they differ.
Quad-modal bit-identity (strict = auto = event = vector) is asserted by
``tests/test_kernel_equivalence.py`` and ``tests/test_vector_plane.py``;
``BENCH_kernel.json`` tracks the ≥3.5× vector-vs-event speedup on the fully
loaded 8×8 mesh and the ≥0.9× floor on every row that carries traffic.
"""

from repro.sim.engine import ClockedComponent, SimulationKernel
from repro.sim.signals import DirtyBit, Register, RegisterBank, Wire
from repro.sim.stats import Counter, SchedulerStats, StatsCollector, Histogram
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "ClockedComponent",
    "SimulationKernel",
    "ShardedNetwork",
    "ShardedSimulation",
    "Register",
    "RegisterBank",
    "Wire",
    "DirtyBit",
    "Counter",
    "SchedulerStats",
    "StatsCollector",
    "Histogram",
    "TraceEvent",
    "TraceRecorder",
    "VectorPlane",
]


def __getattr__(name):  # PEP 562 lazy export
    # The sharded front-end sits above repro.noc (it builds region networks),
    # while repro.noc sits above this package's kernel — importing it eagerly
    # here would close that cycle.  Resolved lazily instead.
    if name in ("ShardedNetwork", "ShardedSimulation"):
        from repro.sim import shard

        return getattr(shard, name)
    if name == "VectorPlane":
        # Lazy as well: the plane needs NumPy, which the kernel itself does
        # not.
        from repro.sim.vector import VectorPlane

        return VectorPlane
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
