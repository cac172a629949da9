"""Synchronous cycle-accurate simulation kernel that skips idle components.

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

Two schedules execute that model (:data:`repro.sim.engine.SCHEDULES`),
bit-identical.  ``strict`` evaluates and commits every component every cycle
and is the oracle.  ``vector`` — the event heap plus the self-gating vector
plane where the network kind has one — is
:data:`repro.sim.engine.DEFAULT_SCHEDULE`: what ``SimulationKernel``,
``build_network`` and every experiment hand out when no ``schedule`` is
passed.  ``"auto"`` and ``"event"``, the names of two earlier schedules, are
accepted as its aliases.

Skipping idle components
------------------------

The paper's central energy argument — most of a circuit-switched fabric is
idle most of the time (Section 7.3 proposes clock gating for exactly this
reason) — applies to simulation cost as well:

* **Predicted events.**  A component that sets ``supports_timed_wake``
  implements ``next_event_cycle(cycle)`` — the first cycle at which its
  evaluate/commit could do more than an idle tick, given unchanged inputs
  (``None`` = never; traffic pacers predict their next emission in closed
  form, the GT datapath the injection slot of the next queued word, a
  router answers ``None`` once frozen).  After each executed cycle the
  kernel parks it, puts it on a timestamp-ordered heap of ``(due, index,
  seq, component)`` entries, or keeps it on the dense batch; entries are
  lazily invalidated, so wakes and removals never search the heap.
* **Dirty-bit wakes.**  The wire bundles between routers
  (:class:`repro.core.lane.LaneLink`, :class:`repro.baseline.link.PacketLink`)
  carry a :class:`repro.sim.signals.DirtyBit` per direction.  A write that
  actually changes a committed value marks the bit and wakes the reading
  component; so do its external interface (tile send/receive,
  configuration-memory writes) and a kernel reset.  Wakes during the
  evaluate phase rejoin the *current* cycle (matching the strict schedule
  exactly); wakes at a clock edge rejoin the next cycle.
* **Leaping.**  Each step pops the batch of entries due at the earliest
  cycle and runs exactly those components (plus the dense ones); when
  nothing is dense and no per-cycle hook is registered, the clock jumps
  straight to the next batch, so cost is proportional to *events*, not
  cycles.  Nothing executes inside the jump, so no wire can change and no
  parked component can wake — the kernel rejects a ``wake()`` there.
* **Deferred idle accounting.**  A parked component still accrues a
  constant per-cycle activity contribution (clocked or clock-gated register
  bits, the cycle counter itself, pacer credit).  The kernel defers it and
  flushes it in one ``idle_tick`` call when the component runs again and at
  the end of every ``run``.  Where the contribution is the same for a busy
  cycle (the packet and GT datapaths) the component sets
  ``settles_at_sync``: its ``commit`` books none of it, no wake-up ticks it,
  and ``sync()`` books everything elapsed, awake or asleep, in one call.
* **Timed hooks.**  ``add_pre_cycle_hook(hook, every=N)`` runs the hook on
  cycles divisible by ``N`` under both schedules, and leaps never skip a
  scheduled hook cycle; a dense hook (``every=1``) disables leaping.  A hook
  that reads router activity, link wires or converter lanes calls
  ``kernel.sync()`` first: parked components owe their idle accounting and
  a batching vector plane holds the wires in its columns until then.
* **Sparse router paths.**  Under ``vector`` the circuit router samples
  only configured lanes, commits only active routes, and a fully idle data
  converter books its constant idle activity in O(1); every sparse path is
  guarded by a configuration version and swept densely once per
  reconfiguration, so stale lanes cannot linger.

Components that do not opt in are simply evaluated every cycle.  Ordering
stays deterministic: batches commit in registration-index order (the order
``strict`` uses), and the ``seq`` tiebreaker makes heap order independent of
hash seeds or insertion history.

The columnar vector plane
-------------------------

A fully loaded fabric still pays a pure-Python per-component loop on every
busy cycle.  Under ``vector`` a circuit-switched fabric therefore registers
one :class:`~repro.sim.vector.VectorPlane` component behind its routers
(:mod:`repro.sim.vector`), holding every crossbar output/acknowledge
register in flat preallocated NumPy arrays.  The plane gates itself on the
live routes of the current configuration
(:data:`repro.sim.vector.MIN_BATCH_ROUTES`): from the gate up it parks the
routers in the kernel and batches them, below it the plane sleeps and the
kernel schedules the routers on the event heap, so a small or idle fabric
never pays for NumPy.  The active routes compile into a route-index gather
per configuration version, so one busy cycle over the whole fabric becomes a
handful of ``take``/``xor``/``bitwise_count`` calls; toggle accounting is
vectorised popcounts that equal the scalar ``int.bit_count`` path exactly.
A configuration write hands the routers back to the kernel for one cycle
before the recompile — reconfiguration, live faults and post-start channel
attach all invalidate the compiled gather exactly like the sparse sweeps —
and a flush at every ``sync`` folds the columnar state back into the scalar
objects, so external readers never observe the plane.  The network side of
every data converter — serialiser shift register and output phit,
deserialiser collected phits, owed and committed acknowledge pulses — is
columns of the same plane, shifted for all lanes at once; only the word
edges (load a queued word, return credit, deliver a word to the tile) stay
scalar.  The GT and packet datapaths and clock-gated fabrics do not
register a plane and run on the event heap alone;
``network.schedule_report()`` names the requested and the effective
schedule and the reason they differ.

Bit-identity with ``strict`` is asserted by
``tests/test_kernel_equivalence.py``, ``tests/test_timed_scheduling.py``,
``tests/test_event_scheduling.py`` and ``tests/test_vector_plane.py``;
``BENCH_kernel.json`` tracks what ``vector`` buys over ``strict`` on the
8×8 mesh: ≥3× at 25 % row occupancy, ≥8× on paced streams, and at full load
at least 0.6× of the recorded ratio.
"""

from repro.sim.engine import ClockedComponent, SimulationKernel
from repro.sim.signals import DirtyBit, Register, RegisterBank, Wire
from repro.sim.stats import SchedulerStats

__all__ = [
    "ClockedComponent",
    "SimulationKernel",
    "ShardedNetwork",
    "ShardedSimulation",
    "Register",
    "RegisterBank",
    "Wire",
    "DirtyBit",
    "SchedulerStats",
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
