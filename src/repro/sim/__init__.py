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
and is the oracle.  ``vector`` — the same loop plus the leap, and the
self-gating vector batch mode where the network kind has one — is
:data:`repro.sim.engine.DEFAULT_SCHEDULE`: what ``SimulationKernel``,
``build_network`` and every experiment hand out when no ``schedule`` is
passed.

Skipping idle work
------------------

The paper's central energy argument — most of a circuit-switched fabric is
idle most of the time (Section 7.3 proposes clock gating for exactly this
reason) — applies to simulation cost as well:

* **The clock leaps.**  Under ``vector`` the kernel asks every component
  ``next_event_cycle`` once before each cycle and, when every answer lies
  later, moves the clock straight to the earliest one.  A datapath at rest
  answers its next driver's due cycle (or a queued word's slot).  Each
  component settles what the cycles owe in one ``settle`` call at every
  ``sync`` (the end of every ``run``).  :mod:`repro.sim.engine` states the
  loop contract.
* **Compiled router cycles.**  Under both schedules one
  :class:`~repro.core.router.LaneDatapath` walks the route programs of the
  circuit routers that can move, one per router and configuration version:
  it samples, latches and drives only routed registers, the data converter
  ticks only live lanes and books the idle ones as one constant, and the
  first commit of every version sweeps every register and wire densely, so
  stale lanes cannot linger.  A frozen router is parked inside the datapath
  until a wire, tile or configuration write marks it
  (:class:`repro.sim.signals.DirtyBit`), and so is the unit of a link-side
  stream endpoint of any kind: every network and bench kernel clocks its
  datapath alone.  Components never ask which schedule runs them.

Ordering stays deterministic: every executed cycle evaluates, then commits,
the components in registration order (the order ``strict`` uses).

The columnar vector batch mode
------------------------------

A fully loaded fabric still pays a pure-Python per-router loop on every busy
cycle.  Under ``vector`` a circuit-switched fabric therefore gives its
datapath a :class:`~repro.sim.vector.VectorPlane` (:mod:`repro.sim.vector`),
which holds every crossbar output/acknowledge register in flat preallocated
NumPy arrays.  The datapath gates it on the live routes of the current
configuration (:data:`repro.sim.vector.MIN_BATCH_ROUTES`), read at the end
of the commit that sweeps a new version: from the gate up the plane runs the
routers' busy cycles, below it the routers run their own programs, so a
small or idle fabric never pays for NumPy.  The active routes compile into a
route-index gather per configuration version, so one busy cycle over the
whole fabric becomes a handful of ``take``/``xor``/``bitwise_count`` calls;
toggle accounting is vectorised popcounts that equal the scalar
``int.bit_count`` path exactly.  A configuration write or a dead wire
between two routers hands the routers back to their programs for one cycle
before the recompile — reconfiguration, live faults and post-start channel
attach all invalidate the compiled gather exactly like the routers' own
per-version sweeps — and a flush at every ``sync`` folds the columnar state
back into the scalar objects, so external readers never observe the plane.
The network side of every data converter — serialiser shift register and
output phit, deserialiser collected phits, owed and committed acknowledge
pulses — is columns of the same plane, shifted for all lanes at once; only
the word edges (load a queued word, return credit, deliver a word to the
tile) stay scalar.  The GT and packet datapaths (one kernel component per fabric on
the :mod:`repro.sim.datapath` skeleton, like the circuit one, each running
the fabric's stream endpoints itself) and clock-gated circuit fabrics get no
plane;
``network.schedule_report()`` names the requested and the effective schedule
and the reason they differ.

Bit-identity with ``strict`` (``network.snapshot()``) is asserted by
``tests/test_kernel_equivalence.py`` (drawn scenarios included),
``tests/test_timed_scheduling.py`` and ``tests/test_vector_plane.py``, and
both schedules against the dense per-lane reference router by
``tests/test_circuit_reference.py``;
``BENCH_kernel.json`` tracks what ``vector`` buys over ``strict`` on the
8×8 mesh: ≥3× at 25 % row occupancy, ≥8× on paced streams, and at full load
at least 0.6× of the recorded ratio.
"""

from repro.sim.engine import ClockedComponent, SimulationKernel
from repro.sim.signals import DirtyBit
from repro.sim.stats import SchedulerStats

__all__ = [
    "ClockedComponent",
    "SimulationKernel",
    "ShardedNetwork",
    "ShardedSimulation",
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
