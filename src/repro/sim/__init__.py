"""Synchronous cycle-accurate simulation kernel that skips idle components.

The routers of the paper are synchronous designs whose state only changes at
clock edges (Section 5: "the tiles and NoC are synchronized by the same
clock", and the crossbar output lanes are registered): every register
samples what was latched before the clock edge, then latches.  The kernel
runs a cycle as one ``commit(cycle)`` per component, and that two-phase
behaviour lives inside the component: a network or a bench registers one
datapath, which samples its routers' inputs at the top of its ``commit`` —
the wires driven from outside its router set before anything drives them
again — and then latches them, so a value latched in a cycle is seen in the
next one.

Two schedules execute that model (:data:`repro.sim.engine.SCHEDULES`),
bit-identical.  ``strict`` commits every component every cycle and is the
oracle.  ``vector`` — the same loop plus the leap, and the datapaths'
pipe — is :data:`repro.sim.engine.DEFAULT_SCHEDULE`: what
``SimulationKernel``, ``build_network`` and every experiment hand out when
no ``schedule`` is passed.

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

Ordering stays deterministic: every executed cycle commits the components
in registration order (the order ``strict`` uses), and each datapath orders
its own parts inside its ``commit``.

The pipe
--------

A busy circuit fabric still walks every register of every route on every
cycle, although a configured circuit has no arbitration and no buffering:
it is a fixed-latency pipe.  Under ``vector`` (and without clock gating)
the :class:`~repro.core.router.LaneDatapath` therefore lays one delay line
per configured route, from the serialiser feeding it (a tile lane's or an
adopted link driver's) to the deserialiser it ends at, and books a word
once, when its source loads it: its delivery, the phits every register on
the route sees (shifted by its position) and, after the destination reads
it, the acknowledge pulses coming back.  A cycle handles only its events —
a load, a delivery, an acknowledge reaching a source, a driver's word — and
the kernel leaps the cycles between them.  At every ``sync``, and before a
configuration write, a relink, a fault or an endpoint's adoption puts the
routers back on the walk, every line writes back the registers, wires,
shift registers, pending pulses and toggle counts the walk would hold, so
external readers never observe the pipe.  A multicast acknowledge fan-in, a
route that reads or drives a wire to the outside no adopted endpoint stands
behind (a shard boundary) and a route across a dead wire keep the routers
chained to it by routes on the walk, beside the pipe's lines through the
rest; clock gating keeps every router on it.  The GT datapath (one kernel
component per fabric on the :mod:`repro.sim.datapath` skeleton, which holds
the pipe's protocol, like the circuit and packet ones) runs a line per
connection and route the same way, with no acknowledges: a word booked
once, when its slot pops it, its toggles and its delivery ``hops`` cycles
on written back at ``sync``; wires to the outside and a slot train across a
dead wire keep its compiled cycle.  The packet datapath runs a line per
stream while no two streams share an output port or a source tile: such a
stream never contends, so its flits cross one hop per cycle and each is
booked once per hop at ``sync``, the buffers, VC state, credits and wires
written back (:mod:`repro.baseline.lines`); a shared port or tile, a wire
to the outside, a dead wire on a route, FIFOs shallower than two flits and
flits in flight keep it walking.  ``network.schedule_report()`` names the
requested schedule and why routers run right now.

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
]


def __getattr__(name):  # PEP 562 lazy export
    # The sharded front-end sits above repro.noc (it builds region networks),
    # while repro.noc sits above this package's kernel — importing it eagerly
    # here would close that cycle.  Resolved lazily instead.
    if name in ("ShardedNetwork", "ShardedSimulation"):
        from repro.sim import shard

        return getattr(shard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
