"""The skeleton the compiled circuit, GT and packet datapaths share.

A datapath is one kernel component clocking a set of routers that are no
components themselves, and running the stream endpoint records that feed
them (:meth:`FabricDatapath.adopt`).  :class:`FabricDatapath` holds what does
not depend on the router kind — adoption, the drivers, the link endpoints'
units (:class:`LinkEndpoint`) — and :class:`DatapathMember` the routers'
wiring; a kind keeps its per-member compile and its own ``commit`` and
``next_event_cycle``, which call the skeleton's
:meth:`~FabricDatapath._turn` where a bench has units to step.  A cycle is
one ``commit``: at its top the routers' registers sample their inputs (the
wires driven from outside the set before any driver or unit drives them
again), then they latch — the two phases of the synchronous hardware,
ordered inside the datapath.

The kernel asks the datapath ``next_event_cycle`` before every cycle and
leaps while the answer lies later: a tile write, a driver's adoption, a
configuration write or a word on an outside wire is state the kind's answer
reads (through a mark where it needs one), and
:meth:`FabricDatapath.settle` books what the parts owe at every ``sync``.
Every kind runs its routes as fixed-latency delay lines under
``schedule="vector"`` (*the pipe*): the circuit kind its configured routes,
the GT kind its slot trains and the packet kind its uncontended streams.
The skeleton holds the pipe's protocol and each kind says what a line is
(:meth:`FabricDatapath._lay_pipe`).
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappush, heapreplace
from itertools import count
from sys import maxsize
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.common import NEIGHBOR_PORTS, ConfigurationError, Port
from repro.energy.activity import ActivityKeys
from repro.sim.engine import ClockedComponent

__all__ = ["BOOK_EVERY", "DatapathMember", "DriverSchedule", "FabricDatapath", "LinkEndpoint", "LoadPacer",
           "StreamDriver", "StreamSink", "WordSource"]

_CLOCKED_BITS = ActivityKeys.REG_CLOCKED_BITS
#: Cycles the pipe's lines run between two bookings at most: a bound on
#: the words or flits they store through a long ``run()``.
BOOK_EVERY = 1024

#: A callable producing the next data word of a stream.
WordSource = Callable[[], int]


class LoadPacer:
    """Turns a load fraction into a word-emission schedule.

    A lane transports one word every ``phits_per_packet`` cycles at 100 %
    load; the pacer accumulates ``load`` credits per cycle and releases a word
    whenever a full packet's worth of credit is available.

    The credit arithmetic is exact: the load is split into its integer
    numerator/denominator (every float is a dyadic rational) and the credit
    is an integer in units of ``1/denominator``.  Exactness is what lets
    :meth:`emit_from` leap from one emission to the next in closed form,
    bit-identical to consulting the pacer once per cycle.
    """

    def __init__(self, load: float, cycles_per_word: int) -> None:
        if not 0.0 <= load <= 1.0:
            raise ValueError("load must be within [0, 1]")
        if cycles_per_word < 1:
            raise ValueError("cycles_per_word must be positive")
        self.load = load
        self.cycles_per_word = cycles_per_word
        numerator, denominator = float(load).as_integer_ratio()
        self._step = numerator
        self._threshold = cycles_per_word * denominator
        self._credit = 0

    def emit_from(self, cycle: int) -> Optional[int]:
        """Emit at the first due cycle from *cycle* on and return it (``None``:
        zero load, never): the first cycle whose ``load`` credit, accrued
        once per cycle from *cycle* on, reaches a packet's worth.  The next
        emission is ``emit_from(due + 1)``."""
        step = self._step
        if not step:
            return None
        gap = -(-(self._threshold - self._credit) // step)  # >= 1: the credit stays below the threshold
        self._credit += step * gap - self._threshold
        return cycle + gap - 1

    def reset(self) -> None:
        """Back to the power-on state: no credit accumulated."""
        self._credit = 0


class DriverSchedule:
    """The stream drivers one datapath fires itself, in due order.

    Every datapath owns its drivers (:class:`StreamDriver` records): the GT
    and packet ones fire the drivers due that cycle at the top of their
    ``commit``, right after sampling the outside wires, the circuit one
    around its routers' sampling walk, and each one's ``next_event_cycle``
    is no later than :attr:`next_due`.  A heap keyed ``(due cycle, adoption number)`` orders
    them, so drivers sharing a word source pull in adoption order within a
    cycle — the registration order they had as kernel components.  Each
    driver's pacer advances in closed form, one ``pacer.emit_from`` per
    emission (:meth:`LoadPacer.emit_from`, or a GT link driver's per slot
    opportunity), which the heap entry keeps bound.
    """

    __slots__ = ("_heap", "_adopted", "count", "next_due")

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        #: Adopted driver -> adoption number, in adoption order.
        self._adopted: Dict[Any, int] = {}
        #: Adoption numbers handed out.
        self.count = 0
        #: The earliest cycle any driver is due (``None``: none ever is).
        self.next_due: Optional[int] = None

    def adopt(self, driver: Any, cycle: int) -> None:
        """Take *driver* on (twice raises :class:`ConfigurationError`): it offers
        its first word at or after *cycle*."""
        if driver in self._adopted:
            raise ConfigurationError(f"driver {driver.name!r} is already adopted")
        number = self._adopted[driver] = self.count
        self.count += 1
        self._schedule(driver, number, cycle)

    def _schedule(self, driver: Any, number: int, cycle: int) -> None:
        emit_from = driver.pacer.emit_from
        due = emit_from(cycle)
        if due is not None:
            heappush(self._heap, (due, number, driver, emit_from))
            self.next_due = self._heap[0][0]

    def release(self, driver: Any) -> None:
        """Drop *driver* (tolerates one that was never adopted or already left)."""
        if self._adopted.pop(driver, None) is None:
            return
        self._heap = [entry for entry in self._heap if entry[2] is not driver]
        heapify(self._heap)
        self.next_due = self._heap[0][0] if self._heap else None

    def fire(self, cycle: int, below: int = maxsize) -> None:
        """Emit every driver due at *cycle* (:attr:`next_due`) numbered below *below*."""
        heap = self._heap
        entry = heap[0]
        while entry[0] == cycle and entry[1] < below:
            _, number, driver, emit_from = entry
            driver.emit(cycle)
            # A driver that emitted has a load: it is due again.
            heapreplace(heap, (emit_from(cycle + 1), number, driver, emit_from))
            entry = heap[0]
        self.next_due = entry[0]

    def reset(self) -> None:
        """Reset every driver, due again from cycle 0 on under its adoption number."""
        self._heap, self.next_due = [], None
        for driver, number in self._adopted.items():
            driver.reset()
            self._schedule(driver, number, 0)


class StreamDriver:
    """The source of one paced word stream, whatever the router kind: the
    record a datapath fires from its :class:`DriverSchedule`.

    It holds what every kind's driver shares — the name, the pacer, the word
    source and the ``words_offered`` / ``words_sent`` / ``words_dropped``
    counters.  A kind's subclass adds only its ``emit(cycle)``: how it
    injects the word its pacer offers (a tile send, a serialiser or flit
    queue, a slot wire) and which counters that moves; one that also is a
    :class:`LinkEndpoint` has a unit its datapath steps.
    """

    def __init__(self, name: str, word_source: WordSource, pacer: LoadPacer) -> None:
        self.name = name
        self.word_source = word_source
        self.pacer = pacer
        self.words_offered = self.words_sent = self.words_dropped = 0

    def reset(self) -> None:
        """Back to power-on: no pacer credit, nothing offered."""
        self.pacer.reset()
        self.words_offered = self.words_sent = self.words_dropped = 0


class StreamSink:
    """The sink of one word stream, whatever the router kind: what it
    collected per word arrives in :attr:`received`.  A kind's subclass adds
    only how it collects a word (a tile drain, a deserialiser, a flit or
    slot wire)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.received: List[Any] = []

    @property
    def words_received(self) -> int:
        """Words collected."""
        return len(self.received)

    def reset(self) -> None:
        """Back to power-on: nothing collected."""
        self.received.clear()


class LinkEndpoint:
    """A stream endpoint standing in for the router at the far end of its
    ``link``.  The datapath of the router at the near end steps its unit at
    the clock edge (``step(cycle)``: False once it rests), books its idle
    cycles (:meth:`book_idle`) and lets a change on the wire direction that
    router does not watch, or the endpoint's own driver, mark it
    (:meth:`listen`)."""

    #: The dirty-bit of that direction ("" for none).
    _listens_to = ""

    def listen(self, mark: Callable[[], None]) -> None:
        """Keep the adopting datapath's *mark* of this unit and call it on a
        change of the wire direction this endpoint watches."""
        self.mark = mark
        if self._listens_to:
            getattr(self.link, self._listens_to).add_listener(mark)

    def book_idle(self, cycles: int) -> None:
        """What *cycles* idle cycles of the unit record (here nothing)."""


class DatapathMember:
    """The wiring of a router a :class:`FabricDatapath` clocks.

    A subclass holds its wires in ``_rx_by_port`` / ``_tx_by_port`` and
    rejects a link that does not fit it in :meth:`_check_link`.
    """

    #: The datapath clocking this router (set when one adopts it).
    datapath: Optional["FabricDatapath"] = None
    #: Register bits clocked every cycle, busy or idle (none where the
    #: energy model is event-based).
    _idle_clock_bits = 0

    def _check_link(self, link: Any) -> None:
        """Raise :class:`ConfigurationError` unless *link* fits this router."""

    def attach_link(self, port: Port, rx_link: Any, tx_link: Any) -> None:
        """Attach the incoming and outgoing wires of a neighbour port."""
        port = Port(port)
        if port not in NEIGHBOR_PORTS:
            raise ConfigurationError("links can only be attached to neighbour ports")
        for link in (rx_link, tx_link):
            if link is not None:
                self._check_link(link)
        if self.datapath is not None:
            self.datapath.relink(self, port, rx_link, tx_link)
        else:
            self._rx_by_port[port] = rx_link
            self._tx_by_port[port] = tx_link

    def rx_link(self, port: Port) -> Any:
        """Incoming wire at *port* (``None`` at a fabric edge)."""
        return self._rx_by_port[Port(port)]

    def tx_link(self, port: Port) -> Any:
        """Outgoing wire at *port* (``None`` at a fabric edge)."""
        return self._tx_by_port[Port(port)]


class FabricDatapath(ClockedComponent):
    """Clocks a set of routers that are no kernel components, as one component.

    Members are :class:`DatapathMember` objects and keep all their state.
    :attr:`_writer` / :attr:`_reader` map each wire to the ``(member, port)``
    driving / reading it.  A wire with both ends in the set is the datapath's
    own: by default only a fault marks it.  Each wire a member reads from
    outside the set (a stream driver's, a shard's boundary mirror) adds a
    ``_rx_record`` to :attr:`_outside_rx`, and each wire a member drives out
    of the set a ``_tx_record`` to :attr:`_outside_tx`: the kind's
    ``next_event_cycle`` reads them.  A kind that hears more on them
    (:meth:`_listener`) says so.  A kind's ``__init__`` calls
    :meth:`_rewire` once its own containers exist.
    """

    #: The wires' listener-claiming methods: the forward direction's first,
    #: then the reverse ones.
    wire_watchers: ClassVar[Tuple[str, ...]] = ("watch_forward",)
    #: The per-cycle containers :meth:`reset` empties.
    _transient: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, name: str, routers: Sequence[Any]) -> None:
        super().__init__(name)
        self.routers = list(routers)
        for router in self.routers:
            if router.datapath is not None:
                raise ConfigurationError(f"router {router.name!r} already has a datapath")
        for router in self.routers:
            router.datapath = self
        #: The members' counters, then those of the members that clock
        #: register bits every cycle, with the bit count.
        self._counters = [router.activity for router in self.routers]
        self._clocked = [(r.activity, r._idle_clock_bits) for r in self.routers if r._idle_clock_bits]
        #: The stream drivers this datapath fires.
        self.drivers = DriverSchedule()
        #: The endpoints' units in adoption order.  A unit at rest waits in
        #: ``_resting``, owing from ``_owed``; while one is not, the kind's
        #: ``next_event_cycle`` answers now.
        self._units: Dict[Any, None] = {}
        self._resting: Dict[Any, None] = {}
        self._owed: Dict[Any, int] = {}
        self._reset_pipe()

    # -- hooks ---------------------------------------------------------------------------

    def _compile(self, router: Any) -> None:
        """Build the records *router*'s cycle walks from its wiring and state."""
        raise NotImplementedError

    def _wire_died(self, wire: Any) -> None:
        """What a dead wire between two members does besides recompiling its ends."""

    def _listener(self, wire: Any, router: Any) -> Optional[Callable[[], None]]:
        """What a mark on *wire* calls, *router* reading it (the forward
        watcher) or driving it (the reverse ones): a fault check for a wire
        between two members, else nothing."""
        return self._member_wire_marked if wire in self._reader and wire in self._writer else None

    def _rx_record(self, wire: Any, router: Any, port: int) -> Any:
        """What :attr:`_outside_rx` holds for *wire*, read by *router* at *port*."""
        return wire

    def _tx_record(self, wire: Any, router: Any, port: int) -> Any:
        """What :attr:`_outside_tx` holds for *wire*, driven by *router* at *port*."""
        return wire

    # -- stream endpoints ----------------------------------------------------------------

    def adopt(self, record: Any) -> Any:
        """Take a stream endpoint record on and return it (between cycles only;
        twice raises :class:`ConfigurationError`).  A record with a ``pacer``
        fires from :attr:`drivers`; one with a ``step`` has its unit stepped
        at the clock edge until it rests (:meth:`_turn`); the kind places it
        in its cycle (:meth:`_place`)."""
        self.refuse_inside_cycle(f"{record.name!r} adopted")
        if hasattr(record, "pacer"):
            self.drivers.adopt(record, self._cycle())
        if hasattr(record, "step"):
            if record in self._units:
                raise ConfigurationError(f"{record.name!r} is already adopted")
            self._units[record] = None
            record.listen(partial(self._stir, record))
        self._place(record, self._scheduler is None)
        return record

    def _place(self, record: Any, early: bool) -> None:
        """Where *record*, adopted before this datapath joined a kernel if
        *early*, acts in the kind's cycle.  Here the kind fires every driver
        and steps every unit where it calls :meth:`_turn`, and refuses any
        other record."""
        if not hasattr(record, "pacer") and not hasattr(record, "step"):
            raise ConfigurationError(f"{record.name!r} is no stream endpoint of {self.name!r}")

    def release(self, record: Any) -> None:
        """Let go of *record*, booking what its unit owes (tolerates one never
        adopted or already released)."""
        self.drivers.release(record)
        self._unplace(record)
        if record in self._units:
            del self._units[record]
            self._resting.pop(record, None)
            start, now = self._owed.pop(record, None), self._cycle()
            if start is not None and now > start:
                record.book_idle(now - start)

    def _unplace(self, record: Any) -> None:
        """Undo what :meth:`_place` did for *record*."""

    def _stir(self, unit: Any) -> None:
        """*unit*'s wire changed or its own driver emitted: it steps from its next turn on."""
        self._resting.pop(unit, None)

    def _turn(self, units: Dict[Any, None], cycle: int) -> None:
        """Step the units of *units* not at rest, in adoption order; one whose
        ``step`` returns False rests, its idle cycles owed from the next on."""
        resting, owed = self._resting, self._owed
        for unit in units:
            if unit not in resting:
                start = owed.pop(unit, cycle)
                if cycle > start:
                    unit.book_idle(cycle - start)
                if not unit.step(cycle):
                    owed[unit] = cycle + 1
                    resting[unit] = None

    def _cycle(self) -> int:
        """The kernel's cycle, 0 before this datapath joined one."""
        kernel = self._scheduler
        return kernel.cycle if kernel is not None else 0

    # -- wiring, between cycles ----------------------------------------------------------

    def _map_wires(self) -> None:
        """Who drives and who reads each wire of the set; claim the listeners."""
        self._writer: Dict[Any, Tuple[Any, int]] = {}
        self._reader: Dict[Any, Tuple[Any, int]] = {}
        for router in self.routers:
            for port in NEIGHBOR_PORTS:
                if router._tx_by_port[port] is not None:
                    self._writer[router._tx_by_port[port]] = (router, port)
                if router._rx_by_port[port] is not None:
                    self._reader[router._rx_by_port[port]] = (router, port)
        forward, *reverse = self.wire_watchers
        #: Live wires between two members (an insertion-ordered set).
        self._member_wires: Dict[Any, None] = {}
        self._outside_rx: List[Any] = []
        for wire, (router, port) in self._reader.items():
            getattr(wire, forward)(self._listener(wire, router))
            if wire in self._writer:
                if not wire.dead:
                    self._member_wires[wire] = None
            else:
                self._outside_rx.append(self._rx_record(wire, router, port))
        self._outside_tx: List[Any] = []
        for wire, (router, port) in self._writer.items():
            for watch in reverse:
                getattr(wire, watch)(self._listener(wire, router))
            if wire not in self._reader:
                self._outside_tx.append(self._tx_record(wire, router, port))

    def _rewire(self) -> None:
        """Map the wires and compile every member."""
        self._map_wires()
        for member in self.routers:
            self._compile(member)

    def relink(self, router: Any, port: int, rx_link: Any, tx_link: Any) -> None:
        """Attach *router*'s wires at *port* and recompile (between cycles only)."""
        self.refuse_inside_cycle(f"links of router {router.name!r} attached")
        router._rx_by_port[port] = rx_link
        router._tx_by_port[port] = tx_link
        self._rewire()

    def _member_wire_marked(self) -> None:
        # Only a fault marks a wire between two members: recompile both ends
        # of every one that died since the last mark.
        for wire in [wire for wire in self._member_wires if wire.dead]:
            del self._member_wires[wire]
            self._compile(self._writer[wire][0])
            self._compile(self._reader[wire][0])
            self._wire_died(wire)

    # -- simulation ----------------------------------------------------------------------

    def settle(self, start_cycle: int, cycles: int) -> None:
        """Book *cycles* cycles, busy or idle: the pipe's lines materialised,
        the idle cycles the resting units owe, every member's constant
        clocked bits and its cycle count (the rest of the energy model is
        event-based)."""
        end = start_cycle + cycles
        if self._piping:
            self._pipe_sync(end)
        owed = self._owed
        for unit, start in owed.items():
            if end > start:
                unit.book_idle(end - start)
            owed[unit] = end
        for activity in self._counters:
            activity.cycles = end
        for activity, bits in self._clocked:
            activity.add(_CLOCKED_BITS, bits * cycles)

    def reset(self) -> None:
        """Endpoints, routers and drivers back to power-on, every unit
        stepping; the pipe is laid again after the first cycle."""
        self._reset_pipe()
        for unit in self._units:
            unit.reset()  # a link driver again with the drivers, after its pacer's
        self._resting.clear()
        self._owed.clear()
        for router in self.routers:
            router.reset()
        for name in self._transient:
            getattr(self, name).clear()
        self.drivers.reset()

    # -- the pipe ------------------------------------------------------------------------

    def _reset_pipe(self) -> None:
        #: Whether the lines run, whether to lay them at the kind's next look
        #: and why routers run instead (None while the lines run every one).
        self._piping, self._pipe_check = False, True
        self._pipe_reason: Optional[str] = "the pipe is laid at the end of the first cycle"
        #: The lines and the agenda of their events ``(cycle, kind, number, line)``.
        self._lines: List[Any] = []
        self._agenda: List[tuple] = []
        self._sequence = count()
        #: Configured route-hops over all routers when the lines were last laid.
        self.live_routes: Optional[int] = None
        #: Cycles the lines ran up to their last booking, the cycle of that
        #: booking and the members they run.
        self._piped = self._piped_since = self._piped_members = 0

    def _materialise(self, cycle: int) -> None:
        """Book what the lines owe and write back what the routers hold
        after the latch of ``cycle - 1``."""
        for line in self._lines:
            line.materialise(cycle)

    def _lay_pipe(self, cycle: int) -> None:
        """Between the latch of ``cycle - 1`` and *cycle*: lay the lines under
        ``vector``, or keep why the routers run.  The kind's
        ``_plan_pipe(cycle)`` answers a plan of its lines (``None`` where the
        routers must run), why routers run and whether to look again after
        the next cycle; its ``_start_pipe(plan, cycle)`` starts them, and
        its ``_unpipe()`` hands the routers back after :meth:`_pipe_release`."""
        kernel = self._scheduler
        if kernel is None or kernel.schedule != "vector":
            self._pipe_check, self._pipe_reason = False, None
            return
        plan, self._pipe_reason, self._pipe_check = self._plan_pipe(cycle)
        if plan is None:
            return
        self._piping, self._piped_since = True, cycle
        self._lines, self._agenda, self._sequence = [], [], count()
        self._start_pipe(plan, cycle)

    def _pipe_next_event(self, cycle: int) -> Optional[int]:
        """The ``next_event_cycle`` answer while only the lines run: their next
        event or the cycle the next driver is due, whichever is first."""
        due, agenda = self.drivers.next_due, self._agenda
        return agenda[0][0] if agenda and (due is None or agenda[0][0] < due) else due

    def _pipe_sync(self, cycle: int) -> None:
        """Materialise every line at *cycle* and count the piped cycles."""
        self._materialise(cycle)
        piped = cycle - self._piped_since
        if piped > 0:
            stats = self._scheduler.scheduler_stats
            stats.vector_batches += piped
            stats.vector_components += piped * self._piped_members
            self._piped, self._piped_since = self._piped + piped, cycle

    def _pipe_release(self, cycle: Optional[int] = None) -> None:
        """Between two cycles (or at the end of the one before *cycle*): every
        line materialised and the routers handed back, the lines laid again
        at the next look."""
        self._pipe_sync(self._cycle() if cycle is None else cycle)
        self._piping, self._lines, self._agenda = False, [], []
        self._pipe_check = True
        self._pipe_reason = "the pipe is laid again at the end of the next cycle"
        self._unpipe()

    # The GT and packet kinds lay their lines at the top of a commit: while a
    # look is due, ``_lay_commit`` shadows ``commit`` as an instance
    # attribute, and while the lines run their own ``commit`` does, so the
    # routers' cycle pays nothing for either.

    def _lay_next(self) -> None:
        """Lay the lines at the next commit, dropping what running ones shadow
        (at a reset).  By ``del``: reading the instance's ``__dict__`` would
        turn CPython's inline attribute values into a dictionary and slow
        every attribute load of the routers' cycle after it."""
        try:
            del self.next_event_cycle
        except AttributeError:
            pass
        self.commit = self._lay_commit

    def _relay(self) -> None:
        """A change between cycles: the lines are materialised and laid again
        at the next commit."""
        if self._piping:
            self._pipe_release()
        elif not self._pipe_check:
            self._pipe_check, self.commit = True, self._lay_commit

    def _lay_commit(self, cycle: int) -> None:
        """The first commit after a change (and every one while the kind asks
        to look again): lay the lines, then run the cycle on them or on the
        routers."""
        del self.commit
        self._lay_pipe(cycle)
        if self._piping:
            self.commit(cycle)
            return
        if self._pipe_check:
            self.commit = self._lay_commit
        type(self).commit(self, cycle)

    @property
    def scalar_cycles(self) -> int:
        """Simulated cycles the lines ran none of (slept-through ones included)."""
        kernel = self._scheduler
        if kernel is None:
            return 0
        piped = self._piped + (kernel.cycle - self._piped_since if self._piping else 0)
        return kernel.cycle - piped

    @property
    def piping(self) -> bool:
        """Whether the lines run some or all of the routers right now."""
        return self._piping

    def pipe_reason(self) -> Optional[str]:
        """Why routers run right now (``None`` while the lines run every one)."""
        return self._pipe_reason
