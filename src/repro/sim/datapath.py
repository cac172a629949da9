"""The skeleton the compiled circuit, GT and packet datapaths share.

A datapath is one kernel component clocking a set of routers that are no
components themselves, and running the stream endpoint records that feed
them (:meth:`FabricDatapath.adopt`).  :class:`FabricDatapath` holds what does
not depend on the router kind — adoption, the drivers, the link endpoints'
units (:class:`LinkEndpoint`) — and :class:`DatapathMember` the routers'
wiring; a kind keeps its per-member compile and its own ``evaluate``,
``commit`` and ``next_event_cycle``, which call the skeleton's
:meth:`~FabricDatapath._turn` where a bench has units to step.

The kernel asks the datapath ``next_event_cycle`` before every cycle and
leaps while the answer lies later: a tile write, a driver's adoption, a
configuration write or a word on an outside wire is state the kind's answer
reads (through a mark where it needs one), and
:meth:`FabricDatapath.settle` books what the parts owe at every ``sync``.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappush, heapreplace
from sys import maxsize
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.common import NEIGHBOR_PORTS, ConfigurationError, Port
from repro.energy.activity import ActivityKeys
from repro.sim.engine import ClockedComponent

__all__ = ["DatapathMember", "DriverSchedule", "FabricDatapath", "LinkEndpoint"]

_CLOCKED_BITS = ActivityKeys.REG_CLOCKED_BITS


class DriverSchedule:
    """The stream drivers one datapath fires itself, in due order.

    Every datapath owns its drivers (plain records with a ``pacer``, an
    ``emit(cycle)`` and a ``reset()``): the GT and packet ones fire the
    drivers due that cycle at the top of their ``commit``, the circuit one in
    its evaluate phase, and each one's ``next_event_cycle`` is no later than
    :attr:`next_due`.  A heap keyed ``(due cycle, adoption number)`` orders
    them, so drivers sharing a word source pull in adoption order within a
    cycle — the registration order they had as kernel components.  Each
    driver's pacer advances in closed form, one ``pacer.emit_from`` per
    emission (:meth:`~repro.core.testbench.LoadPacer.emit_from`, or a GT
    link driver's per slot opportunity), which the heap entry keeps bound.
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


class LinkEndpoint:
    """A stream endpoint standing in for the router at the far end of a
    link.  The datapath of the router at the near end steps its unit at the
    clock edge (``step(cycle)``: False once it rests), books its idle cycles
    (:meth:`book_idle`) and lets a change on the wire direction that router
    does not watch, or the endpoint's own driver, mark it (:meth:`listen`)."""

    #: The dirty-bit of that direction ("" for none).
    _listens_to = ""

    def __init__(self, name: str, link: Any) -> None:
        self.name = name
        self.link = link

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
    #: The columns of a vector batch mode (:class:`repro.sim.vector.VectorPlane`)
    #: once :meth:`use_plane` gave it one, and why it got none.
    plane: Optional[Any] = None
    plane_refusal: Optional[str] = None

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

    def use_plane(self) -> None:
        """Batch busy cycles in a vector plane, for a kind that has one (this one has none)."""

    # -- stream endpoints ----------------------------------------------------------------

    def adopt(self, record: Any) -> Any:
        """Take a stream endpoint record on and return it (twice raises
        :class:`ConfigurationError`).  A record with a ``pacer`` fires from
        :attr:`drivers`; one with a ``step`` has its unit stepped at the
        clock edge until it rests (:meth:`_turn`); the kind places it in its
        cycle (:meth:`_place`)."""
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
        """Book *cycles* cycles, busy or idle: the idle cycles the resting
        units owe, every member's constant clocked bits and its cycle count
        (the rest of the energy model is event-based)."""
        end = start_cycle + cycles
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
        """Endpoints, routers and drivers back to power-on, every unit stepping."""
        for unit in self._units:
            unit.reset()  # a link driver again with the drivers, after its pacer's
        self._resting.clear()
        self._owed.clear()
        for router in self.routers:
            router.reset()
        for name in self._transient:
            getattr(self, name).clear()
        self.drivers.reset()
