"""The skeleton the compiled circuit, GT and packet datapaths share.

A datapath is one kernel component clocking a set of routers that are no
components themselves, and running the stream endpoint records that feed
them (:meth:`FabricDatapath.adopt`).  :class:`FabricDatapath` holds what does
not depend on the router kind, :class:`DatapathMember` the routers' wiring; a
kind keeps its per-member compile and its own ``evaluate``, ``commit`` and
``next_event_cycle``, so the skeleton adds no call to a cycle.
"""

from __future__ import annotations

from heapq import heapify, heappush, heapreplace
from sys import maxsize
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.common import NEIGHBOR_PORTS, ConfigurationError, Port
from repro.energy.activity import ActivityKeys
from repro.sim.engine import ClockedComponent

__all__ = ["DatapathMember", "DriverSchedule", "FabricDatapath"]

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
    driver's pacer advances in closed form, one
    :meth:`~repro.core.testbench.LoadPacer.emit_from` per emission.
    """

    __slots__ = ("_owner", "_heap", "_adopted", "_count", "next_due")

    def __init__(self, owner: Any) -> None:
        #: The datapath: woken when a driver joins between two cycles.
        self._owner = owner
        self._heap: List[tuple] = []
        #: Adopted driver -> adoption number, in adoption order.
        self._adopted: Dict[Any, int] = {}
        self._count = 0
        #: The earliest cycle any driver is due (``None``: none ever is).
        self.next_due: Optional[int] = None

    def adopt(self, driver: Any, cycle: int) -> int:
        """Take *driver* on (twice raises :class:`ConfigurationError`): it offers
        its first word at or after *cycle*.  Returns its adoption number."""
        if driver in self._adopted:
            raise ConfigurationError(f"driver {driver.name!r} is already adopted")
        number = self._adopted[driver] = self._count
        self._count += 1
        self._schedule(driver, number, cycle)
        self._owner.wake()
        return number

    def _schedule(self, driver: Any, number: int, cycle: int) -> None:
        due = driver.pacer.emit_from(cycle)
        if due is not None:
            heappush(self._heap, (due, number, driver))
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
            driver = entry[2]
            driver.emit(cycle)
            # pacer.emit_from(cycle + 1), inlined: a driver that emitted has a load.
            pacer = driver.pacer
            step, threshold = pacer._step, pacer._threshold
            gap = -((pacer._credit - threshold) // step)
            pacer._credit += step * gap - threshold
            heapreplace(heap, (cycle + gap, entry[1], driver))
            entry = heap[0]
        self.next_due = entry[0]

    def reset(self) -> None:
        """Reset every driver, due again from cycle 0 on under its adoption number."""
        self._heap, self.next_due = [], None
        for driver, number in self._adopted.items():
            driver.reset()
            self._schedule(driver, number, 0)
        self._owner.wake()


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
    outside the set (a stream driver's, a shard's boundary mirror) wakes the
    datapath with its forward dirty-bit and adds a ``_rx_record`` to
    :attr:`_outside_rx`; each wire a member drives out of the set wakes it
    with its reverse dirty-bits and adds a ``_tx_record`` to
    :attr:`_outside_tx`.  A kind that hears more (:meth:`_listener`) says so.
    A kind's ``__init__`` calls :meth:`_rewire` once its own containers exist.
    """

    settles_at_sync = True  # a cycle books the same constant, busy or idle
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
        #: The tile stream drivers this datapath fires.
        self.drivers = DriverSchedule(self)

    # -- hooks ---------------------------------------------------------------------------

    def _compile(self, router: Any) -> None:
        """Build the records *router*'s cycle walks from its wiring and state."""
        raise NotImplementedError

    def _wire_died(self, wire: Any) -> None:
        """What a dead wire between two members does besides recompiling its ends."""

    def _listener(self, wire: Any, router: Any) -> Callable[[], None]:
        """What a mark on *wire* calls, *router* reading it (the forward
        watcher) or driving it (the reverse ones): a fault check for a wire
        between two members, else a wake."""
        return self._member_wire_marked if wire in self._reader and wire in self._writer else self.wake

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
        """Take a stream endpoint record on and return it (here a tile stream driver)."""
        self.drivers.adopt(record, self._cycle())
        return record

    def release(self, record: Any) -> None:
        """Let go of *record* (tolerates one never adopted or already released)."""
        self.drivers.release(record)

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
        self.wake()

    def _member_wire_marked(self) -> None:
        # Only a fault marks a wire between two members: recompile both ends
        # of every one that died since the last mark.
        for wire in [wire for wire in self._member_wires if wire.dead]:
            del self._member_wires[wire]
            self._compile(self._writer[wire][0])
            self._compile(self._reader[wire][0])
            self._wire_died(wire)
        self.wake()

    # -- simulation ----------------------------------------------------------------------

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        """Book *cycles* cycles, busy or idle: every member's constant clocked
        bits and its cycle count (the rest of the energy model is event-based)."""
        end = start_cycle + cycles
        for activity in self._counters:
            activity.cycles = end
        for activity, bits in self._clocked:
            activity.add(_CLOCKED_BITS, bits * cycles)

    def reset(self) -> None:
        for router in self.routers:
            router.reset()
        for name in self._transient:
            getattr(self, name).clear()
        self.drivers.reset()
