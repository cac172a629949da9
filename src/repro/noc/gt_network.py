"""Simulated Æthereal-style TDMA guaranteed-throughput network (Table 4 / Section 4).

The paper compares its lane-division circuit-switched router against the
Philips Æthereal router, which provides guaranteed throughput with a
*contention-free slot table*: time on every link is divided into revolving
TDMA slots, and a connection owns one slot per revolution on every link of
its route, offset by one slot per hop because each router stage adds one
cycle of latency.  Until now that side of the comparison was only the
analytic constants stub in :mod:`repro.baseline.aethereal`; this module makes
it a third *running* network kind on :class:`repro.noc.fabric.NocBase`:

* :class:`TdmaLink` — one word-wide wire between routers (no flow control:
  contention-freedom is guaranteed by admission, so there is nothing to
  arbitrate or acknowledge),
* :class:`SlotTableRouter` — a cycle-driven router whose only state is the
  slot tables and one output register per port; slot ``cycle % S`` selects
  which input each output latches,
* :class:`TimeDivisionNoC` — the full network, registered with
  :func:`repro.noc.fabric.build_network` as ``"gt"`` / ``"aethereal"`` /
  ``"tdma"``, admission-controlled by
  :class:`repro.noc.slot_table.SlotTableAllocator`.

Energy and area are backed by the published Æthereal constants
(:class:`repro.energy.area.AetherealRouterArea`, 0.175 mm² after layout): the
paper gives no component breakdown ("n.a." in Table 4), so static and clock
power follow the quoted area while switching activity (register/link toggles,
slot-table writes) is recorded by the simulation like for the other routers.
The routers participate in the kernel's quiescence protocol — an idle slot
table is a fixed point, so an unloaded GT fabric costs nothing to simulate.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.baseline.aethereal import AETHEREAL
from repro.common import (
    NEIGHBOR_PORTS,
    ConfigurationError,
    Port,
    bit_mask,
)
from repro.core.testbench import LoadPacer
from repro.energy.activity import (
    LINK_TOGGLE_BITS, REG_TOGGLE_BITS, WORDS_DELIVERED, WORDS_INJECTED, ActivityCounters, ActivityKeys,
)
from repro.energy.area import AetherealRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.noc.fabric import NocBase, WordSource, register_network_kind
from repro.noc.slot_table import SlotAllocation, SlotCircuit, SlotTableAllocator
from repro.noc.topology import Position, Topology
from repro.noc.word_proxy import GtPullModel
from repro.sim.engine import DEFAULT_SCHEDULE, ClockedComponent
from repro.sim.signals import DirtyBit, WakeListener

__all__ = [
    "TdmaLink",
    "TdmaTileInterface",
    "SlotTableRouter",
    "GtStreamDriver",
    "GtLinkStreamDriver",
    "GtLinkStreamConsumer",
    "GtStreamEndpoints",
    "TimeDivisionNoC",
]


#: Per bit mask of output ports: the pseudo slot-table entries that make
#: exactly those ports latch "no word" (``in_port`` ``None``).
_LATCH_IDLE = [
    tuple((port, None, "") for port in range(5) if mask >> port & 1) for mask in range(1 << 5)
]


class TdmaLink:
    """One unidirectional word-wide wire between two slot-table routers.

    ``forward`` holds the word committed by the upstream router's output
    register (``None`` = idle slot).  There is no reverse path: admission
    guarantees contention-freedom, so the receiver can never stall.

    Like :mod:`repro.baseline.link` the wire remembers one clock edge: a
    :meth:`drive` in cycle *c* keeps the word it replaced (``before``,
    ``changed_at``) and a reader committing in *c* takes that, so the
    router's ``evaluate`` has nothing to sample.  A write between cycles
    (fault, boundary frame, reset, no *cycle* given) is fresh in no cycle.
    """

    __slots__ = ("name", "data_width", "_mask", "forward", "before", "changed_at",
                 "forward_dirty", "dead", "dropped")

    def __init__(self, name: str, data_width: int = 16) -> None:
        if data_width < 1:
            raise ValueError("data width must be positive")
        self.name = name
        self.data_width = data_width
        self._mask = bit_mask(data_width)
        self.forward: Optional[int] = None
        #: The word :meth:`drive` replaced, and the cycle it did.
        self.before, self.changed_at = None, -1
        #: Dirty-bit of the forward wire; its listener is the reading
        #: (downstream) router's ``wake``.
        self.forward_dirty = DirtyBit()
        #: True once :meth:`fail` killed the wire (fault model).
        self.dead = False
        #: Words swallowed by the dead wire (in-flight at the kill plus
        #: every word driven afterwards).
        self.dropped = 0

    def watch_forward(self, listener: WakeListener) -> None:
        """Wake *listener* whenever a word is placed on the wire."""
        self.forward_dirty.listener = listener

    def drive(self, word: Optional[int], cycle: int = -1) -> None:
        """Set the wire at the clock edge of *cycle* (called by the upstream router).

        Only a word wakes the receiver: the receiver cannot have been asleep
        while a word was on the wire (latching it keeps it busy for at least
        the following cycle), so the word → idle transition needs no wake-up.
        """
        if word == self.forward:
            return
        if self.dead:
            # A broken wire swallows the slot's word; there is no flow
            # control to unwind (admission guarantees contention-freedom).
            if word is not None:
                self.dropped += 1
            return
        if word is not None and not 0 <= word <= self._mask:
            raise ValueError(f"word {word:#x} does not fit in {self.data_width} bits")
        if self.changed_at != cycle:
            self.before = self.forward
            self.changed_at = cycle
        self.forward = word
        if word is not None:
            self.forward_dirty.mark()

    def read(self) -> Optional[int]:
        """Sample the word currently on the wire."""
        return self.forward

    def idle(self) -> bool:
        """True when no word is on the wire."""
        return self.forward is None

    def reset(self) -> None:
        """Return the wire to the idle state and forget its last change."""
        self.forward = self.before = None
        self.changed_at = -1

    def fail(self) -> int:
        """Kill the wire: it falls idle and future words are swallowed.

        Returns the number of in-flight words lost (0 or 1).  The downstream
        router is woken so it re-samples the dead wire.
        """
        if self.dead:
            return 0
        self.dead = True
        dropped = 0
        if self.forward is not None:
            dropped = 1
            self.dropped += 1
            self.forward = None
        self.forward_dirty.mark()
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TdmaLink({self.name!r}, data_width={self.data_width})"


class TdmaTileInterface:
    """Word-level interface between a processing tile and its slot-table router.

    Words are queued per *connection* (the admission-layer channel name); the
    router pulls one word from a connection's queue whenever the slot table
    reaches one of the connection's injection slots, and delivered words are
    collected per connection on the receiving side.
    """

    def __init__(self, router: "SlotTableRouter") -> None:
        self.router = router
        self._tx: Dict[str, Deque[int]] = {}
        #: Words queued over all connections (kept by send/_pop_tx/forget).
        self._queued = 0
        self.received: Dict[str, List[int]] = {}

    # -- sending --------------------------------------------------------------------

    def send(self, connection: str, word: int) -> None:
        """Queue *word* for injection on *connection*'s next owned slot."""
        if not 0 <= word <= self.router._mask:
            raise ValueError(
                f"word {word:#x} does not fit in {self.router.data_width} bits"
            )
        self._tx.setdefault(connection, deque()).append(word)
        self._queued += 1
        self.router.wake()

    def backlog(self, connection: str) -> int:
        """Words queued at the tile but not yet injected."""
        queue = self._tx.get(connection)
        return len(queue) if queue is not None else 0

    def _pop_tx(self, connection: str) -> Optional[int]:
        queue = self._tx.get(connection)
        if queue:
            self._queued -= 1
            return queue.popleft()
        return None

    def _has_backlog(self) -> bool:
        return self._queued > 0

    # -- receiving (driven by the router) ------------------------------------------------

    def _deliver(self, connection: str, word: int) -> None:
        self.received.setdefault(connection, []).append(word)

    def words_received(self, connection: str) -> int:
        """Words delivered to this tile on *connection*."""
        return len(self.received.get(connection, ()))

    def forget(self, connection: str) -> None:
        """Drop one departed connection's queued and delivered words."""
        self._queued -= len(self._tx.pop(connection, ()))
        self.received.pop(connection, None)

    def reset(self) -> None:
        """Drop all queued and received data."""
        self._tx.clear()
        self._queued = 0
        self.received.clear()


class SlotTableRouter(ClockedComponent):
    """Cycle-driven model of an Æthereal-style slot-table router.

    Per output port the router holds a revolving table of ``slots`` entries;
    entry ``cycle % slots`` names the input port whose word is latched into
    that output's register at the clock edge (and the connection it belongs
    to, so tile ingress/egress can be demultiplexed).  One register stage per
    hop gives the one-slot-per-hop alignment that
    :class:`repro.noc.slot_table.SlotTableAllocator` schedules around.
    """

    NUM_PORTS = 5

    def __init__(
        self,
        name: str,
        slots: int = 16,
        data_width: int = 16,
        position: Tuple[int, int] = (0, 0),
        tech: Technology = TSMC_130NM_LVHP,
    ) -> None:
        super().__init__(name)
        if slots < 1:
            raise ValueError("slot table needs at least one slot")
        self.slots = slots
        self.data_width = data_width
        self._mask = bit_mask(data_width)
        self.position = position
        self.tech = tech

        self.activity = ActivityCounters(name)
        self.area_model = AetherealRouterArea(tech)

        #: Slot tables: per output port, ``slots`` entries of
        #: ``(in_port, connection)`` or ``None``.
        self._table: List[List[Optional[Tuple[Port, str]]]] = [
            [None] * slots for _ in range(self.NUM_PORTS)
        ]
        #: The same tables compiled per slot: the programmed
        #: ``(out_port, in_port, connection)`` entries in output-port order
        #: (rebuilt by program/clear), so a cycle visits no empty entry.
        self._slot_entries: List[Tuple[Tuple[int, int, str], ...]] = [()] * slots
        self._slot_ports: List[int] = [0] * slots  # the entries' output ports, as a bit mask
        #: Registered output word per port (``None`` = idle) and the bit
        #: mask of the ports whose register holds a word.
        self._out_reg: List[Optional[int]] = [None] * self.NUM_PORTS
        self._live = 0
        #: Previous payload per output register, for toggle counting
        #: (idle counts as the all-zero pattern).
        self._out_prev: List[int] = [0] * self.NUM_PORTS

        self._rx_links: Dict[Port, Optional[TdmaLink]] = {p: None for p in NEIGHBOR_PORTS}
        self._tx_links: Dict[Port, Optional[TdmaLink]] = {p: None for p in NEIGHBOR_PORTS}
        self._rx_by_port: List[Optional[TdmaLink]] = [None] * self.NUM_PORTS
        self._tx_by_port: List[Optional[TdmaLink]] = [None] * self.NUM_PORTS
        #: ``(port, wire)`` of the attached incoming wires only.
        self._rx_attached: Tuple[Tuple[Port, TdmaLink], ...] = ()

        self.tile = TdmaTileInterface(self)

        # Constant per-cycle clocked bits: the slot counter plus one
        # registered word (+ valid bit) per output port.
        self._idle_clock_bits = (slots - 1).bit_length() + self.NUM_PORTS * (data_width + 1)

    # -- wiring -------------------------------------------------------------------

    def attach_link(self, port: Port, rx_link: Optional[TdmaLink], tx_link: Optional[TdmaLink]) -> None:
        """Attach the incoming and outgoing word wires of a neighbour port."""
        port = Port(port)
        if port not in NEIGHBOR_PORTS:
            raise ConfigurationError("links can only be attached to neighbour ports")
        for link in (rx_link, tx_link):
            if link is not None and link.data_width != self.data_width:
                raise ConfigurationError(
                    f"link {link.name!r} is {link.data_width} bits wide, router "
                    f"{self.name!r} expects {self.data_width}"
                )
        self._rx_links[port] = rx_link
        self._tx_links[port] = tx_link
        self._rx_by_port[port] = rx_link
        self._tx_by_port[port] = tx_link
        self._rx_attached = tuple((p, l) for p, l in self._rx_links.items() if l is not None)
        if rx_link is not None:
            # A word arriving here must wake a sleeping router.
            rx_link.watch_forward(self.wake)
        self.wake()

    def rx_link(self, port: Port) -> Optional[TdmaLink]:
        """Incoming word wire at *port* (``None`` at a fabric edge)."""
        return self._rx_links[Port(port)]

    def tx_link(self, port: Port) -> Optional[TdmaLink]:
        """Outgoing word wire at *port* (``None`` at a fabric edge)."""
        return self._tx_links[Port(port)]

    # -- slot-table configuration ----------------------------------------------------

    def program(self, out_port: Port, slot: int, in_port: Port, connection: str) -> None:
        """Write one slot-table entry: at *slot*, *out_port* latches *in_port*."""
        out_port, in_port = Port(out_port), Port(in_port)
        self._check_slot(slot)
        entry = self._table[out_port][slot]
        if entry is not None:
            raise ConfigurationError(
                f"slot {slot} of port {out_port.name} on {self.name!r} is already "
                f"owned by connection {entry[1]!r}"
            )
        self._write_entry(out_port, slot, (in_port, connection))

    def clear(self, out_port: Port, slot: int) -> None:
        """Erase the slot-table entry at (*out_port*, *slot*)."""
        out_port = Port(out_port)
        self._check_slot(slot)
        self._write_entry(out_port, slot, None)

    def _write_entry(self, out_port: Port, slot: int, entry: Optional[Tuple[Port, str]]) -> None:
        self._table[out_port][slot] = entry
        self._slot_entries[slot] = entries = tuple(
            (port, *table[slot]) for port, table in enumerate(self._table) if table[slot] is not None
        )
        self._slot_ports[slot] = sum(1 << port for port, _in_port, _connection in entries)
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)
        self.wake()

    def table_entry(self, out_port: Port, slot: int) -> Optional[Tuple[Port, str]]:
        """The ``(in_port, connection)`` entry at (*out_port*, *slot*), if any."""
        self._check_slot(slot)
        return self._table[Port(out_port)][slot]

    def occupied_slots(self) -> int:
        """Total number of programmed slot-table entries."""
        return sum(1 for table in self._table for entry in table if entry is not None)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.slots:
            raise ConfigurationError(f"slot {slot} out of range 0..{self.slots - 1}")

    # -- simulation ---------------------------------------------------------------------

    supports_quiescence = True
    settles_at_sync = True  # the slot counter and output registers never gate

    def evaluate(self, cycle: int) -> None:
        """Nothing: the incoming wires remember what :meth:`commit` must see."""

    def commit(self, cycle: int) -> None:
        out_prev = self._out_prev
        counts = self.activity.slots
        reg_toggles = link_toggles = 0
        # This slot's programmed entries, then the ports no entry names whose
        # register still holds a word (they latch "idle"); the rest of the
        # router cannot change this cycle.
        slot = cycle % self.slots
        latches = self._slot_entries[slot]
        stale = self._live & ~self._slot_ports[slot]
        if stale:
            latches += _LATCH_IDLE[stale]
        for out_port, in_port, connection in latches:
            if in_port is None:
                word = None
            elif in_port:
                # What the wire (if any) held when this cycle began (see TdmaLink).
                rx = self._rx_by_port[in_port]
                word = rx and (rx.before if rx.changed_at == cycle else rx.forward)
            else:
                word = self.tile._pop_tx(connection)
                if word is not None:
                    counts[WORDS_INJECTED] += 1

            payload = word if word is not None else 0
            previous = out_prev[out_port]
            if payload != previous:
                toggles = ((previous ^ payload) & self._mask).bit_count()
                reg_toggles += toggles
                if out_port:
                    link_toggles += toggles
                out_prev[out_port] = payload
            self._out_reg[out_port] = word
            if word is None:
                self._live &= ~(1 << out_port)
            else:
                self._live |= 1 << out_port

            if out_port:
                # The wire changes only when the register does (a dead wire
                # stays idle and swallows, and counts, every word).
                tx = self._tx_by_port[out_port]
                if tx is not None and word != tx.forward:
                    tx.drive(word, cycle)
            elif word is not None:
                self.tile._deliver(connection, word)
                counts[WORDS_DELIVERED] += 1

        if reg_toggles:
            counts[REG_TOGGLE_BITS] += reg_toggles
            if link_toggles:  # an outgoing wire toggles with its register only
                counts[LINK_TOGGLE_BITS] += link_toggles

    def quiescent(self) -> bool:
        """True when another cycle with unchanged inputs would be an idle tick.

        With empty connection queues, idle wires in both directions and idle
        output registers, every slot — whatever the cycle count modulo the
        table size — latches "no word", so the only per-cycle effect is the
        constant clocked-bits contribution that :meth:`idle_tick` bulk-applies.
        The *outgoing* wires must be idle because a just-driven word is a
        transient: the next commit replaces it with ``None``, and sleeping
        before that would leave it on the wire for the downstream router.
        """
        return not self.tile._has_backlog() and self._datapath_idle()

    def _datapath_idle(self) -> bool:
        """True when wires and output registers hold no word anywhere."""
        # An outgoing wire carries its port's register, so ``_live`` covers both.
        if self._live:
            return False
        for _port, rx in self._rx_attached:
            if rx.forward is not None:
                return False
        return True

    # -- timed protocol ------------------------------------------------------

    supports_timed_wake = True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """First cycle whose slot can latch a word, given unchanged inputs.

        With words anywhere in the datapath the router is dense (it must run
        every cycle).  With an idle datapath but backlog queued at the tile,
        the only future work is injecting a queued word when the revolving
        table next reaches a ``TILE`` entry of a backlogged connection — a
        pure function of the cycle count, so the kernel can leap straight to
        that slot.  No backlog at all means no self-generated events.
        """
        if self._live or not self._datapath_idle():
            return cycle
        if not self.tile._has_backlog():
            return None
        slots = self.slots
        backlog = self.tile.backlog
        for offset in range(slots):
            for _out_port, in_port, connection in self._slot_entries[(cycle + offset) % slots]:
                if not in_port and backlog(connection):
                    return cycle + offset
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        """Book *cycles* cycles, busy or idle, of the constant clocked bits."""
        self.activity.add(ActivityKeys.REG_CLOCKED_BITS, self._idle_clock_bits * cycles)
        self.activity.cycles = start_cycle + cycles

    def reset(self) -> None:
        self.tile.reset()
        self.activity.reset()
        self._live = 0
        for port in range(self.NUM_PORTS):
            self._out_reg[port] = None
            self._out_prev[port] = 0
        # Return the attached wires to idle (slot tables survive a reset,
        # like the circuit-switched configuration memory).
        for tx in self._tx_by_port:
            if tx is not None:
                tx.reset()

    # -- reporting -----------------------------------------------------------------------

    def power(self, frequency_hz: float, cycles: int | None = None) -> PowerBreakdown:
        """Estimate the router's average power over the recorded activity."""
        model = PowerModel(self.tech)
        return model.estimate(self.area_model, self.activity, frequency_hz, cycles)

    def max_frequency_mhz(self) -> float:
        """Published maximum clock frequency (Table 4 quotes 500 MHz)."""
        return AETHEREAL.max_frequency_mhz

    @property
    def total_area_mm2(self) -> float:
        """Published silicon area (Table 4 quotes 0.175 mm² after layout)."""
        return self.area_model.total_mm2


class GtStreamDriver(ClockedComponent):
    """Feeds a paced word stream into a slot-table router's tile interface.

    The driver keeps the connection's injection queue topped up at ``load`` ×
    the connection's guaranteed rate (one word per owned slot per table
    revolution); words offered while the queue is full are dropped and
    counted, so a mis-paced stream shows up in the statistics instead of
    accumulating unbounded backlog.
    """

    def __init__(
        self,
        name: str,
        router: SlotTableRouter,
        connection: str,
        word_source: WordSource,
        load: float = 1.0,
        cycles_per_word: int = 1,
        queue_limit: int = 8,
    ) -> None:
        super().__init__(name)
        self.router = router
        self.connection = connection
        self.word_source = word_source
        self.queue_limit = queue_limit
        self._pacer = LoadPacer(load, cycles_per_word)
        self.words_offered = 0
        self.words_sent = 0
        self.words_dropped = 0

    def evaluate(self, cycle: int) -> None:
        if not self._pacer.should_emit():
            return
        self.words_offered += 1
        if self.router.tile.backlog(self.connection) < self.queue_limit:
            self.router.tile.send(self.connection, self.word_source())
            self.words_sent += 1
        else:
            self.words_dropped += 1

    def commit(self, cycle: int) -> None:  # the router itself owns the clocked state
        pass

    # -- timed protocol: the pacer is the driver's only per-cycle state ------

    supports_timed_wake = True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return self._pacer.next_emit_cycle(cycle)

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        self._pacer.skip(cycles)

    def reset(self) -> None:
        self._pacer.reset()
        self.words_offered = 0
        self.words_sent = 0
        self.words_dropped = 0


class GtLinkStreamDriver(ClockedComponent):
    """Emulates an upstream slot-table router driving one incoming wire.

    The single-router power scenarios (Table 3) feed streams in through
    neighbour ports; this driver places a word on the wire exactly when the
    router under test will latch it — i.e. during the cycle *before* each of
    the stream's owned slots comes around.
    """

    def __init__(
        self,
        name: str,
        link: TdmaLink,
        slots: int,
        inject_slots: frozenset,
        word_source: WordSource,
        load: float = 1.0,
    ) -> None:
        super().__init__(name)
        if not inject_slots:
            raise ValueError("a link stream needs at least one slot")
        self.link = link
        self.slots = slots
        self.inject_slots = frozenset(inject_slots)
        self.word_source = word_source
        self._pacer = LoadPacer(load, 1)  # gated once per slot opportunity
        #: Cycle residues (mod slots) at which this driver commits into an
        #: owned slot: cycle c feeds slot (c+1) % slots.
        self._inject_residues = sorted((s - 1) % slots for s in self.inject_slots)
        self.words_sent = 0

    def evaluate(self, cycle: int) -> None:  # the wire is driven at the clock edge
        pass

    def commit(self, cycle: int) -> None:
        # A word committed now is sampled during cycle + 1 and latched at the
        # downstream router's slot (cycle + 1) % S.
        target_slot = (cycle + 1) % self.slots
        if target_slot in self.inject_slots and self._pacer.should_emit():
            self.link.drive(self.word_source(), cycle)
            self.words_sent += 1
        else:
            self.link.drive(None, cycle)

    # -- timed protocol ------------------------------------------------------
    # The pacer is consulted once per owned slot opportunity (never on other
    # cycles), so its credit counts *opportunities*: the next emission falls
    # on the k-th future opportunity cycle, k = cycles_until_emit(), and a
    # leaped window fast-forwards the pacer by the number of opportunity
    # cycles it contains.  The cycle after driving a word stays dense (the
    # word must be replaced by idle).

    supports_timed_wake = True

    def _opportunities_in(self, start_cycle: int, cycles: int) -> int:
        """Owned slot opportunities in the window [start_cycle, start_cycle + cycles)."""
        revolutions, remainder = divmod(cycles, self.slots)
        count = revolutions * len(self._inject_residues)
        for residue in self._inject_residues:
            if (residue - start_cycle) % self.slots < remainder:
                count += 1
        return count

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if self.link.forward is not None:
            return cycle
        emit_calls = self._pacer.cycles_until_emit()
        if emit_calls is None:
            return None  # zero load: every opportunity drives idle onto idle
        offsets = sorted(
            (residue - cycle) % self.slots for residue in self._inject_residues
        )
        revolutions, index = divmod(emit_calls - 1, len(offsets))
        return cycle + offsets[index] + revolutions * self.slots

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        self._pacer.skip(self._opportunities_in(start_cycle, cycles))

    def reset(self) -> None:
        self._pacer.reset()
        self.link.reset()
        self.words_sent = 0


class GtLinkStreamConsumer(ClockedComponent):
    """Emulates the downstream router behind one outgoing wire.

    A word latched at slot ``s`` sits on the wire during the following cycle,
    so the slot that owns a sampled word is ``(cycle - 1) % S``; the consumer
    attributes every word to the stream owning that slot.
    """

    def __init__(self, name: str, link: TdmaLink, slots: int) -> None:
        super().__init__(name)
        self.link = link
        # Arriving words must wake a parked consumer (routers only watch
        # their receive wires, so an outgoing wire's dirty-bit is free).
        link.forward_dirty.add_listener(self.wake)
        self.slots = slots
        #: Slot index -> stream id owning it (filled by the test bench).
        self.slot_owner: Dict[int, int] = {}
        self.received: Dict[int, int] = {}
        self._sampled: Optional[int] = None
        self._sampled_slot = 0

    def claim(self, stream_id: int, slots: frozenset) -> None:
        """Record that *stream_id* owns the given latch slots."""
        for slot in slots:
            self.slot_owner[slot] = stream_id

    def evaluate(self, cycle: int) -> None:
        self._sampled = self.link.forward
        self._sampled_slot = (cycle - 1) % self.slots

    def commit(self, cycle: int) -> None:
        if self._sampled is not None:
            owner = self.slot_owner.get(self._sampled_slot, -1)
            self.received[owner] = self.received.get(owner, 0) + 1
            self._sampled = None

    # -- timed protocol: a pure sink never generates events of its own -------

    supports_timed_wake = True
    settles_at_sync = True  # nothing to book, idle or busy

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if self.link.forward is not None or self._sampled is not None:
            return cycle
        return None

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        pass

    def words_received_for(self, stream_id: int) -> int:
        """Words attributed to *stream_id*."""
        return self.received.get(stream_id, 0)

    def reset(self) -> None:
        self.received.clear()
        self._sampled = None


class GtStreamEndpoints:
    """Book-keeping for one word stream carried by the TDMA network."""

    def __init__(
        self,
        name: str,
        source: Optional[GtStreamDriver],
        sink: Optional[TdmaTileInterface],
        allocation: SlotAllocation,
    ) -> None:
        self.name = name
        self.source = source
        self.sink = sink
        self.allocation = allocation

    @property
    def words_sent(self) -> int:
        """Words accepted into the source tile's injection queue."""
        return self.source.words_sent if self.source is not None else 0

    @property
    def words_received(self) -> int:
        """Words delivered at the destination tile."""
        if self.sink is None:
            return 0
        return self.sink.words_received(self.allocation.channel_name)


@register_network_kind("gt", "aethereal", "tdma", "time_division")
class TimeDivisionNoC(NocBase):
    """A complete Æthereal-style TDMA guaranteed-throughput network.

    ``schedule="vector"`` (the default) runs as ``schedule="event"`` here
    and :meth:`schedule_report` says so: which entries a slot-table router
    latches changes with every slot (it walks the slot's compiled
    ``(out_port, in_port, connection)`` entries), so there is no static
    register gather for the columnar fast path (:mod:`repro.sim.vector`) to
    batch and GT fabrics have no plane.
    """

    kind = "time_division_gt"
    activity_name = "gt_network"
    performs_admission = True
    fault_drop_unit = "word"
    #: One slot-table write per router hop: 3-bit output port + 8-bit slot
    #: index (Æthereal publishes 256-slot tables) + 3-bit input port.  Wider
    #: than the 10-bit lane command *and* there is one per owned slot per
    #: revolution — the configuration-effort contrast of Section 4.
    config_command_bits = 14

    def __init__(
        self,
        topology: Topology,
        frequency_hz: float = 25e6,
        slots: int = 16,
        data_width: int = 16,
        tech: Technology = TSMC_130NM_LVHP,
        schedule: str = DEFAULT_SCHEDULE,
        region=None,
    ) -> None:
        self.slots = slots
        super().__init__(
            topology,
            frequency_hz=frequency_hz,
            data_width=data_width,
            tech=tech,
            schedule=schedule,
            region=region,
        )

    # -- construction hooks -----------------------------------------------------------

    def _build_router(self, position: Position) -> SlotTableRouter:
        return SlotTableRouter(
            f"gt_{self.topology.router_name(position)}",
            slots=self.slots,
            data_width=self.data_width,
            position=position,
            tech=self.tech,
        )

    def _build_link(self, src: Position, dst: Position) -> TdmaLink:
        return TdmaLink(
            f"gt_{src[0]}_{src[1]}__{dst[0]}_{dst[1]}", self.data_width
        )

    def _stream_received(self, endpoints: GtStreamEndpoints) -> int:
        return endpoints.words_received

    def _stream_drained(self, endpoints: GtStreamEndpoints) -> bool:
        # Exact conservation for a halted TDMA connection: every word the
        # injection queue accepted is either waiting for an owned slot,
        # riding a slot train, or delivered at the destination tile —
        # equality means the last train has arrived.  Words a dead wire
        # swallowed never arrive, so a broken path falls back to the
        # stability drain.
        return endpoints.words_received == endpoints.words_sent

    def _new_admission_controller(self) -> SlotTableAllocator:
        return SlotTableAllocator(self.topology, self.slots, self.data_width)

    @classmethod
    def default_admission_controller(cls, topology: Topology) -> SlotTableAllocator:
        return SlotTableAllocator(topology)

    # -- slot-table configuration ------------------------------------------------------------

    def apply_circuit(self, circuit: SlotCircuit) -> None:
        """Write one slot train into the routers along its route."""
        for hop in circuit.hops:
            if self.is_local(hop.position):
                self.router_at(hop.position).program(
                    hop.out_port, hop.slot, hop.in_port, circuit.channel_name
                )

    def remove_circuit(self, circuit: SlotCircuit) -> None:
        """Erase one slot train from the routers again."""
        for hop in circuit.hops:
            if self.is_local(hop.position):
                self.router_at(hop.position).clear(hop.out_port, hop.slot)

    def apply_allocation(self, allocation: SlotAllocation) -> None:
        """Program every slot train of a channel allocation."""
        for circuit in allocation.circuits:
            self.apply_circuit(circuit)

    def remove_allocation(self, allocation: SlotAllocation) -> None:
        """Tear down every slot train of a channel allocation."""
        for circuit in allocation.circuits:
            self.remove_circuit(circuit)

    def occupied_slots(self) -> int:
        """Total programmed slot-table entries across all routers."""
        return sum(router.occupied_slots() for router in self.routers.values())

    # -- traffic -----------------------------------------------------------------------------

    def add_stream(
        self,
        name: str,
        allocation: SlotAllocation,
        word_source: WordSource,
        load: float = 1.0,
    ) -> GtStreamEndpoints:
        """Attach a paced word stream to an allocated channel.

        Tile-local channels create no network endpoints; their traffic never
        enters the NoC.
        """
        if name in self.streams:
            raise ConfigurationError(f"stream {name!r} already exists")
        if allocation.is_local or not allocation.circuits:
            endpoints = GtStreamEndpoints(name, None, None, allocation)
            self.streams[name] = endpoints
            return endpoints
        cycles_per_word = max(1, round(self.slots / allocation.slots_used))
        # The TDMA driver pulls conditionally (a full injection queue drops
        # the offer), so the remote model needs the queue bound and the
        # slot-table drain schedule: one pop per programmed injection slot
        # (the first hop of each slot train) per table revolution.
        word_source = self._register_stream_source(
            name,
            word_source,
            self.is_local(allocation.src),
            lambda: GtPullModel(
                load,
                cycles_per_word,
                self.slots,
                [circuit.hops[0].slot for circuit in allocation.circuits],
                8,  # GtStreamDriver's queue_limit default
                self.kernel.cycle,
            ),
        )
        driver = sink = None
        if self.is_local(allocation.src):
            driver = GtStreamDriver(
                f"{name}_src",
                self.router_at(allocation.src),
                allocation.channel_name,
                word_source,
                load,
                cycles_per_word=cycles_per_word,
            )
            self.kernel.add(driver)
        if self.is_local(allocation.dst):
            sink = self.router_at(allocation.dst).tile
        endpoints = GtStreamEndpoints(name, driver, sink, allocation)
        self.streams[name] = endpoints
        return endpoints

    def _detach_stream_components(self, endpoints: GtStreamEndpoints) -> None:
        self._remove_component(endpoints.source)
        if endpoints.sink is not None:
            # Drop the departed connection's queued and delivered words so a
            # later same-name admission starts from a clean tile interface,
            # like the other kinds' fresh endpoint objects do.
            endpoints.sink.forget(endpoints.allocation.channel_name)

    def attach_channel(
        self,
        name: str,
        src: Position,
        dst: Position,
        bandwidth_mbps: float,
        word_source: WordSource,
        load: float = 1.0,
        allocation: Optional[SlotAllocation] = None,
    ) -> GtStreamEndpoints:
        if allocation is None:
            allocation = self.admission.allocate(
                name, src, dst, bandwidth_mbps, self.frequency_hz
            )
            self.apply_allocation(allocation)
        # Pace the stream at the channel's requested bandwidth (× load), not
        # at the allocated slots' capacity, so every network kind offers the
        # identical word stream for the same channel.
        capacity = allocation.slots_used * self.admission.slot_capacity_mbps(self.frequency_hz)
        effective_load = min(1.0, load * bandwidth_mbps / capacity) if capacity else load
        return self.add_stream(name, allocation, word_source, effective_load)
