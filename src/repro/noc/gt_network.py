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
* :class:`SlotTableRouter` — the slot tables and one output register per
  port; slot ``cycle % S`` selects which input each output latches,
* :class:`TdmaDatapath` — the kernel component clocking a set of routers and
  running the stream endpoint records that feed them: :class:`GtTileDriver`
  at a tile, :class:`GtLinkDriver` / :class:`GtLinkSink` on a bench's
  outside wires,
* :class:`TimeDivisionNoC` — the full network, registered with
  :func:`repro.noc.fabric.build_network` as ``"gt"`` / ``"aethereal"`` /
  ``"tdma"``, admission-controlled by
  :class:`repro.noc.slot_table.SlotTableAllocator`.

Energy and area are backed by the published Æthereal constants
(:class:`repro.energy.area.AetherealRouterArea`, 0.175 mm² after layout): the
paper gives no component breakdown ("n.a." in Table 4), so static and clock
power follow the quoted area while switching activity (register/link toggles,
slot-table writes) is recorded by the simulation like for the other routers.

Admission makes every slot table contention-free and one slot per hop
aligned, so a cycle is a fixed move: at slot ``s`` each programmed entry
copies its source (the register driving its input wire, its tile's queue, or
a wire driven from outside the set) into its output register, and each
register no entry names that holds a word latches idle.  The datapath
compiles that move per slot and runs a cycle as one gather from the previous
cycle's registers and one scatter into the routers' own registers, counters,
outgoing wires and tiles.  The stream drivers are records the datapath
fires first thing in its ``commit``, so a word offered in a cycle can leave
in that cycle's slot, and the link streams' units step right after them;
an idle fabric answers the kernel a queued word's slot or the next
driver's due cycle, whichever comes first, and the kernel leaps to it.
It recompiles between cycles only: a slot after ``program`` / ``clear``,
every router after ``attach_link``, both ends of a wire after its ``fail``
(the last two, with adoption and the wire maps, are the
:class:`~repro.sim.datapath.FabricDatapath` skeleton it shares with the
packet datapath).  A slot-table write or an ``attach_link`` inside a cycle
raises :class:`~repro.common.SimulationError`.  A wire between two routers
of the set is never read (the entry reads the register behind it); an
*external* wire (a bench's link stream driver's, a shard's boundary mirror)
is sampled first thing in ``commit``, before the drivers fire and the link
streams' units turn — so wires need no memory of the previous cycle.

A slot train has no arbitration, no flow control and no reverse path, so
it is a fixed-latency delay line.  Under ``schedule="vector"`` the datapath
therefore runs a fabric as lines, one per connection and route
(:mod:`repro.noc.gt_lines`), which book each word once, when its slot pops
it, and write back what the compiled cycle would hold at every ``sync`` and
before a slot-table write, relink, fault or link stream adoption hands the
fabric back to it.  Wires to the outside (a bench's link streams, a shard
region) and a slot train across a dead wire keep the compiled cycle, which
``strict`` always runs: it is the lines' in-tree oracle, and the two-phase
per-router model in ``tests/test_gt_network.py`` is the independent
reference of both.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.baseline.aethereal import AETHEREAL
from repro.common import ConfigurationError, Port, bit_mask
from repro.energy.activity import (
    LINK_TOGGLE_BITS, REG_TOGGLE_BITS, WORDS_DELIVERED, WORDS_INJECTED, ActivityCounters, ActivityKeys,
)
from repro.energy.area import AetherealRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.noc import gt_lines
from repro.noc.fabric import FabricStream, NocBase, register_network_kind
from repro.noc.gt_lines import TO_MEMBER, TO_NOTHING, TO_TILE, TO_WIRE
from repro.noc.slot_table import SlotAllocation, SlotCircuit, SlotTableAllocator
from repro.noc.topology import Position, Topology
from repro.noc.word_proxy import GtPullModel
from repro.sim.datapath import (
    DatapathMember, FabricDatapath, LinkEndpoint, LoadPacer, StreamDriver, StreamSink, WordSource,
)
from repro.sim.engine import DEFAULT_SCHEDULE
from repro.sim.signals import DirtyBit, Listener

__all__ = [
    "TdmaLink",
    "TdmaTileInterface",
    "SlotTableRouter",
    "TdmaDatapath",
    "GtTileDriver",
    "GtLinkDriver",
    "GtLinkSink",
    "TimeDivisionNoC",
]


class TdmaLink:
    """One unidirectional word-wide wire between two slot-table routers.

    ``forward`` holds the word committed by the upstream router's output
    register (``None`` = idle slot).  There is no reverse path: admission
    guarantees contention-freedom, so the receiver can never stall.  The
    wire keeps no history: whoever reads it samples it when a cycle begins.
    """

    __slots__ = ("name", "data_width", "_mask", "forward", "forward_dirty", "dead", "dropped")

    def __init__(self, name: str, data_width: int = 16) -> None:
        if data_width < 1:
            raise ValueError("data width must be positive")
        self.name = name
        self.data_width = data_width
        self._mask = bit_mask(data_width)
        self.forward: Optional[int] = None
        #: Dirty-bit of the forward wire; its listener is the reading
        #: datapath (see :class:`TdmaDatapath`).
        self.forward_dirty = DirtyBit()
        #: True once :meth:`fail` killed the wire (fault model).
        self.dead = False
        #: Words swallowed by the dead wire (in-flight at the kill plus
        #: every word driven afterwards).
        self.dropped = 0

    def watch_forward(self, listener: Listener) -> None:
        """Call *listener* whenever a word is placed on the wire."""
        self.forward_dirty.listener = listener

    def drive(self, word: Optional[int]) -> None:
        """Set the wire at the clock edge.  Every word marks the reader, the
        same word two cycles running too (a link consumer counts each one);
        idle never does: the reader cannot rest while a word is on the wire."""
        if word is None:
            self.forward = None
            return
        if self.dead:
            # A broken wire swallows the slot's word; there is no flow
            # control to unwind (admission guarantees contention-freedom).
            self.dropped += 1
            return
        if not 0 <= word <= self._mask:
            raise ValueError(f"word {word:#x} does not fit in {self.data_width} bits")
        self.forward = word
        self.forward_dirty.mark()

    def read(self) -> Optional[int]:
        """Sample the word currently on the wire."""
        return self.forward

    def idle(self) -> bool:
        """True when no word is on the wire."""
        return self.forward is None

    def reset(self) -> None:
        """Return the wire to the idle state."""
        self.forward = None

    def fail(self) -> int:
        """Kill the wire: it falls idle and future words are swallowed.

        Returns the number of in-flight words lost (0 or 1).  The reader is
        notified, so a datapath driving both ends recompiles them.
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
        #: Words queued over all connections (kept by send, forget and the
        #: datapath's pops).
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

    def backlog(self, connection: str) -> int:
        """Words queued at the tile but not yet injected."""
        queue = self._tx.get(connection)
        return len(queue) if queue is not None else 0

    # -- receiving (filled by the datapath) ------------------------------------------------

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


class SlotTableRouter(DatapathMember):
    """Model of an Æthereal-style slot-table router.

    Per output port the router holds a revolving table of ``slots`` entries;
    entry ``cycle % slots`` names the input port whose word is latched into
    that output's register at the clock edge (and the connection it belongs
    to, so tile ingress/egress can be demultiplexed).  One register stage per
    hop gives the one-slot-per-hop alignment that
    :class:`repro.noc.slot_table.SlotTableAllocator` schedules around.  The
    :class:`TdmaDatapath` that adopts the router (:attr:`datapath`) clocks it
    and hears of every slot-table write, wiring change and queued tile word.
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
        if slots < 1:
            raise ValueError("slot table needs at least one slot")
        self.name = name
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
        #: Registered output word per port (``None`` = idle).
        self._out_reg: List[Optional[int]] = [None] * self.NUM_PORTS
        #: Previous payload per output register, for toggle counting
        #: (idle counts as the all-zero pattern).
        self._out_prev: List[int] = [0] * self.NUM_PORTS

        self._rx_by_port: List[Optional[TdmaLink]] = [None] * self.NUM_PORTS
        self._tx_by_port: List[Optional[TdmaLink]] = [None] * self.NUM_PORTS

        self.tile = TdmaTileInterface(self)

        # Constant per-cycle clocked bits: the slot counter plus one
        # registered word (+ valid bit) per output port.
        self._idle_clock_bits = (slots - 1).bit_length() + self.NUM_PORTS * (data_width + 1)

    # -- wiring -------------------------------------------------------------------

    def _check_link(self, link: TdmaLink) -> None:
        if link.data_width != self.data_width:
            raise ConfigurationError(
                f"link {link.name!r} is {link.data_width} bits wide, router "
                f"{self.name!r} expects {self.data_width}"
            )

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
        datapath = self.datapath
        if datapath is not None:
            datapath.refuse_inside_cycle(f"slot table of router {self.name!r} written")
        self._table[out_port][slot] = entry
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)
        if datapath is not None:
            datapath.reprogram(self, slot)

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

    def reset(self) -> None:
        """Back to power-on, slot tables excepted (like the circuit-switched
        configuration memory): tile, counters, registers, outgoing wires."""
        self.tile.reset()
        self.activity.reset()
        for port in range(self.NUM_PORTS):
            self._out_reg[port] = None
            self._out_prev[port] = 0
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


_PORTS = SlotTableRouter.NUM_PORTS
#: Where a feed takes its word from (its index in a slot's ``_groups``).
_FROM_REGISTER, _FROM_TILE, _FROM_WIRE = range(3)


class TdmaDatapath(FabricDatapath):
    """Clocks a set of :class:`SlotTableRouter` objects from one per-slot schedule.

    Register ``5 × i + port`` is output register *port* of ``routers[i]``.
    Per slot, ``_feeds`` maps each register a programmed entry feeds to its
    source and feed ``(register, a, b, connection)``: the upstream register
    ``a[b]`` (its router's ``_out_reg``, its port), the tile ``a`` (``b``:
    its router's counter slots) or the external wire ``a``; ``_groups``
    holds the slot's feeds by source, then its ``_feeds``.  An entry whose
    input wire is missing or dead has no feed: like a register no entry
    names, it latches idle if it holds a word.  ``_registers`` holds per register what the scatter
    touches; all state stays in the routers, which share one slot-table size.
    The top of :meth:`commit` fires the :class:`GtTileDriver` objects in
    :attr:`drivers`; :attr:`_outside_rx` lists the external wires.  Under
    ``vector`` the lines (:mod:`repro.noc.gt_lines`) run the routers
    instead, from the first commit after a change
    (:meth:`~repro.sim.datapath.FabricDatapath._lay_commit`).
    """

    _transient = ("_held",)

    def __init__(self, name: str, routers: Sequence[SlotTableRouter]) -> None:
        sizes = {router.slots for router in routers}
        if len(sizes) != 1:
            raise ConfigurationError("a datapath clocks one or more routers of one slot-table size")
        super().__init__(name, routers)
        self.slots = sizes.pop()
        self._index = {router: index for index, router in enumerate(self.routers)}
        self._registers: List[tuple] = [()] * (_PORTS * len(self.routers))
        self._feeds: List[Dict[int, tuple]] = [{} for _ in range(self.slots)]
        self._groups: List[tuple] = [((), (), (), feeds) for feeds in self._feeds]
        #: Registers holding a word (an insertion-ordered set).
        self._held: Dict[int, None] = {}
        self._rewire()

    # -- compiling the schedule, between cycles ----------------------------------------

    def _compile(self, router: SlotTableRouter, slots: Optional[Sequence[int]] = None) -> None:
        """Recompile *router*'s feeds of *slots* (default: its records and every
        slot); the lines are materialised first and laid again at the next commit."""
        if self._piping or not self._pipe_check:  # else the next commit looks already
            self._relay()
        base = _PORTS * self._index[router]
        counts = router.activity.slots
        if slots is None:
            slots = range(self.slots)
            for port, wire in enumerate(router._tx_by_port):
                if not port:
                    action, wire = TO_TILE, router.tile
                elif wire is None:
                    action = TO_NOTHING
                else:
                    action = TO_MEMBER if wire in self._reader and not wire.dead else TO_WIRE
                self._registers[base + port] = (
                    port, router._out_reg, router._out_prev, counts, router._mask, action, wire,
                )
        for slot in slots:
            feeds = self._feeds[slot]
            changed = False
            for out_port, table in enumerate(router._table):
                register, entry = base + out_port, table[slot]
                if entry is None and register not in feeds:
                    continue
                changed = feeds.pop(register, None) is not None or changed
                if entry is None:
                    continue
                in_port, connection = entry
                wire = router._rx_by_port[in_port]
                if not in_port:
                    feeds[register] = (_FROM_TILE, (register, router.tile, counts, connection))
                elif wire is None or wire.dead:
                    continue
                elif wire in self._writer:
                    writer, port = self._writer[wire]
                    feeds[register] = (_FROM_REGISTER, (register, writer._out_reg, port, connection))
                else:
                    feeds[register] = (_FROM_WIRE, (register, wire, None, connection))
                changed = True
            if changed:
                groups = ([], [], [])
                for source, feed in feeds.values():
                    groups[source].append(feed)
                self._groups[slot] = (*map(tuple, groups), feeds)

    def adopt(self, record):
        """:meth:`FabricDatapath.adopt`, for a link stream of this slot count only."""
        if getattr(record, "slots", self.slots) != self.slots:
            raise ConfigurationError(f"{record.name!r} counts {record.slots} slots, not {self.slots}")
        return super().adopt(record)

    def _place(self, record, early: bool) -> None:
        # While the lines run a tile driver joins or leaves the lines that
        # pop its queue; a link stream's unit hands back to the compiled cycle.
        super()._place(record, early)
        if self._piping:
            if hasattr(record, "step"):
                self._relay()
            else:
                self._laid.join(record)

    def _unplace(self, record) -> None:
        if self._piping:
            if hasattr(record, "step"):
                self._relay()
            else:
                self._laid.fed.pop(record, None)

    def reprogram(self, router: SlotTableRouter, slot: int) -> None:
        """Recompile *router*'s feeds of *slot* after a slot-table write."""
        self._compile(router, (slot,))

    # -- simulation ---------------------------------------------------------------------

    def commit(self, cycle: int) -> None:
        from_registers, from_tiles, from_wires, feeds = self._groups[cycle % self.slots]
        held = self._held
        if from_wires:  # the external wires, sampled before anything drives them
            sampled = [wire.forward for _, wire, _, _ in from_wires]
        if self.drivers.next_due == cycle:
            self.drivers.fire(cycle)
        if self._units:  # a bench's link streams: ahead of the scatter, whenever adopted
            self._turn(self._units, cycle)
        # Gather every new word from the previous cycle's registers: idle for
        # a register holding a word no entry names, its source's for a fed
        # one (idle onto idle moves nothing).
        moves = [(register, None, None) for register in held if register not in feeds]
        for register, a, b, connection in from_registers:
            if a[b] is not None or register in held:
                moves.append((register, a[b], connection))
        for register, tile, counts, connection in from_tiles:
            queue = tile._queued and tile._tx.get(connection)
            if queue:
                tile._queued -= 1
                counts[WORDS_INJECTED] += 1
                moves.append((register, queue.popleft(), connection))
            elif register in held:
                moves.append((register, None, connection))
        if from_wires:
            for (register, _, _, connection), word in zip(from_wires, sampled):
                if word is not None or register in held:
                    moves.append((register, word, connection))
        registers = self._registers
        for register, word, connection in moves:
            port, out_reg, out_prev, counts, mask, action, target = registers[register]
            payload = word or 0
            previous = out_prev[port]
            if payload != previous:
                toggles = ((previous ^ payload) & mask).bit_count()
                counts[REG_TOGGLE_BITS] += toggles
                if port:  # an outgoing wire toggles with its register
                    counts[LINK_TOGGLE_BITS] += toggles
                out_prev[port] = payload
            out_reg[port] = word
            if word is None:
                del held[register]
            else:
                held[register] = None
            if action == TO_MEMBER:
                target.forward = word
            elif action == TO_TILE:
                if word is not None:
                    target.received.setdefault(connection, []).append(word)
                    counts[WORDS_DELIVERED] += 1
            elif action == TO_WIRE:
                target.drive(word)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Now while a register or an external wire holds a word or a link
        stream unit is not at rest, else the earlier of the first injection
        slot of a connection with a queued tile word and the cycle the next
        driver is due (under the lines: :meth:`_pipe_next_event`)."""
        if self._held or self._units and len(self._resting) < len(self._units):
            return cycle
        for wire in self._outside_rx:
            if wire.forward is not None:
                return cycle
        due, groups, slots = self.drivers.next_due, self._groups, self.slots
        for offset in range(slots if due is None else min(slots, due - cycle)):
            for _, tile, _, connection in groups[(cycle + offset) % slots][_FROM_TILE]:
                if tile._queued and tile._tx.get(connection):
                    return cycle + offset
        return due

    # -- the lines ----------------------------------------------------------------------

    def _reset_pipe(self) -> None:
        super()._reset_pipe()
        #: The lines while they run.
        self._laid: Optional[gt_lines.GtLines] = None
        self._lay_next()

    def _plan_pipe(self, cycle: int):
        return gt_lines.plan(self, cycle)

    def _start_pipe(self, plan: gt_lines.GtLines, cycle: int) -> None:
        # A slot-table write, relink, fault or link stream's adoption relays
        # (:meth:`_relay`); while the lines run, their ``commit`` and
        # :meth:`_pipe_next_event` shadow :meth:`commit` and
        # :meth:`next_event_cycle`.
        self._laid, self._lines, self._piped_members = plan, [plan], len(self.routers)
        self.commit, self.next_event_cycle = plan.commit, self._pipe_next_event

    def _unpipe(self) -> None:
        """The compiled cycle runs again from the registers the lines wrote back."""
        self._held.clear()
        self._held.update(self._laid.written)
        self._laid = None
        del self.next_event_cycle
        self.commit = self._lay_commit


class GtTileDriver(StreamDriver):
    """Feeds a paced word stream into a slot-table router's tile interface.

    The driver keeps the connection's injection queue topped up at ``load`` ×
    the connection's guaranteed rate (one word per owned slot per table
    revolution); a word offered while the queue is full is dropped undrawn
    and counted, so a mis-paced stream shows up in the statistics instead of
    accumulating unbounded backlog.  The :class:`TdmaDatapath` clocking its
    router fires it at the top of the cycle its pacer is due
    (:class:`~repro.sim.datapath.DriverSchedule`).
    """

    #: The default backlog bound; a shard's remote pull model of the driver reads it too.
    QUEUE_LIMIT = 8

    def __init__(
        self,
        name: str,
        router: SlotTableRouter,
        connection: str,
        word_source: WordSource,
        load: float = 1.0,
        cycles_per_word: int = 1,
        queue_limit: int = QUEUE_LIMIT,
    ) -> None:
        super().__init__(name, word_source, LoadPacer(load, cycles_per_word))
        self.router = router
        self.connection = connection
        self.queue_limit = queue_limit
        self._tile = router.tile
        self._wide = ~router._mask

    def emit(self, cycle: int) -> None:
        """Offer one word: draw and queue it unless the connection's backlog is full."""
        self.words_offered += 1
        tile = self._tile
        queue = tile._tx.get(self.connection)
        if queue is None:
            queue = tile._tx[self.connection] = deque()
        if len(queue) >= self.queue_limit:
            self.words_dropped += 1
            return
        word = self.word_source()
        if word & self._wide:
            raise ValueError(f"word {word:#x} does not fit in {self.router.data_width} bits")
        queue.append(word)
        tile._queued += 1
        self.words_sent += 1


class _SlotPacer(LoadPacer):
    """A :class:`LoadPacer` consulted once per owned slot opportunity, not
    per cycle: cycle ``c`` is one when ``c % slots`` is in *residues*, and
    :meth:`emit_from` returns the opportunity cycle whose consultation emits."""

    def __init__(self, load: float, slots: int, residues: List[int]) -> None:
        super().__init__(load, 1)
        self._slots = slots
        #: Per cycle residue, how far ahead the opportunities of one revolution lie.
        self._ahead = [sorted((residue - now) % slots for residue in residues) for now in range(slots)]

    def emit_from(self, cycle: int) -> Optional[int]:
        step = self._step
        if not step:
            return None
        calls = -(-(self._threshold - self._credit) // step)  # consultations up to the emitting one
        self._credit += step * calls - self._threshold
        ahead = self._ahead[cycle % self._slots]
        revolutions, index = divmod(calls - 1, len(ahead))
        return cycle + ahead[index] + revolutions * self._slots


def _check_slots(slots: int, owned: frozenset) -> None:
    if not owned or not set(owned) <= set(range(slots)):
        raise ValueError(f"a link stream owns one or more slots of 0..{slots - 1}, not {sorted(owned)}")


class GtLinkDriver(StreamDriver, LinkEndpoint):
    """Emulates an upstream slot-table router driving one incoming wire.

    The single-router power scenarios (Table 3) feed streams in through
    neighbour ports; this driver places a word on the wire exactly when the
    router under test will latch it — i.e. during the cycle *before* each of
    the stream's owned slots comes around.  Fired (:meth:`emit`) at the
    owned slot opportunities its pacer picks, it drives the word, and its
    unit lets the wire fall idle (:meth:`step`) at the next commit unless a
    word was fired in it too.  It never drops a word.
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
        _check_slots(slots, inject_slots)
        self.slots = slots
        # Cycle c feeds slot (c + 1) % slots: the residues of the opportunities.
        residues = sorted((s - 1) % slots for s in set(inject_slots))
        super().__init__(name, word_source, _SlotPacer(load, slots, residues))
        self.link = link
        self._sent = -1  # the cycle of the last word

    def emit(self, cycle: int) -> None:
        """Drive a word for the owned slot of the next cycle."""
        self.link.drive(self.word_source())
        self.words_offered = self.words_sent = self.words_sent + 1  # it never drops an offer
        self._sent = cycle
        self.mark()

    def step(self, cycle: int) -> bool:
        """The cycle after a word the wire falls idle and the unit rests."""
        if self._sent == cycle:
            return True
        self.link.drive(None)
        return False

    def reset(self) -> None:
        super().reset()
        self.link.reset()
        self._sent = -1


class GtLinkSink(StreamSink, LinkEndpoint):
    """Emulates the downstream router behind one outgoing wire.

    A word latched at slot ``s`` sits on the wire during the following cycle,
    so the slot that owns a sampled word is ``(cycle - 1) % S``; the sink
    collects, per word, the stream owning that slot (:meth:`claim`; -1 for
    none).  A word the router drives marks its unit, which collects it at the
    top of the next commit.
    """

    _listens_to = "forward_dirty"

    def __init__(self, name: str, link: TdmaLink, slots: int) -> None:
        super().__init__(name)
        self.link = link
        self.slots = slots
        #: Slot index -> stream id owning it, -1 for none (see :meth:`claim`).
        self.slot_owner = [-1] * slots

    def claim(self, stream_id: int, slots: frozenset) -> None:
        """Record that *stream_id* owns the given latch slots."""
        _check_slots(self.slots, slots)
        for slot in slots:
            self.slot_owner[slot] = stream_id

    def step(self, cycle: int) -> bool:
        """Collect the word on the wire; rest until the next one."""
        if self.link.forward is not None:
            self.received.append(self.slot_owner[(cycle - 1) % self.slots])
        return False

    def words_received_for(self, stream_id: int) -> int:
        """Words attributed to *stream_id*."""
        return self.received.count(stream_id)


@register_network_kind("gt", "aethereal", "tdma", "time_division")
class TimeDivisionNoC(NocBase):
    """A complete Æthereal-style TDMA guaranteed-throughput network.

    One :class:`TdmaDatapath` (:attr:`datapath`) clocks the routers and
    fires the :class:`GtTileDriver` of every stream whose source tile it
    holds: the fabric's kernel clocks that one component.  Under
    ``schedule="vector"`` (the default) it runs the slot trains as lines,
    and a cycle costs only the drivers due in it; under ``strict``, or
    where :meth:`schedule_report` names why not, a cycle is its compiled
    per-slot gather and scatter over the words that move.
    """

    datapath_class = TdmaDatapath
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
    ) -> FabricStream:
        """Attach a paced word stream to an allocated channel.

        Tile-local channels create no network endpoints; their traffic never
        enters the NoC.
        """
        if name in self.streams:
            raise ConfigurationError(f"stream {name!r} already exists")
        stream = FabricStream(name, allocation=allocation)
        if allocation.is_local or not allocation.circuits:
            self.streams[name] = stream
            return stream
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
                GtTileDriver.QUEUE_LIMIT,
                self.kernel.cycle,
            ),
        )
        if self.is_local(allocation.src):
            stream.source = self._adopt_driver(GtTileDriver(
                f"{name}_src",
                self.router_at(allocation.src),
                allocation.channel_name,
                word_source,
                load,
                cycles_per_word=cycles_per_word,
            ))
        if self.is_local(allocation.dst):
            stream.delivered = partial(self.router_at(allocation.dst).tile.words_received, allocation.channel_name)
        self.streams[name] = stream
        return stream

    def _detach_stream_components(self, stream: FabricStream) -> None:
        super()._detach_stream_components(stream)
        if self.is_local(stream.allocation.dst):
            # Drop the departed connection's queued and delivered words so a
            # later same-name admission starts from a clean tile interface,
            # like the other kinds' fresh endpoint records do.
            self.router_at(stream.allocation.dst).tile.forget(stream.allocation.channel_name)

    def attach_channel(
        self,
        name: str,
        src: Position,
        dst: Position,
        bandwidth_mbps: float,
        word_source: WordSource,
        load: float = 1.0,
        allocation: Optional[SlotAllocation] = None,
    ) -> List[FabricStream]:
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
        return [self.add_stream(name, allocation, word_source, effective_load)]
