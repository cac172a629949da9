"""The columnar fast path: a struct-of-arrays wire plane for busy fabrics.

Every other scheduling tier (the datapaths parking their idle parts, the
kernel's leaps, sharding) attacks *idle* cost; a fully loaded fabric still pays a pure-Python
per-component loop on every busy cycle.  The :class:`VectorPlane` flattens
that loop: the crossbar output and acknowledge registers a whole
circuit-switched fabric *uses*, and the network side of every data converter
lane that can move, live in NumPy arrays, and one busy cycle is gather → xor →
popcount → accumulate → copy instead of N×routers Python calls.

How it stays bit-identical to the strict reference schedule:

* **The live set, in gather order.**  Per configuration version the plane
  compiles one current-value vector that holds a slot for every register
  that can change and nothing else: the *routed* crossbar output registers
  (:meth:`repro.core.crossbar.Crossbar.active_routes`; tile-port outputs
  first, then link outputs), the acknowledge registers with a fan-in
  (:meth:`~repro.core.crossbar.Crossbar.ack_fanins`; tile-port inputs
  first), the output registers of the live serialisers, then — never
  latched — the acknowledge pulses of the live deserialisers, an idle
  sentinel and the odd constant.  Acknowledges are the integers 0 and 1 in
  the same vector.  ``next = current[src]`` replays exactly the scalar
  evaluate-phase sampling, because an internal lane wire always equals the
  driving router's committed register (the scalar commit drives the wire on
  every register change), and ``current[:live] = next`` is the latch: no
  scatter, no mirror of the old values.  Everything a word edge reads is a
  leading slice — the deserialiser inputs are the first slots of the vector,
  the acknowledges arriving at serialisers the first acknowledge slots.  A
  register no route drives was swept to idle by the scalar cycle that
  precedes every compile and stays there, so a read of one (a route fed by an
  unconfigured upstream lane, an unattached port) reads the sentinel;
  *foreign* wires (shard boundaries, dead links) are patched scalar per
  cycle.  Acknowledge fan-ins with several sources (multicast) gather into a
  side buffer and OR-reduce; with none configured the gather writes ``next``
  directly.
* **Vectorised activity accounting.**  Register/crossbar toggles come from
  ``popcount(xor(next, current))`` (:func:`numpy.bitwise_count`), which
  equals the scalar ``int.bit_count`` path exactly — an acknowledge flip is
  the one bit of a 0/1 slot; per-slot sums are deferred in one accumulator
  and folded into the scalar :class:`~repro.energy.activity.ActivityCounters`
  at :meth:`flush` time, so the per-router totals match the strict schedule
  ULP-exactly (they are integer sums either way).  Without clock gating
  every register clocks on every cycle, so the clocked-bit count is the
  members' constant idle booking: the datapath parks every member while the
  plane batches them and books those bits like any parked member's, when it
  lets go of them or at ``sync``.
* **Self-gating on live routes.**  One batched cycle costs eight NumPy calls
  while no converter lane is mid-word (the gather, the four of the latch,
  three emptiness tests) and nineteen with serialisers, deserialisers and
  acknowledge pulses all busy (a word edge adds two to four per kind),
  however few lanes move, so the owning
  :class:`~repro.core.router.LaneDatapath` batches only when the configured
  routes of its members (counted once per configuration change) reach
  :data:`MIN_BATCH_ROUTES`.  Below that the members run their own compiled
  route programs, so a small or idle fabric costs exactly what the walk
  alone costs.  The gate reads a property of the input, not a parameter.
* **Version guards.**  The plane is the datapath's batch mode, not a kernel
  component.  While it batches, a member's mark (a tile write, an outside
  wire's drive) lands in the plane's dirty list, drained at the next
  evaluate or commit.  A configuration write or a dead wire between two
  members makes the datapath *release* the members before the next cycle:
  :meth:`flush` stores the columns back into the scalar objects and every
  member runs its own program for a cycle, so each router sweeps its
  registers and wires once for the new version.  At the end of that commit
  the datapath reads the gate again and, at or above it, compiles the plane
  at once.  The dead bundle then reclassifies onto the scalar drive path.
* **Converter lanes are columns, word edges are scalar batches.**  Per live
  tile lane the plane holds the serialiser's shift register and output phit,
  the deserialiser's collected phits, pending-acknowledge count and
  committed pulse — the same packed integers the scalar
  :class:`~repro.core.data_converter.LaneSerializer` /
  :class:`~repro.core.data_converter.LaneDeserializer` keep (see that
  module's docstring).  A lane is live when a route starts or ends at it or
  its unit holds state at compile; a lane outside that set which a tile
  write arms, or which comes to owe a pulse, makes the plane flush and
  compile again with it inside.  One cycle shifts every live lane at once,
  and a pass is skipped while its lanes are provably still: the shifters
  after the last loaded word has left, the deserialisers while none
  collects and every input is idle, the pulse pass while none is owed or
  high.  The deserialiser's previous phit is the tile-port crossbar register
  itself, so its toggles ride on that register's.  Only what happens once
  per *word* stays scalar, through the units' own word-edge methods and one
  batch per edge kind and cycle: loading a queued word when a shifter empties
  and the window counter allows it, returning credit when an acknowledge
  reaches a tile-port input lane, and delivering a reassembled word (receive
  queue, ``on_deliver``, the window-violation check).  A serialiser's next
  load attempt is known when it loads — ``phits_per_packet`` cycles later —
  so loads are kept in a cycle-keyed agenda instead of being searched for; a
  lane whose attempt finds nothing to send leaves the agenda until a tile
  write or an acknowledge re-arms it.  Tile-side calls (``send`` /
  ``receive`` / ``configure_*``) reach the plane through the dirty list; the
  acknowledge pulses a ``receive`` schedules wait in the scalar unit until
  the next drain moves them into the column.
* **Flush writes back the slots that moved.**  :meth:`flush` stores the
  registers (and in-plane wires) whose slot toggled since the last flush and
  the columns of every live lane into the scalar objects, so mid-packet
  ``run()`` boundaries, fault surgery and the conservation-based drain
  predicate see scalar-coherent state.  The datapath flushes at every
  ``sync`` and before it lets go of the members.

The plane runs inside the datapath's own ``evaluate`` and ``commit``, so
whether the members run their programs or the plane runs them in one batch,
the order against the stream endpoints the datapath runs is the same.  GT
slot wires are *not* vectorised: the TDMA router's per-slot table walk is
control flow, not a static gather, so ``schedule="vector"`` on a GT (or
packet, or clock-gated circuit) network runs its datapath without a plane
and :meth:`repro.noc.fabric.NocBase.schedule_report` says so.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common import SimulationError, toggle_count
from repro.core.header import VALID_MASK
from repro.energy.activity import LINK_TOGGLE_BITS, REG_TOGGLE_BITS, XBAR_TOGGLE_BITS

__all__ = ["VectorPlane", "MIN_BATCH_ROUTES"]

#: Widest packed lane state an ``int64`` column holds without touching the sign.
_COLUMN_BITS = 62

#: Live route-hops (configured crossbar routes summed over the members) from
#: which one NumPy batch beats the members running their own programs,
#: read off ``BENCH_kernel.json`` (every row records its ``live_routes``, every
#: rate is the best of three samples) and resident-worker pairs of its rows.
#: With 4 live routes (a 4×4 at one row, a 2×2 at two) batching runs at
#: 0.64–0.78× of the routers' own compiled cycles, full
#: load and paced alike; with 6 on two rows of a 3×3 at 1.23× (1.35× paced),
#: with 8 on two rows of a 4×4 at 1.10× / 1.31×, and 1.8× at 16.  One long
#: row is the soft spot: 6 or 7 hops on a single row batch at 0.82–0.91×, 8
#: break even, 10 and 12 win (1.09–1.25×).
MIN_BATCH_ROUTES = 6


class VectorPlane:
    """Columnar batch executor for the routers of one
    :class:`~repro.core.router.LaneDatapath`, which compiles it, runs its
    cycles and flushes it.

    Parameters
    ----------
    members:
        The datapath's routers.  All must share one lane geometry and have
        clock gating disabled (the gated commit path holds register values
        the columnar latch would overwrite), and a lane packet must fit an
        ``int64`` column.  Raises :class:`~repro.common.SimulationError`
        otherwise; the datapath then runs without a plane and records the
        message as its fallback reason.
    """

    def __init__(self, members: List[Any]) -> None:
        if not members:
            raise SimulationError("a vector plane needs at least one member")
        first = members[0]
        for member in members:
            if member.clock_gating:
                raise SimulationError(
                    f"vector plane member {member.name!r} uses clock gating; "
                    "the columnar latch only models the non-gated commit"
                )
            if (
                member.lanes_per_port != first.lanes_per_port
                or member.lane_width != first.lane_width
                or member.data_width != first.data_width
            ):
                raise SimulationError("vector plane members must share one lane geometry")
        width = first.lane_width
        phits = first.converter.serializers[0].phits_per_packet
        if max(phits * width, (phits - 1) * (width + 1)) > _COLUMN_BITS:
            raise SimulationError(
                f"a {phits}-phit packet of {width}-bit phits does not fit an int64 column"
            )
        self._members: List[Any] = list(members)
        self._r = len(members)
        self._l = first.lanes_per_port
        self._t = first.NUM_PORTS * first.lanes_per_port
        self._width = width
        self._phits = phits

        # Lane units, flat by converter lane index ``member * lanes + lane``.
        self._serializers = [s for m in members for s in m.converter.serializers]
        self._deserializers = [d for m in members for d in m.converter.deserializers]
        lanes = self._l
        self._lane_units = [
            [
                (index * lanes + lane, self._serializers[index * lanes + lane],
                 self._deserializers[index * lanes + lane])
                for lane in range(lanes)
            ]
            for index in range(self._r)
        ]
        self._phit_mask = (1 << width) - 1
        #: Bits of ``(collected << width) | phit`` that are set exactly when
        #: the lane was collecting or the phit is a valid header.
        self._sync_mask = ~self._phit_mask | VALID_MASK
        #: A collected value at or above this is a complete packet.
        self._packet_full = 1 << self._deserializers[0]._full_shift

        #: Members marked while batched: their tile lanes are drained next.
        self._dirty: Dict[Any, None] = {}
        #: The last batched commit latched no change, crossed no word edge
        #: and left every converter lane idle — the plane is at a fixed point.
        self._settled = False
        #: Batched commits not yet folded into the members' activity.
        self._batched = 0
        self._pending_link = [0] * self._r
        for index, member in enumerate(members):
            member._plane_index = index

    # -- the dirty list ------------------------------------------------------

    def _drain_dirty(self, cycle: int) -> None:
        """Take in the batched members dirtied since the previous drain: a
        tile access may have queued a word, replaced a window counter or
        scheduled acknowledge pulses on any of their lanes."""
        dirty = self._dirty
        self._dirty = {}
        self._settled = False
        armed = self._armed
        ser_slot = self._ser_slot
        des_slot = self._des_slot
        pending = self._pending
        outside = False
        for member in dirty:
            for lane, serializer, deserializer in self._lane_units[member._plane_index]:
                if serializer._queue and serializer.window.can_send():
                    slot = ser_slot[lane]
                    if slot < 0:
                        outside = True
                    elif not armed[slot]:
                        self._arm(slot, cycle)
                pulses = deserializer._pending_ack_pulses
                if pulses:
                    slot = des_slot[lane]
                    if slot < 0:
                        outside = True
                    else:
                        pending[slot] += pulses
                        deserializer._pending_ack_pulses = 0
                        self._pulsing = True
        if outside:
            # A lane no route touches came to life: compile again from the
            # scalar state, where a unit that holds state joins the live
            # set, and redo the gather of the cycle in flight in that layout.
            self.flush()
            self._compile(cycle)
            self._eval_batched()

    def _arm(self, slot: int, cycle: int) -> None:
        """Put the live serialiser *slot* on the load agenda for *cycle*."""
        self._armed[slot] = True
        self._load_at.setdefault(cycle, []).append(slot)

    # -- compilation -------------------------------------------------------

    def _compile(self, cycle: int) -> None:
        """Lay out the live set and load its columns for *cycle*.

        Requires coherent scalar state — the members last ran their own
        scalar path, or :meth:`flush` just stored the columns — so every
        internal wire equals its driver's committed register,
        ``_tx_previous`` mirrors the registers, every deserialiser's previous
        phit equals its tile-port crossbar register and a register no route
        drives is idle.
        """
        members = self._members
        lanes = self._l
        t = self._t

        # Where each link's driver register / reader ack register lives.
        tx_map: dict = {}
        rx_map: dict = {}
        ambiguous: set = set()
        for index, member in enumerate(members):
            base = index * t
            for port, link in enumerate(member._tx_by_port):
                if link is None:
                    continue
                key = id(link)
                if key in tx_map:
                    ambiguous.add(key)
                tx_map[key] = base + port * lanes
            for port, link in enumerate(member._rx_by_port):
                if link is None:
                    continue
                key = id(link)
                if key in rx_map:
                    ambiguous.add(key)
                rx_map[key] = base + port * lanes
        for key in ambiguous:
            # A link object attached at more than one port cannot be indexed
            # unambiguously; both endpoints take the scalar wire path, which
            # is always correct (and symmetric by construction).
            tx_map.pop(key, None)
            rx_map.pop(key, None)

        # The live set: every route, acknowledge fan-in and converter lane
        # at a route's end, tile port first, plus the lanes that hold state.
        #: (member index, output index, source index or None) per slot.
        tile_routes: List[Tuple[int, int, Optional[int]]] = []
        link_routes: List[Tuple[int, int, Optional[int]]] = []
        tile_fanins: List[Tuple[int, int, Tuple[int, ...]]] = []
        link_fanins: List[Tuple[int, int, Tuple[int, ...]]] = []
        #: Converter lane -> its column (-1 outside the live set); column -> lane.
        ser_slot = [-1] * (self._r * lanes)
        des_slot = [-1] * (self._r * lanes)
        ser_lanes: List[int] = []
        des_lanes: List[int] = []
        for index, member in enumerate(members):
            first = index * lanes
            for out_idx, route_src in member.crossbar.active_routes():
                if route_src < lanes and ser_slot[first + route_src] < 0:
                    ser_slot[first + route_src] = len(ser_lanes)
                    ser_lanes.append(first + route_src)
                if out_idx < lanes:
                    des_slot[first + out_idx] = len(des_lanes)
                    des_lanes.append(first + out_idx)
                    tile_routes.append((index, out_idx, route_src))
                else:
                    link_routes.append((index, out_idx, route_src))
            for in_idx, outs in member.crossbar.ack_fanins():
                (tile_fanins if in_idx < lanes else link_fanins).append((index, in_idx, outs))
        for lane, serializer in enumerate(self._serializers):
            if ser_slot[lane] < 0 and not serializer.quiescent:
                ser_slot[lane] = len(ser_lanes)
                ser_lanes.append(lane)
        for lane, deserializer in enumerate(self._deserializers):
            if des_slot[lane] < 0 and not deserializer.quiescent:
                # No route drives its register: a slot that keeps its value.
                des_slot[lane] = len(des_lanes)
                des_lanes.append(lane)
                tile_routes.append((lane // lanes, lane % lanes, None))
        routes = tile_routes + link_routes
        fanins = tile_fanins + link_fanins
        ser_units = [self._serializers[lane] for lane in ser_lanes]
        des_units = [self._deserializers[lane] for lane in des_lanes]

        m = len(routes)
        q = len(fanins)
        ser_base = m + q
        live = ser_base + len(ser_units)
        sentinel = live + len(des_units)
        data_at = {index * t + out_idx: slot for slot, (index, out_idx, _) in enumerate(routes)}
        ack_at = {index * t + in_idx: m + slot for slot, (index, in_idx, _) in enumerate(fanins)}
        constants: List[int] = []

        def constant(value: int) -> int:
            """A slot that holds *value* for good: the idle sentinel, or its own."""
            if not value:
                return sentinel
            constants.append(int(value))
            return sentinel + len(constants)

        def reads(slots: dict, register: int, committed: str) -> int:
            """The slot a read of another member's *register* gathers from."""
            slot = slots.get(register)
            if slot is None:  # no route drives it
                slot = constant(getattr(members[register // t].crossbar, committed)[register % t])
            return slot

        src: List[int] = []
        #: (gather position, wire list, lane) of sources read off a wire.
        foreign_srcs: List[Tuple[int, List[Any], int]] = []
        foreign_outs: List[Tuple[int, Any, int, Any, int, int]] = []
        foreign_ack_outs: List[Tuple[int, Any, int]] = []
        #: Per route / fan-in slot, what :meth:`flush` stores its value into.
        route_stores: List[Tuple[List[int], int, Any, int, List[int]]] = []
        ack_stores: List[Tuple[List[bool], int, Any, int]] = []
        internal: List[int] = []
        for slot, (index, out_idx, route_src) in enumerate(routes):
            member = members[index]
            if route_src is None:
                src.append(constant(member.crossbar.committed_data[out_idx]))
            elif route_src < lanes:
                src.append(ser_base + ser_slot[index * lanes + route_src])
            else:
                port, lane = divmod(route_src, lanes)
                rx = member._rx_by_port[port]
                if rx is None:
                    # Unattached port: the scalar snapshot keeps its preset
                    # idle value, which the sentinel reproduces.
                    src.append(sentinel)
                elif rx.dead or id(rx) not in tx_map:
                    src.append(sentinel)
                    foreign_srcs.append((slot, rx.forward, lane))
                else:
                    src.append(reads(data_at, tx_map[id(rx)] + lane, "committed_data"))
            wire = None
            port, lane = divmod(out_idx, lanes)
            if port:
                tx = member._tx_by_port[port]
                if tx is None:
                    pass
                elif tx.dead or id(tx) not in rx_map:
                    foreign_outs.append((slot, member, index, tx, lane, out_idx))
                else:
                    wire = tx
                    internal.append(slot)
            route_stores.append(
                (member.crossbar.committed_data, out_idx, wire, lane, member._tx_previous)
            )
        seg_starts: List[int] = []
        for slot, (index, in_idx, outs) in enumerate(fanins, m):
            member = members[index]
            seg_starts.append(len(src) - m)
            for out_idx in outs:
                port, lane = divmod(out_idx, lanes)
                if not port:
                    src.append(live + des_slot[index * lanes + lane])
                    continue
                tx = member._tx_by_port[port]
                if tx is None:
                    src.append(sentinel)
                elif tx.dead or id(tx) not in rx_map:
                    foreign_srcs.append((len(src), tx.ack, lane))
                    src.append(sentinel)
                else:
                    src.append(reads(ack_at, rx_map[id(tx)] + lane, "committed_acks"))
            wire = None
            port, lane = divmod(in_idx, lanes)
            if port:
                rx = member._rx_by_port[port]
                if rx is None:
                    pass
                elif rx.dead or id(rx) not in tx_map:
                    foreign_ack_outs.append((slot, rx, lane))
                else:
                    wire = rx
            ack_stores.append((member.crossbar.committed_acks, in_idx, wire, lane))

        self._m = m
        self._q = q
        self._src = np.array(src, dtype=np.intp)
        self._foreign_srcs = foreign_srcs
        self._foreign_outs = foreign_outs
        self._foreign_ack_outs = foreign_ack_outs
        self._route_stores = route_stores
        self._ack_stores = ack_stores
        self._internal = np.array(internal, dtype=np.intp)
        self._slot_member = np.array(
            [index for index, _, _ in routes]
            + [index for index, _, _ in fanins]
            + [lane // lanes for lane in ser_lanes],
            dtype=np.intp,
        )
        self._ser_slot = ser_slot
        self._des_slot = des_slot
        self._ser_units = ser_units
        self._des_units = des_units
        self._des_members = [members[lane // lanes] for lane in des_lanes]

        # The current-value vector: latched slots (routes, acknowledges,
        # serialiser outputs), then the deserialisers' acknowledge pulses,
        # the idle sentinel and the constants.
        self._cur = cur = np.array(
            [registers[idx] for registers, idx, _, _, _ in route_stores]
            + [registers[idx] for registers, idx, _, _ in ack_stores]
            + [unit._current_phit for unit in ser_units]
            + [unit._ack_pulse for unit in des_units]
            + [0]
            + constants,
            dtype=np.int64,
        )
        self._live = cur[:live]
        self._des_in = cur[: len(des_units)]
        self._pulse = cur[live:sentinel]
        self._next = self._live.copy()
        self._ser_next = self._next[ser_base:]
        #: Acknowledges arriving at the serialisers this cycle, and their columns.
        self._credits_in = self._next[m : m + len(tile_fanins)]
        self._credit_slot = [ser_slot[index * lanes + in_idx] for index, in_idx, _ in tile_fanins]
        if len(src) == ser_base:
            self._gathered = self._next[:ser_base]
            self._seg_starts = None
        else:
            # Some acknowledge register ORs several sources.
            self._gathered = np.zeros(len(src), dtype=np.int64)
            self._seg_starts = np.array(seg_starts, dtype=np.intp)
        self._xor = np.zeros(live, dtype=np.int64)
        self._tog8 = np.zeros(live, dtype=np.uint8)
        self._pending_tog = np.zeros(live, dtype=np.int64)

        # Import the converter lanes; the acknowledge pulses a unit still
        # owes move into the column (flush hands them back).
        self._shift = np.array([unit._remaining_phits for unit in ser_units], dtype=np.int64)
        self._acc = np.array([unit._collected for unit in des_units], dtype=np.int64)
        self._pending = np.array([unit._pending_ack_pulses for unit in des_units], dtype=np.int64)
        self._shifted = np.zeros(len(des_units), dtype=np.int64)
        self._keep = np.zeros(len(des_units), dtype=bool)
        self._full = np.zeros(len(des_units), dtype=bool)
        for unit in des_units:
            unit._pending_ack_pulses = 0
        #: Serialiser load agenda: cycle -> columns whose shifter is empty then.
        self._load_at: Dict[int, List[int]] = {}
        #: True while a column sits in the agenda.
        self._armed = [False] * len(ser_units)
        field = self._width + 1
        for slot, serializer in enumerate(ser_units):
            remaining = serializer._remaining_phits
            if remaining:
                # One marker-topped field per phit still in the shifter.
                self._arm(slot, cycle + remaining.bit_length() // field)
            elif serializer._queue and serializer.window.can_send():
                self._arm(slot, cycle)
        # Which converter passes have anything to do; the first commit finds out.
        self._shift_until = cycle + self._phits
        self._collecting = True
        self._pulsing = True

        self._batched = 0
        self._pending_link = [0] * self._r
        self._settled = False

    # -- one batched cycle -------------------------------------------------

    def _eval_batched(self) -> None:
        gathered = self._gathered
        self._cur.take(self._src, out=gathered, mode="clip")
        for position, wires, lane in self._foreign_srcs:
            gathered[position] = wires[lane]
        if self._seg_starts is not None:
            m = self._m
            self._next[:m] = gathered[:m]
            np.bitwise_or.reduceat(gathered[m:], self._seg_starts, out=self._next[m : m + self._q])

    def _commit_batched(self, cycle: int) -> None:
        # A word edge was crossed this cycle: not a fixed point.
        edges = False
        nxt = self._next
        ser_units = self._ser_units
        armed = self._armed

        # 1. Acknowledges reaching a serialiser return credit.
        if np.count_nonzero(self._credits_in):
            edges = True
            for position in self._credits_in.nonzero()[0].tolist():
                slot = self._credit_slot[position]
                serializer = ser_units[slot]
                serializer.acknowledge()
                if not armed[slot] and serializer._queue and serializer.window.can_send():
                    self._arm(slot, cycle)

        # 2. Serialisers: every shifter moves one phit; the columns the
        #    agenda names for this cycle are empty and try to load the next
        #    word.  Nothing shifts once the last loaded word has left.
        if cycle <= self._shift_until:
            shift = self._shift
            np.bitwise_and(shift, self._phit_mask, out=self._ser_next)
            np.right_shift(shift, self._width + 1, out=shift)
        due = self._load_at.pop(cycle, None)
        if due is not None:
            edges = True
            loaded: List[int] = []
            heads: List[int] = []
            rests: List[int] = []
            for slot in due:
                serializer = ser_units[slot]
                if serializer._queue and serializer.window.can_send():
                    head, rest = serializer.load_word()
                    loaded.append(slot)
                    heads.append(head)
                    rests.append(rest)
                else:
                    armed[slot] = False
            if loaded:
                self._ser_next[loaded] = heads
                self._shift[loaded] = rests
                self._shift_until = cycle + self._phits
                self._load_at.setdefault(self._shift_until, []).extend(loaded)

        # 3. The latch: crossbar outputs, acknowledges and serialiser
        #    outputs count their toggles and take their next value.
        xor = self._xor
        np.bitwise_xor(nxt, self._live, out=xor)
        np.bitwise_count(xor, out=self._tog8)
        np.add(self._pending_tog, self._tog8, out=self._pending_tog)
        np.copyto(self._live, nxt)

        # 4. Deserialisers: shift the freshly latched tile-port phit in where
        #    a lane is collecting or the phit is a valid header; a complete
        #    packet is delivered to the tile.
        if self._collecting or np.count_nonzero(self._des_in):
            acc = self._acc
            shifted = self._shifted
            np.left_shift(acc, self._width, out=shifted)
            np.bitwise_or(shifted, self._des_in, out=shifted)
            np.bitwise_and(shifted, self._sync_mask, out=acc)
            np.not_equal(acc, 0, out=self._keep)
            np.multiply(shifted, self._keep, out=acc)
            np.greater_equal(acc, self._packet_full, out=self._full)
            if np.count_nonzero(self._full):
                edges = True
                complete = self._full.nonzero()[0]
                packets = acc[complete].tolist()
                acc[complete] = 0
                des_units = self._des_units
                for slot, packet in zip(complete.tolist(), packets):
                    des_units[slot].deliver(packet, cycle)
            self._collecting = np.count_nonzero(acc) != 0

        # 5. Acknowledge pulses: at most one per lane and cycle.
        if self._pulsing:
            pending = self._pending
            np.greater(pending, 0, out=self._pulse)
            np.subtract(pending, self._pulse, out=pending)
            self._pulsing = np.count_nonzero(self._pulse) != 0

        if self._foreign_outs:
            width = self._width
            pending_link = self._pending_link
            for slot, member, index, link, lane, idx in self._foreign_outs:
                value = int(nxt[slot])
                previous = member._tx_previous[idx]
                if value != previous:
                    pending_link[index] += toggle_count(previous, value, width)
                    member._tx_previous[idx] = value
                    link.drive_forward(lane, value)
        for slot, link, lane in self._foreign_ack_outs:
            value = bool(nxt[slot])
            if link.ack[lane] != value:
                link.drive_ack(lane, value)
        self._batched += 1
        self._settled = not (
            edges
            or self._load_at
            or self._collecting
            or self._pulsing
            or np.count_nonzero(xor)
        )

    # -- flush -------------------------------------------------------------

    def flush(self) -> None:
        """Fold the batched state back into the scalar component objects.

        The datapath calls it at every ``sync`` — at the end of every
        ``run``/``step`` — so external readers (benchmarks, equivalence
        tests, the sharded aggregation) always observe scalar-coherent
        registers, wires, converter lanes and activity counters, and before
        it lets go of the members.  Idempotent.  The members' constant
        per-cycle accounting is not owed here: the datapath books it like any
        parked member's.
        """
        if self._batched:
            self._fold_batches()
        # Even with nothing batched a drain may have moved owed acknowledge
        # pulses into the column since the last export.
        self._export_lanes()

    def _fold_batches(self) -> None:
        """Account the batched toggles; store the registers and wires that moved."""
        members = self._members
        r = self._r
        m = self._m
        q = self._q
        tog = self._pending_tog
        member_of = self._slot_member
        tile_outs = len(self._des_units)
        xbar_tog = np.bincount(member_of[:m], weights=tog[:m], minlength=r)
        # Register toggles are every slot's (crossbar outputs, acknowledge
        # flips, serialiser outputs) plus, once more, the tile-port
        # outputs': each deserialiser's previous-phit register follows its
        # tile-port crossbar register.
        reg_tog = np.bincount(member_of, weights=tog, minlength=r) + np.bincount(
            member_of[:tile_outs], weights=tog[:tile_outs], minlength=r
        )
        link_tog = np.bincount(
            member_of[self._internal], weights=tog[self._internal], minlength=r
        )
        reg_toggles = reg_tog.astype(np.int64).tolist()
        xbar_toggles = xbar_tog.astype(np.int64).tolist()
        link_toggles = link_tog.astype(np.int64).tolist()
        pending_link = self._pending_link
        # A member none of whose registers toggled moved no foreign wire either.
        for index in np.flatnonzero(reg_tog).tolist():
            counts = members[index].activity.slots
            if xbar_toggles[index]:
                counts[XBAR_TOGGLE_BITS] += xbar_toggles[index]
            counts[REG_TOGGLE_BITS] += reg_toggles[index]
            toggles = pending_link[index] + link_toggles[index]
            if toggles:
                counts[LINK_TOGGLE_BITS] += toggles
                pending_link[index] = 0
        # A slot that counted no toggle still holds what its register does.
        values = self._live.tolist()
        route_stores = self._route_stores
        for slot in np.flatnonzero(tog[:m]).tolist():
            registers, idx, link, lane, tx_previous = route_stores[slot]
            registers[idx] = value = values[slot]
            if link is not None:
                link.sync_forward_silent(lane, value)
                tx_previous[idx] = value
        ack_stores = self._ack_stores
        for slot in np.flatnonzero(tog[m : m + q]).tolist():
            registers, idx, link, lane = ack_stores[slot]
            registers[idx] = value = values[m + slot] != 0
            if link is not None:
                link.sync_ack_silent(lane, value)
        tog.fill(0)
        self._batched = 0

    def _export_lanes(self) -> None:
        """Store the converter columns into the scalar lane units.

        Acknowledge pulses still owed go back to the unit that scheduled
        them; marking the member dirty makes the next drain pick them up
        again.
        """
        outputs = self._live[self._m + self._q :].tolist()
        for serializer, remaining, phit in zip(self._ser_units, self._shift.tolist(), outputs):
            serializer._remaining_phits = remaining
            serializer._current_phit = phit
        pending = self._pending
        columns = zip(
            self._des_units,
            self._des_members,
            self._acc.tolist(),
            self._des_in.tolist(),
            self._pulse.tolist(),
            pending.tolist(),
        )
        for deserializer, member, collected, phit, pulse, owed in columns:
            deserializer._collected = collected
            deserializer._previous_phit = phit
            deserializer._ack_pulse = pulse != 0
            if owed:
                deserializer._pending_ack_pulses += owed
                self._dirty[member] = None
        pending.fill(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VectorPlane members={self._r}>"
