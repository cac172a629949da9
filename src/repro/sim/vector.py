"""The columnar fast path: a struct-of-arrays wire plane for busy fabrics.

Every prior scheduling tier (quiescence wakes, timed leaps, the event heap,
sharding) attacks *idle* cost; a fully loaded fabric still pays a pure-Python
per-component loop on every busy cycle.  The :class:`VectorPlane` flattens
that loop: all crossbar output/acknowledge registers of a whole
circuit-switched fabric, and the network side of every data converter, live
in preallocated NumPy arrays, and one busy cycle becomes a fixed handful of
gathers, shifts, XORs and popcounts instead of N×routers Python calls.

How it stays bit-identical to the strict reference schedule:

* **Compiled gather per configuration version.**  The active routes of every
  member crossbar (:meth:`repro.core.crossbar.Crossbar.active_routes` /
  :meth:`~repro.core.crossbar.Crossbar.ack_fanins`) compile into flat index
  arrays: ``next_vals = data[src_idx]`` replays exactly the scalar
  evaluate-phase sampling, because an internal lane wire always equals the
  driving router's committed register (the scalar commit drives the wire on
  every register change).  Serialiser output registers and deserialiser
  acknowledge pulses occupy slots of the same two arrays, so a tile-port
  lane is an ordinary gather source.  A sentinel slot pinned to the idle
  value stands in for constant sources (unattached ports); *foreign* wires
  (shard boundaries, dead links) are patched scalar per cycle.
* **Vectorised activity accounting.**  Register/crossbar toggles come from
  ``popcount(xor(new, old))`` (:func:`numpy.bitwise_count`), which equals the
  scalar ``int.bit_count`` path exactly; acknowledge flips count one bit
  each; per-member sums are deferred in columnar accumulators and folded into
  the scalar :class:`~repro.energy.activity.ActivityCounters` at
  :meth:`flush` time, so the per-router totals match the strict schedule
  ULP-exactly (they are integer sums either way).  Without clock gating
  every register clocks on every cycle, so the clocked-bit count is the
  members' own constant ``idle_tick``: batched members are *parked* in the
  kernel (:meth:`repro.sim.engine.SimulationKernel.park`), which pays that
  accounting like any sleeper's when they wake or at ``sync``.
* **Self-gating on live routes.**  One batched cycle costs a fixed two
  dozen NumPy calls however few lanes move, so the plane batches only when
  the configured routes of its members (:attr:`VectorPlane.live_routes`,
  counted once per configuration change) reach :data:`MIN_BATCH_ROUTES`.
  Below that the members are ordinary components of the kernel's event
  schedule — the plane itself sleeps — so a small or idle fabric costs
  exactly what it costs under ``schedule="event"``.  The gate reads a
  property of the input, not a parameter.
* **Version guards and the scalar cycle.**  While the plane batches, a
  member's dirty-bit wake (a tile write, a boundary-frame drive) goes to
  the plane's dirty list instead of the kernel
  (:attr:`repro.sim.engine.ClockedComponent._batch_plane`).  A
  configuration write (the plane hooks every member's
  ``ConfigurationMemory.on_change``) *releases* the members: the plane
  flushes its arrays back into the scalar objects and wakes every member,
  so the kernel runs their own ``evaluate``/``commit`` for one cycle — each
  router sweeps its registers and wires once for the new version, exactly
  as under the event schedule.  At the end of that cycle the plane re-reads
  the gate; at or above it, it parks the members again in the next gap
  between two cycles (:meth:`repro.sim.engine.SimulationKernel.defer`) and
  recompiles.  Fault injection calls :meth:`desync` *before* wires die, so
  in-flight drop counts read true wire state and dead bundles reclassify
  onto the scalar drive path.
* **Converter lanes are columns, word edges are scalar.**  Per (member, tile
  lane) the plane holds the serialiser's shift register and output phit, the
  deserialiser's collected phits, pending-acknowledge count and committed
  pulse — the same packed integers the scalar
  :class:`~repro.core.data_converter.LaneSerializer` /
  :class:`~repro.core.data_converter.LaneDeserializer` keep (see that
  module's docstring).  One cycle shifts every lane at once; the
  deserialiser's previous phit is the tile-port crossbar register itself, so
  its toggles ride on that register's.  Only what happens once per *word*
  stays scalar, through the units' own word-edge methods: loading a queued
  packet when a shifter empties and the window counter allows it, returning
  credit when an acknowledge reaches a tile-port input lane, and delivering
  a reassembled word (receive queue, ``on_deliver``, the window-violation
  check).  A serialiser's next load attempt is known when it loads —
  ``phits_per_packet`` cycles later — so loads are kept in a cycle-keyed
  agenda instead of being searched for; a lane whose attempt finds nothing
  to send leaves the agenda until a tile write or an acknowledge re-arms it.
  Tile-side calls (``send`` / ``receive`` / ``configure_*``) reach the plane
  through the dirty list; the acknowledge pulses a ``receive`` schedules wait
  in the scalar unit until the next drain moves them into the column.
* **Flush writes the lanes back.**  :meth:`flush` stores the columns of every
  lane that holds state (or held some at the previous flush) into the scalar
  units, so mid-packet ``run()`` boundaries, fault surgery, ``reset()`` and
  the conservation-based drain predicate see scalar-coherent lane state.

The plane registers with the kernel right after its member routers and
before any stream endpoint, so whether the members commit themselves or the
plane commits them in one batch, the registration-index ordering against the
endpoints — and therefore the commit-phase replay semantics of the event
schedule — is the same.  GT slot wires are *not* vectorised: the TDMA
router's per-slot table walk is control flow, not a static gather, so
``schedule="vector"`` on a GT (or packet, or clock-gated circuit) network
runs as ``schedule="event"`` and
:meth:`repro.noc.fabric.NocBase.schedule_report` says so.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common import SimulationError, toggle_count
from repro.core.header import VALID_MASK
from repro.energy.activity import ActivityKeys
from repro.sim.engine import ClockedComponent

__all__ = ["VectorPlane", "MIN_BATCH_ROUTES"]

#: Widest packed lane state an ``int64`` column holds without touching the sign.
_COLUMN_BITS = 62

#: Live route-hops (configured crossbar routes summed over the members) from
#: which one NumPy batch beats the kernel scheduling the members themselves.
#: ``BENCH_kernel.json`` brackets it from both sides.  Above: with 16 live
#: routes (4×4 at four rows, 8×8 at two rows) batching runs at 2.1–2.6× of
#: ``event`` at full load and 1.45× paced at load 0.1.  Below: with 2–4 live
#: routes (2×2 at one and two rows, 4×4 at one row, full load and paced) the
#: same file as recorded by PR 12, when the plane always batched, had it at
#: 0.71–0.99×.  No committed row sits between 4 and 16 live routes, so the
#: crossover is only known to lie in that interval and 8 is its middle in
#: powers of two; ROADMAP ("Smaller items") asks for the rows at 6 and 8.
MIN_BATCH_ROUTES = 8


class VectorPlane(ClockedComponent):
    """Columnar batch executor for a set of circuit-switched routers.

    Parameters
    ----------
    members:
        The routers to batch, in registration order; the caller registers
        them with the same kernel as the plane, ahead of it.  All must share
        one lane geometry and have clock gating disabled (the gated commit
        path holds register values the columnar latch would overwrite), and
        a lane packet must fit an ``int64`` column.  Raises
        :class:`~repro.common.SimulationError` otherwise; the network then
        runs without a plane and records the message as its fallback reason.
    name:
        Kernel component name (one plane per kernel).
    """

    #: Quiescence only: the plane generates no event of its own, so parking
    #: until a dirty-bit wake is all the timed protocol could add.
    supports_quiescence = True

    def __init__(self, members: List[Any], name: str = "vector_plane") -> None:
        super().__init__(name)
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
        self._n = self._r * self._t
        self._c = self._r * self._l
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

        # Scheduling state ------------------------------------------------
        #: Members woken while batched (parked in the kernel, this plane
        #: their ``_batch_plane``); otherwise the kernel schedules them.
        self._dirty: List[Any] = []
        self._compiled = False
        #: A member's configuration was written (:meth:`_config_written`)
        #: since this plane last evaluated: the members must run a cycle of
        #: their own (sweeping registers and wires for the new version)
        #: before the gate is read and the gather recompiled.
        self._structural = True
        #: That cycle is in flight; :meth:`commit` reads the gate.
        self._sweeping = False
        #: :meth:`_take_over` is queued for the next gap between two cycles.
        self._taking_over = False
        #: Configured routes over all members as counted after the last
        #: swept cycle (``None`` before the first); the gate compares it
        #: with :data:`MIN_BATCH_ROUTES`.
        self.live_routes: Optional[int] = None
        #: Simulated cycles the members spent on the kernel's own schedule,
        #: up to the last takeover (see :attr:`scalar_cycles`).
        self._scalar_cycles = 0
        self._released_at = 0
        #: The last batched commit latched no change, crossed no word edge
        #: and left every converter lane idle — the plane is at a fixed point
        #: and may park.
        self._settled = False
        #: Batched commits not yet folded into the members' activity.
        self._batched = 0
        self._pending_link = [0] * self._r

        for index, member in enumerate(members):
            member._plane_index = index
            member._plane_pending = False
            # Configuration writes reach the plane first, then wake the
            # router as its own hook did.
            member.config.on_change = partial(self._config_written, member)

        # Register columns: crossbar registers, the idle sentinel, then one
        # slot per converter lane (serialiser output phit / acknowledge pulse).
        n, c = self._n, self._c
        self._data = np.zeros(n + 1 + c, dtype=np.int64)
        self._acks = np.zeros(n + 1 + c, dtype=bool)
        self._ser_out = self._data[n + 1 :]
        self._pulse = self._acks[n + 1 :].reshape(self._r, lanes)
        #: What every deserialiser sees: its tile-port crossbar output register.
        self._des_in = self._data[:n].reshape(self._r, self._t)[:, :lanes]
        # Converter lane columns.
        self._ser_shift = np.zeros(c, dtype=np.int64)
        self._des_acc = np.zeros((self._r, lanes), dtype=np.int64)
        self._des_acc_flat = self._des_acc.reshape(-1)
        self._des_pending = np.zeros((self._r, lanes), dtype=np.int64)
        self._des_pending_flat = self._des_pending.reshape(-1)
        self._des_shifted = np.zeros((self._r, lanes), dtype=np.int64)
        self._des_keep = np.zeros((self._r, lanes), dtype=bool)
        self._des_full = np.zeros((self._r, lanes), dtype=bool)
        self._des_full_flat = self._des_full.reshape(-1)
        #: Serialiser load agenda: cycle -> lanes whose shifter is empty then.
        self._load_at: Dict[int, List[int]] = {}
        #: True while a lane sits in the agenda.
        self._armed = [False] * c
        #: Lanes whose scalar units hold non-idle lane state from the last flush.
        self._ser_exported: set = set()
        self._des_exported: set = set()
        self._m = 0
        self._q = 0

    # -- wake plumbing -----------------------------------------------------

    def member_dirty(self, member: Any) -> None:
        """A batched member's input changed outside the plane's execution of
        it (its :meth:`~repro.sim.engine.ClockedComponent.wake`, diverted
        here while ``member._batch_plane`` is this plane)."""
        if not member._plane_pending:
            member._plane_pending = True
            self._dirty.append(member)
            self.wake()

    def _config_written(self, member: Any) -> None:
        """*member*'s configuration memory changed (its ``on_change`` hook)."""
        self._structural = True
        self.wake()
        member.wake()

    def _drain_dirty(self, cycle: int) -> None:
        """Take in the batched members dirtied since the previous drain: a
        tile access may have queued a word, replaced a window counter or
        scheduled acknowledge pulses on any of their lanes."""
        dirty = self._dirty
        self._dirty = []
        self._settled = False
        armed = self._armed
        pending = self._des_pending_flat
        for member in dirty:
            member._plane_pending = False
            for lane, serializer, deserializer in self._lane_units[member._plane_index]:
                if not armed[lane] and serializer._queue and serializer.window.can_send():
                    self._arm(lane, cycle)
                pulses = deserializer._pending_ack_pulses
                if pulses:
                    pending[lane] += pulses
                    deserializer._pending_ack_pulses = 0

    def _arm(self, lane: int, cycle: int) -> None:
        """Put serialiser *lane* on the load agenda for *cycle*."""
        self._armed[lane] = True
        self._load_at.setdefault(cycle, []).append(lane)

    def desync(self) -> None:
        """Flush and drop the compiled gather (called before wire surgery).

        Fault injection reads and mutates wire state directly
        (:meth:`repro.core.lane.LaneLink.fail` counts in-flight phits), so
        a batching plane must first write its columnar state back and then
        recompile — the recompile reclassifies dead bundles onto the exact
        scalar drive path.  As after a configuration write, the members run
        one cycle of their own in between.  Released members hold no state
        here: the dying bundle wakes both ends itself.
        """
        if self._compiled:
            self._release()
            self._structural = True
            self.wake()

    def _release(self) -> None:
        """Leave the batched mode: scalar state coherent, every member awake
        on the kernel's schedule (which pays their deferred idle accounting)."""
        self.flush()
        self._compiled = False
        self._settled = False
        self._released_at = self._scheduler.cycle
        # What the dirty members were owed is in their scalar units again.
        for member in self._dirty:
            member._plane_pending = False
        self._dirty.clear()
        for member in self._members:
            member._batch_plane = None
            # The lanes moved in the columns, behind the sparse tick's hint.
            member.converter._sparse_idle = False
            member.wake()

    def _take_over(self) -> None:
        """Park the members and compile (deferred by :meth:`commit` to the
        gap before the next cycle, where the kernel allows parking)."""
        self._taking_over = False
        if self._structural:
            return  # written again since the swept cycle: evaluate starts over
        kernel = self._scheduler
        kernel.park(self._members)
        self._scalar_cycles += kernel.cycle - self._released_at
        self._compile(kernel.cycle)

    # -- compilation -------------------------------------------------------

    def _compile(self, cycle: int) -> None:
        """Build the route-index gather and load the columns for *cycle*.

        Requires coherent scalar state: the members last ran their own
        scalar path, so every internal wire equals its driver's committed
        register, ``_tx_previous`` mirrors the registers and every
        deserialiser's previous phit equals its tile-port crossbar register.
        """
        members = self._members
        for member in members:
            member._batch_plane = self
        lanes = self._l
        t = self._t
        sentinel = self._n
        lane_base = self._n + 1

        # Where each link's driver register / reader ack register lives.
        tx_map: dict = {}
        rx_map: dict = {}
        ambiguous: set = set()
        for index, member in enumerate(members):
            base = index * t
            for port, link in member._tx_links.items():
                if link is None:
                    continue
                key = id(link)
                if key in tx_map:
                    ambiguous.add(key)
                tx_map[key] = base + int(port) * lanes
            for port, link in member._rx_links.items():
                if link is None:
                    continue
                key = id(link)
                if key in rx_map:
                    ambiguous.add(key)
                rx_map[key] = base + int(port) * lanes
        for key in ambiguous:
            # A link object attached at more than one port cannot be indexed
            # unambiguously; both endpoints take the scalar wire path, which
            # is always correct (and symmetric by construction).
            tx_map.pop(key, None)
            rx_map.pop(key, None)

        src_idx: List[int] = []
        dst_idx: List[int] = []
        route_member: List[int] = []
        internal_pos: List[int] = []
        tile_out_pos: List[int] = []
        foreign_srcs: List[Tuple[int, Any, int]] = []
        foreign_outs: List[Tuple[int, Any, int, Any, int, int]] = []
        wire_syncs: List[Tuple[int, Any, int, Any, int]] = []
        #: (member index, input lane index, fed output indices); tile-port
        #: input lanes are emitted first so their acknowledges are a slice.
        tile_fanins: List[Tuple[int, int, Tuple[int, ...]]] = []
        link_fanins: List[Tuple[int, int, Tuple[int, ...]]] = []

        for index, member in enumerate(members):
            base = index * t
            for out_idx, route_src in member.crossbar.active_routes():
                mi = len(dst_idx)
                dst_idx.append(base + out_idx)
                route_member.append(index)
                if route_src < lanes:
                    src_idx.append(lane_base + index * lanes + route_src)
                else:
                    port = route_src // lanes
                    lane = route_src - port * lanes
                    rx = member._rx_links[port]
                    if rx is None:
                        # Unattached port: the scalar snapshot keeps its
                        # preset idle value, which the sentinel reproduces.
                        src_idx.append(sentinel)
                    elif rx.dead or id(rx) not in tx_map:
                        src_idx.append(sentinel)
                        foreign_srcs.append((mi, rx, lane))
                    else:
                        src_idx.append(tx_map[id(rx)] + lane)
                if out_idx < lanes:
                    tile_out_pos.append(mi)
                else:
                    port = out_idx // lanes
                    lane = out_idx - port * lanes
                    tx = member._tx_links[port]
                    if tx is None:
                        pass
                    elif tx.dead or id(tx) not in rx_map:
                        foreign_outs.append((mi, member, index, tx, lane, out_idx))
                    else:
                        internal_pos.append(mi)
                        wire_syncs.append((base + out_idx, tx, lane, member, out_idx))

            for in_idx, outs in member.crossbar.ack_fanins():
                (tile_fanins if in_idx < lanes else link_fanins).append((index, in_idx, outs))

        ack_src_idx: List[int] = []
        seg_starts: List[int] = []
        feed_dst_idx: List[int] = []
        feed_member: List[int] = []
        foreign_ack_srcs: List[Tuple[int, Any, int]] = []
        foreign_ack_outs: List[Tuple[int, Any, int]] = []
        ack_wire_syncs: List[Tuple[int, Any, int]] = []
        for index, in_idx, outs in tile_fanins + link_fanins:
            member = members[index]
            base = index * t
            feed_dst_idx.append(base + in_idx)
            feed_member.append(index)
            seg_starts.append(len(ack_src_idx))
            for out_idx in outs:
                k = len(ack_src_idx)
                if out_idx < lanes:
                    ack_src_idx.append(lane_base + index * lanes + out_idx)
                else:
                    port = out_idx // lanes
                    lane = out_idx - port * lanes
                    tx = member._tx_links[port]
                    if tx is None:
                        ack_src_idx.append(sentinel)
                    elif tx.dead or id(tx) not in rx_map:
                        ack_src_idx.append(sentinel)
                        foreign_ack_srcs.append((k, tx, lane))
                    else:
                        ack_src_idx.append(rx_map[id(tx)] + lane)
            if in_idx >= lanes:
                port = in_idx // lanes
                lane = in_idx - port * lanes
                rx = member._rx_links[port]
                if rx is None:
                    pass
                elif rx.dead or id(rx) not in tx_map:
                    foreign_ack_outs.append((base + in_idx, rx, lane))
                else:
                    ack_wire_syncs.append((base + in_idx, rx, lane))

        m = len(dst_idx)
        q = len(feed_dst_idx)
        c = self._c
        self._m = m
        self._q = q
        self._src_idx = np.array(src_idx, dtype=np.intp)
        self._dst_idx = np.array(dst_idx, dtype=np.intp)
        self._route_member = np.array(route_member, dtype=np.intp)
        self._internal_pos = np.array(internal_pos, dtype=np.intp)
        self._tile_out_pos = np.array(tile_out_pos, dtype=np.intp)
        # Next/old register values: the routes first, then every serialiser
        # output, so one XOR/popcount pass accounts for both.
        self._next_vals = np.zeros(m + c, dtype=np.int64)
        self._route_next = self._next_vals[:m]
        self._ser_next = self._next_vals[m:]
        self._old_vals = np.zeros(m + c, dtype=np.int64)
        self._xor = np.zeros(m + c, dtype=np.int64)
        self._tog8 = np.zeros(m + c, dtype=np.uint8)
        self._pending_tog = np.zeros(m + c, dtype=np.int64)

        self._ack_src_idx = np.array(ack_src_idx, dtype=np.intp)
        self._seg_starts = np.array(seg_starts, dtype=np.intp)
        self._feed_dst_idx = np.array(feed_dst_idx, dtype=np.intp)
        self._feed_member = np.array(feed_member, dtype=np.intp)
        self._ack_gather = np.zeros(len(ack_src_idx), dtype=bool)
        self._next_acks = np.zeros(q, dtype=bool)
        self._old_acks = np.zeros(q, dtype=bool)
        self._flips = np.zeros(q, dtype=bool)
        self._pending_flips = np.zeros(q, dtype=np.int64)
        #: Acknowledges arriving at the serialisers this cycle, and their lanes.
        self._tile_acks_in = self._next_acks[: len(tile_fanins)]
        self._tile_ack_lane = [index * lanes + in_idx for index, in_idx, _ in tile_fanins]

        self._foreign_srcs = foreign_srcs
        self._foreign_outs = foreign_outs
        self._wire_syncs = wire_syncs
        self._foreign_ack_srcs = foreign_ack_srcs
        self._foreign_ack_outs = foreign_ack_outs
        self._ack_wire_syncs = ack_wire_syncs

        # Load the committed register state and reset the accumulators.
        data = self._data
        acks = self._acks
        for index, member in enumerate(members):
            base = index * t
            data[base : base + t] = member.crossbar.committed_data
            acks[base : base + t] = member.crossbar.committed_acks
        data[sentinel] = 0
        acks[sentinel] = False

        # Import the converter lanes; the acknowledge pulses a unit still
        # owes move into the column (flush hands them back).
        shift = self._ser_shift
        ser_out = self._ser_out
        field = self._width + 1
        self._load_at = {}
        self._armed = [False] * c
        self._ser_exported = set()
        self._des_exported = set()
        for lane, serializer in enumerate(self._serializers):
            remaining = serializer._remaining_phits
            shift[lane] = remaining
            ser_out[lane] = serializer._current_phit
            if remaining or serializer._current_phit:
                self._ser_exported.add(lane)
            if remaining:
                # One marker-topped field per phit still in the shifter.
                self._arm(lane, cycle + remaining.bit_length() // field)
            elif serializer._queue and serializer.window.can_send():
                self._arm(lane, cycle)
        acc = self._des_acc_flat
        pending = self._des_pending_flat
        pulse = self._acks[lane_base:]
        for lane, deserializer in enumerate(self._deserializers):
            if not deserializer.quiescent:
                self._des_exported.add(lane)
            acc[lane] = deserializer._collected
            pulse[lane] = deserializer._ack_pulse
            pending[lane] = deserializer._pending_ack_pulses
            deserializer._pending_ack_pulses = 0

        np.take(data, self._dst_idx, out=self._old_vals[:m])
        self._old_vals[m:] = ser_out
        np.take(acks, self._feed_dst_idx, out=self._old_acks)
        self._batched = 0
        self._pending_link = [0] * self._r
        self._settled = False
        self._compiled = True

    # -- two-phase execution ----------------------------------------------

    def evaluate(self, cycle: int) -> None:
        if self._structural:
            # The kernel runs this cycle on the members themselves.
            self._structural = False
            self._sweeping = True
            if self._compiled:
                self._release()
        if self._compiled:
            if self._dirty:
                self._drain_dirty(cycle)
            self._eval_batched()

    def _count_routes(self) -> int:
        return sum(len(member.crossbar.active_routes()) for member in self._members)

    @property
    def scalar_cycles(self) -> int:
        """Simulated cycles the members spent on the kernel's event schedule
        (slept-through ones included), not batched here."""
        total = self._scalar_cycles
        if not self._compiled and self._scheduler is not None:
            total += self._scheduler.cycle - self._released_at
        return total

    def gate_reason(self) -> Optional[str]:
        """Why the kernel, not this plane, runs the members right now
        (``None`` while the plane batches them)."""
        if self._compiled:
            return None
        routes = self.live_routes
        if routes is None:
            return "the live-route gate is read after the first cycle"
        if routes < MIN_BATCH_ROUTES:
            return f"below the live-route gate ({routes} live routes < {MIN_BATCH_ROUTES})"
        return "one cycle on the members themselves before the recompile"

    def _eval_batched(self) -> None:
        if self._m:
            self._data.take(self._src_idx, out=self._route_next, mode="clip")
            next_vals = self._route_next
            for mi, link, lane in self._foreign_srcs:
                next_vals[mi] = link.forward[lane]
        if self._q:
            self._acks.take(self._ack_src_idx, out=self._ack_gather, mode="clip")
            gather = self._ack_gather
            for k, link, lane in self._foreign_ack_srcs:
                gather[k] = link.ack[lane]
            np.logical_or.reduceat(gather, self._seg_starts, out=self._next_acks)

    def commit(self, cycle: int) -> None:
        if self._compiled:
            if self._dirty:
                # Dirtied after this plane evaluated (a driver's tile write
                # in the evaluate phase): still part of this cycle.
                self._drain_dirty(cycle)
            self._commit_batched(cycle)
        elif self._sweeping and not self._structural:
            # Every member whose configuration was written was awake for
            # this cycle (the write woke it) and has swept its registers and
            # wires for the new version.
            self._sweeping = False
            self.live_routes = self._count_routes()
            if self.live_routes >= MIN_BATCH_ROUTES:
                self._taking_over = True
                self._scheduler.defer(self._take_over)

    def _commit_batched(self, cycle: int) -> None:
        # A word edge was crossed this cycle: not a fixed point.
        edges = False
        ack_changed = False

        # 1. Acknowledge registers; pulses reaching a serialiser return credit.
        if self._q:
            next_acks = self._next_acks
            np.not_equal(next_acks, self._old_acks, out=self._flips)
            if np.count_nonzero(self._flips):
                ack_changed = True
                self._pending_flips += self._flips
                self._acks[self._feed_dst_idx] = next_acks
                np.copyto(self._old_acks, next_acks)
            if np.count_nonzero(self._tile_acks_in):
                edges = True
                armed = self._armed
                for position in self._tile_acks_in.nonzero()[0].tolist():
                    lane = self._tile_ack_lane[position]
                    serializer = self._serializers[lane]
                    serializer.acknowledge()
                    if not armed[lane] and serializer._queue and serializer.window.can_send():
                        self._arm(lane, cycle)

        # 2. Serialisers: every shifter moves one phit; the lanes the agenda
        #    names for this cycle are empty and try to load the next word.
        shift = self._ser_shift
        ser_next = self._ser_next
        np.bitwise_and(shift, self._phit_mask, out=ser_next)
        np.right_shift(shift, self._width + 1, out=shift)
        due = self._load_at.pop(cycle, None)
        if due is not None:
            edges = True
            reload_at = cycle + self._phits
            for lane in due:
                serializer = self._serializers[lane]
                if serializer._queue and serializer.window.can_send():
                    ser_next[lane], shift[lane] = serializer.load_word()
                    self._load_at.setdefault(reload_at, []).append(lane)
                else:
                    self._armed[lane] = False

        # 3. Data registers: crossbar outputs and serialiser outputs latch
        #    and count their toggles in one pass.
        next_vals = self._next_vals
        xor = self._xor
        np.bitwise_xor(next_vals, self._old_vals, out=xor)
        data_changed = np.count_nonzero(xor) != 0
        if data_changed:
            np.bitwise_count(xor, out=self._tog8)
            self._pending_tog += self._tog8
            self._data[self._dst_idx] = self._route_next
            self._ser_out[:] = ser_next
            np.copyto(self._old_vals, next_vals)

        # 4. Deserialisers: shift the freshly latched tile-port phit in where
        #    a lane is collecting or the phit is a valid header; a complete
        #    packet is delivered to the tile.
        acc = self._des_acc
        shifted = self._des_shifted
        np.left_shift(acc, self._width, out=shifted)
        np.bitwise_or(shifted, self._des_in, out=shifted)
        np.bitwise_and(shifted, self._sync_mask, out=acc)
        np.not_equal(acc, 0, out=self._des_keep)
        np.multiply(shifted, self._des_keep, out=acc)
        np.greater_equal(acc, self._packet_full, out=self._des_full)
        if np.count_nonzero(self._des_full):
            edges = True
            flat = self._des_acc_flat
            for lane in self._des_full_flat.nonzero()[0].tolist():
                packet = int(flat[lane])
                flat[lane] = 0
                self._deserializers[lane].deliver(packet, cycle)

        # 5. Acknowledge pulses: at most one per lane and cycle.
        pending = self._des_pending
        np.greater(pending, 0, out=self._pulse)
        np.subtract(pending, self._pulse, out=pending)

        if self._foreign_outs:
            width = self._width
            pending_link = self._pending_link
            for mi, member, index, link, lane, idx in self._foreign_outs:
                value = int(next_vals[mi])
                previous = member._tx_previous[idx]
                if value != previous:
                    pending_link[index] += toggle_count(previous, value, width)
                    member._tx_previous[idx] = value
                    link.drive_forward(lane, value)
        if self._foreign_ack_outs:
            acks = self._acks
            for g, link, lane in self._foreign_ack_outs:
                value = bool(acks[g])
                if link.ack[lane] != value:
                    link.drive_ack(lane, value)
        self._batched += 1
        self._settled = not (
            data_changed
            or ack_changed
            or edges
            or self._load_at
            or np.count_nonzero(acc)
            or np.count_nonzero(pending)
            or np.count_nonzero(self._pulse)
        )
        stats = self._scheduler.scheduler_stats
        stats.vector_batches += 1
        stats.vector_components += self._r

    # -- flush -------------------------------------------------------------

    def flush(self) -> None:
        """Fold the batched state back into the scalar component objects.

        Registered as a kernel sync hook, so it runs at the end of every
        ``run``/``step`` — external readers (benchmarks, equivalence tests,
        the sharded aggregation) always observe scalar-coherent registers,
        wires, converter lanes and activity counters.  Idempotent.  The
        members' constant per-cycle accounting is not owed here: the kernel
        pays it like any sleeper's.  Nothing to do while the members run
        themselves.
        """
        if not self._compiled:
            return
        if self._batched:
            self._fold_batches()
        # Even with nothing batched a drain may have moved owed acknowledge
        # pulses into the column since the last export.
        self._export_lanes()

    def _fold_batches(self) -> None:
        """Account the batched toggles and store registers and wires."""
        members = self._members
        r = self._r
        m = self._m
        route_tog = self._pending_tog[:m]
        route_member = self._route_member
        data_tog = np.bincount(route_member, weights=route_tog, minlength=r)
        link_tog = np.bincount(
            route_member[self._internal_pos],
            weights=route_tog[self._internal_pos],
            minlength=r,
        )
        # Register toggles beyond the crossbar's own: each deserialiser's
        # previous-phit register follows its tile-port crossbar register, and
        # every serialiser output register sits behind the routes.
        lane_tog = np.bincount(
            route_member[self._tile_out_pos],
            weights=route_tog[self._tile_out_pos],
            minlength=r,
        ) + self._pending_tog[m:].reshape(r, self._l).sum(axis=1)
        ack_tog = np.bincount(self._feed_member, weights=self._pending_flips, minlength=r)
        pending_link = self._pending_link
        for index, member in enumerate(members):
            activity = member.activity
            data_toggles = int(data_tog[index])
            reg_toggles = data_toggles + int(ack_tog[index]) + int(lane_tog[index])
            if data_toggles:
                activity.add(ActivityKeys.XBAR_TOGGLE_BITS, data_toggles)
            if reg_toggles:
                activity.add(ActivityKeys.REG_TOGGLE_BITS, reg_toggles)
            link_toggles = pending_link[index] + int(link_tog[index])
            if link_toggles:
                activity.add(ActivityKeys.LINK_TOGGLE_BITS, link_toggles)
            pending_link[index] = 0
        data = self._data
        acks = self._acks
        t = self._t
        for index, member in enumerate(members):
            base = index * t
            member.crossbar.committed_data[:] = data[base : base + t].tolist()
            member.crossbar.committed_acks[:] = acks[base : base + t].tolist()
        for dst_abs, link, lane, member, idx in self._wire_syncs:
            value = int(data[dst_abs])
            link.sync_forward_silent(lane, value)
            member._tx_previous[idx] = value
        for g, link, lane in self._ack_wire_syncs:
            link.sync_ack_silent(lane, bool(acks[g]))
        self._pending_tog[:] = 0
        self._pending_flips[:] = 0
        self._batched = 0

    def _export_lanes(self) -> None:
        """Store the converter columns into the scalar lane units.

        Only lanes that hold state now, or held some when last exported, can
        differ from their units.  Acknowledge pulses still owed go back to
        the unit that scheduled them; marking the member dirty makes the
        next drain pick them up again.
        """
        lanes = self._l
        shift = self._ser_shift
        ser_out = self._ser_out
        busy = set(np.flatnonzero(shift | ser_out).tolist())
        for lane in busy | self._ser_exported:
            serializer = self._serializers[lane]
            serializer._remaining_phits = int(shift[lane])
            serializer._current_phit = int(ser_out[lane])
        self._ser_exported = busy

        acc = self._des_acc_flat
        pending = self._des_pending_flat
        pulse = self._acks[self._n + 1 :]
        des_in = self._des_in
        busy = set(
            np.flatnonzero(self._des_acc | des_in | self._des_pending | self._pulse).tolist()
        )
        for lane in busy | self._des_exported:
            index, tile_lane = divmod(lane, lanes)
            deserializer = self._deserializers[lane]
            deserializer._collected = int(acc[lane])
            deserializer._previous_phit = int(des_in[index, tile_lane])
            deserializer._ack_pulse = bool(pulse[lane])
            owed = int(pending[lane])
            if owed:
                deserializer._pending_ack_pulses += owed
                pending[lane] = 0
                self.member_dirty(self._members[index])
        self._des_exported = busy

    # -- quiescence protocol -----------------------------------------------

    def quiescent(self) -> bool:
        """True when another cycle would latch nothing anywhere.

        Batching, that requires a settled batch: the previous batched commit
        latched no register change, flipped no acknowledge, crossed no word
        edge and left no converter lane mid-word or owing a pulse — so every
        gather source is provably frozen (a tile or foreign wire write would
        have landed in the dirty list).  With the members on the kernel's
        schedule the plane only waits for the next configuration write.
        """
        if self._dirty or self._structural or self._sweeping or self._taking_over:
            return False
        return self._settled or not self._compiled

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        """Nothing: the members' idle accounting is the kernel's, batched or not."""

    def reset(self) -> None:
        """Back to the state after construction (the kernel resets the members)."""
        self._compiled = False
        self._structural = True
        self._sweeping = False
        self._taking_over = False
        self.live_routes = None
        self._scalar_cycles = 0
        self._released_at = 0
        self._settled = False
        self._batched = 0
        self._pending_link = [0] * self._r
        self._dirty.clear()
        for member in self._members:
            member._batch_plane = None
            member._plane_pending = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VectorPlane {self.name!r} members={self._r} compiled={self._compiled}>"
