"""The reconfigurable circuit-switched router (Section 5, Fig. 4).

The router consists of the three major parts the paper names:

* the **data converter** between the 16-bit tile interface and the 4-bit
  lanes (:mod:`repro.core.data_converter`),
* the **crossbar** with registered output lanes (:mod:`repro.core.crossbar`),
* the **crossbar configuration** memory written through a small interface
  attached to the best-effort network (:mod:`repro.core.config_memory`,
  :mod:`repro.core.configuration`).

A router's cycle is one compiled *route program*.  Per configuration version
(and after a relink) the router compiles the crossbar's active routes and
acknowledge fan-ins, together with the attached links, into flat records:
what each routed output register and each acknowledge register samples,
which wire each of them drives, and which data-converter lanes a route
touches.  A cycle first runs every walking router's sampling records into
the crossbar's next-state lists, then latches the routed registers, counts
their toggles and drives the wires of the ones that changed, books the
constant register bits and steps the data converter, which ticks only its
live lanes — exactly one cycle of latency per hop, as in the hardware.  The
first commit of every version is the dense sweep
(:meth:`repro.core.crossbar.Crossbar.commit` plus a drive of every attached
wire), which flushes lanes a reconfiguration stranded; after it only routed
registers can change.

The router is no kernel component.  One :class:`LaneDatapath` clocks every
router of a fabric, a shard region or a single-router bench, and runs the
stream endpoints feeding them: it walks the programs of the routers that can
move and parks the others, booking their constant per-cycle register bits in
one step when they move again or at ``sync``.  A wire change, a tile
``send`` / ``receive`` or a converter ``configure_*`` marks its router active
inside the datapath.  A configuration write or a relink inside a cycle
raises :class:`~repro.common.SimulationError`.

A configured circuit has no arbitration and no buffering, so once it is
set up it is a fixed-latency pipe: every register on it holds the source's
phit sequence one cycle later than the one before it.  Under
``schedule="vector"`` without clock gating the datapath therefore runs its
routers as *the pipe*: one delay line per route (:class:`_Line`), which
books a word once, when its source loads it — its delivery
``hops + phits - 1`` cycles on, its phits in one sequence every register's
toggles are read off — and replays the acknowledge pulses the same way
along the reverse path.  A cycle then handles only its events (a load, a
delivery, an acknowledge reaching a source, a driver's word), the kernel
leaps the cycles between them, and at ``sync`` or before the routers walk
again the lines write back exactly what the walk holds.  The routers a
route the pipe cannot lay is chained to walk beside it.  ``strict``
always walks, so every differential test compares the pipe against it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate, repeat
from operator import and_, rshift, xor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common import ConfigurationError, Port, SimulationError, bit_mask
from repro.core.config_memory import ConfigurationMemory, LaneConfig
from repro.core.configuration import ConfigurationCommand
from repro.core.crossbar import Crossbar
from repro.core.data_converter import DataConverter, LaneSerializer, TileInterface
from repro.core.header import VALID_MASK
from repro.core.lane import LaneLink
from repro.energy.activity import (
    LINK_TOGGLE_BITS, REG_CLOCKED_BITS, REG_GATED_BITS, REG_TOGGLE_BITS, XBAR_TOGGLE_BITS,
    ActivityCounters, ActivityKeys,
)
from repro.energy.area import CircuitSwitchedRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP, Technology
from repro.energy.timing import CircuitSwitchedTiming
from repro.sim.datapath import DatapathMember, FabricDatapath

__all__ = ["CircuitSwitchedRouter", "LaneDatapath"]

#: What :attr:`LaneDatapath._walk` holds outside its sample-to-latch span.
_NOT_WALKING: frozenset = frozenset()

#: The pipe's event kinds, in the order a cycle handles them: an acknowledge
#: reaches a source, a source's shifter empties, a word is delivered.
_ACK, _LOAD, _DELIVER = 0, 1, 2

#: Phits a line stores before it books and forgets the ones behind it.
_STORED_PHITS = 512


class CircuitSwitchedRouter(DatapathMember):
    """Bit- and cycle-accurate model of the paper's circuit-switched router.

    Parameters
    ----------
    name:
        Unique component name (e.g. ``"router_1_2"``).
    lanes_per_port / lane_width / data_width:
        Design parameters of Section 5.1; defaults are the published design
        point (four 4-bit lanes per link direction, 16-bit tile interface).
    position:
        Mesh coordinates of the router (used by the network substrate).
    clock_gating:
        Enables the lane-level clock gating the paper proposes as future work
        (Section 7.3); inactive lanes then stop contributing to the
        data-independent power offset.
    tech:
        Technology node used for the attached area/power models.
    """

    NUM_PORTS = 5

    def __init__(
        self,
        name: str,
        lanes_per_port: int = 4,
        lane_width: int = 4,
        data_width: int = 16,
        position: Tuple[int, int] = (0, 0),
        clock_gating: bool = False,
        tech: Technology = TSMC_130NM_LVHP,
    ) -> None:
        self.name = name
        self.lanes_per_port = lanes_per_port
        self.lane_width = lane_width
        self._lane_mask = bit_mask(lane_width)
        self.data_width = data_width
        self.position = position
        self.clock_gating = clock_gating
        self.tech = tech

        self.activity = ActivityCounters(name)
        self.config = ConfigurationMemory(self.NUM_PORTS, lanes_per_port)
        self.crossbar = Crossbar(self.config, lane_width, self.activity, f"{name}.crossbar")
        self.converter = DataConverter(
            lanes_per_port, lane_width, data_width, activity=self.activity
        )
        self.area_model = CircuitSwitchedRouterArea(
            self.NUM_PORTS, lanes_per_port, lane_width, data_width, tech
        )
        self.timing_model = CircuitSwitchedTiming(
            self.NUM_PORTS, lanes_per_port, lane_width, tech
        )

        # Flat per-lane working state, indexed by port * lanes_per_port + lane.
        total = self.NUM_PORTS * lanes_per_port
        self._total_lanes = total
        #: Last value driven onto each outgoing forward wire; link toggles
        #: count against it.
        self._tx_previous: list[int] = [0] * total
        # The attached links by port number (None at the tile port and at a
        # mesh edge).
        self._rx_by_port: List[Optional[LaneLink]] = [None] * self.NUM_PORTS
        self._tx_by_port: List[Optional[LaneLink]] = [None] * self.NUM_PORTS
        # The crossbar's registers and next-state lists, which the route
        # program reads and writes in place.
        self._out_data = self.crossbar.committed_data
        self._ack_out = self.crossbar.committed_acks
        self._next_data = self.crossbar.next_data
        self._next_acks = self.crossbar.next_acks

        # The route program (see _compile), which the datapath walks.  The
        # sampling records: (output, serialiser), (output, rx forward wires,
        # lane); (input, deserialiser), (input, tx ack wires, lane) and
        # (input, deserialisers, (wires, lane) pairs) for an OR of several;
        # then the next-state lists they write.
        self._sample: tuple = ((), (), (), (), (), self._next_data, self._next_acks)
        # The latch: (register, the link it drives or None, lane) per routed
        # output and per latched acknowledge register, then what a commit
        # reads and books (_compile).
        self._latch: tuple = ()
        # Park records: the serialiser-fed outputs, and (input, (tx ack
        # wires, lane) pairs) of the fan-ins a commit may leave off their
        # inputs' fixed point (LaneDatapath.frozen).
        self._eval_tile: List[Tuple[int, LaneSerializer]] = []
        self._park_ack: List[Tuple[int, tuple]] = []
        #: The last commit latched a changed register bit.
        self._latched = True

    # -- wiring -------------------------------------------------------------------

    @property
    def tile(self) -> TileInterface:
        """The word-level tile interface of this router."""
        return self.converter.interface

    def _check_link(self, link: LaneLink) -> None:
        if link.num_lanes != self.lanes_per_port or link.lane_width != self.lane_width:
            raise ConfigurationError(
                f"link {link.name!r} geometry ({link.num_lanes}x{link.lane_width}) does "
                f"not match router {self.name!r} ({self.lanes_per_port}x{self.lane_width})"
            )

    # -- configuration ---------------------------------------------------------------

    def configure(self, out_port: Port, out_lane: int, in_port: Port, in_lane: int) -> None:
        """Connect ``in_port.in_lane`` to ``out_port.out_lane`` (direct CCN access)."""
        self._configuring()
        self.config.set_entry(out_port, out_lane, LaneConfig(True, Port(in_port), in_lane))
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def deconfigure(self, out_port: Port, out_lane: int) -> None:
        """Tear down the circuit using ``out_port.out_lane``."""
        self._configuring()
        self.config.set_entry(out_port, out_lane, None)
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def apply_command(self, command: ConfigurationCommand) -> None:
        """Apply a 10-bit configuration command received over the BE network."""
        self._configuring()
        command.apply(self.config)
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def _configuring(self) -> None:
        """Refuse a configuration write inside a cycle; before one, the
        datapath books this router's idle cycles under the old configuration."""
        datapath = self.datapath
        if datapath is not None:
            datapath.refuse_inside_cycle(f"configuration of router {self.name!r} written")
            datapath.mark(self)

    def active_circuits(self) -> int:
        """Number of active output lanes (concurrent streams through the router)."""
        return self.config.active_lane_count()

    # -- simulation ---------------------------------------------------------------------

    def _compile(self) -> None:
        """Compile the route program of the current configuration version.

        A routed output register samples a serialiser's phit, a forward wire
        or — behind an unattached port — the idle value, pinned here once; an
        acknowledge register ORs what is behind the outputs its input feeds.
        The routed registers latch, and the fan-in acknowledge registers —
        under clock gating those of the same *index* as a routed output
        instead (see :meth:`repro.core.crossbar.Crossbar.commit`).  Every
        other register holds what the sweep left in it.
        """
        crossbar = self.crossbar
        routes = crossbar.active_routes()
        fanins = crossbar.ack_fanins()
        lanes = self.lanes_per_port
        serializers = self.converter.serializers
        deserializers = self.converter.deserializers
        rx_of = self._rx_by_port
        tx_of = self._tx_by_port
        gated = self.clock_gating
        eval_tile = []
        eval_rx = []
        latch_data = []
        tx_lanes = []
        rx_lanes = []
        for out_idx, src_idx in routes:
            port, lane = divmod(src_idx, lanes)
            if not port:
                eval_tile.append((out_idx, serializers[lane]))
                tx_lanes.append(lane)
            elif rx_of[port] is not None:
                eval_rx.append((out_idx, rx_of[port].forward, lane))
            else:
                self._next_data[out_idx] = 0
            port, lane = divmod(out_idx, lanes)
            latch_data.append((out_idx, tx_of[port], lane))
            if not port:
                rx_lanes.append(lane)
        if gated:
            fed = {in_idx for in_idx, _outs in fanins}
            latched = [out_idx for out_idx, _src in routes if out_idx in fed]
        else:
            latched = [in_idx for in_idx, _outs in fanins]
        ack_tile = []
        ack_wire = []
        ack_any = []
        park_ack = []
        for in_idx, outs in fanins:
            pulses = []
            wires = []
            for out_idx in outs:
                port, lane = divmod(out_idx, lanes)
                if not port:
                    pulses.append(deserializers[lane])
                elif tx_of[port] is not None:
                    wires.append((tx_of[port].ack, lane))
            if len(pulses) + len(wires) > 1:
                ack_any.append((in_idx, tuple(pulses), tuple(wires)))
            elif pulses:
                ack_tile.append((in_idx, pulses[0]))
            elif wires:
                ack_wire.append((in_idx, *wires[0]))
            else:
                self._next_acks[in_idx] = False
            if pulses or (gated and in_idx not in latched):
                park_ack.append((in_idx, tuple(wires)))
        self._eval_tile = eval_tile
        self._park_ack = park_ack
        self._sample = (eval_tile, eval_rx, ack_tile, ack_wire, ack_any, self._next_data, self._next_acks)
        clocked_bits, gated_bits = crossbar.idle_cycle_bits(gated)
        self._latch = (
            latch_data, [(idx, rx_of[idx // lanes], idx % lanes) for idx in latched],
            self._out_data, self._next_data, self._ack_out, self._next_acks, self._tx_previous,
            self._lane_mask, self.activity.slots, clocked_bits, gated_bits, self.converter.tick, gated,
        )
        # The converter units whose inputs may be non-idle: tile lanes a
        # route starts or ends at, the tile lanes of the acknowledge
        # registers that latch and — under clock gating — those whose held
        # register is not idle.
        tx_lanes += [idx for idx in latched if idx < lanes]
        if gated:
            tx_lanes += [lane for lane in range(lanes) if self._ack_out[lane]]
            rx_lanes += [lane for lane in range(lanes) if self._out_data[lane]]
        self.converter.route_lanes(tx_lanes, rx_lanes)

    def _sweep(self, cycle: int) -> None:
        """The commit after a compile (a new configuration version, a relink,
        a fault, :meth:`reset`): latch every register and drive every
        attached wire, flushing lanes the configuration no longer drives."""
        self._latched = self.crossbar.commit(self.clock_gating)
        out_data = self._out_data
        ack_out = self._ack_out
        self.converter.tick(out_data, ack_out, cycle, self.clock_gating)
        lanes_per_port = self.lanes_per_port
        previous = self._tx_previous
        link_toggles = 0
        mask = self._lane_mask
        for port, tx_link in enumerate(self._tx_by_port):
            if tx_link is None:
                continue
            for lane in range(lanes_per_port):
                idx = port * lanes_per_port + lane
                value = out_data[idx]
                if value != previous[idx]:
                    link_toggles += ((previous[idx] ^ value) & mask).bit_count()
                    previous[idx] = value
                    tx_link.drive_forward(lane, value)
        if link_toggles:
            self.activity.slots[LINK_TOGGLE_BITS] += link_toggles
        for port, rx_link in enumerate(self._rx_by_port):
            if rx_link is None:
                continue
            link_ack = rx_link.ack
            for lane in range(lanes_per_port):
                value = ack_out[port * lanes_per_port + lane]
                if link_ack[lane] != value:
                    rx_link.drive_ack(lane, value)

    def reset(self) -> None:
        self.crossbar.reset()
        self.converter.reset()
        self.activity.reset()
        self._latched = True
        for idx in range(self._total_lanes):
            self._tx_previous[idx] = 0
        # Drive the attached wires back to idle.  The commit loop only
        # drives lanes whose register value changed, so a stale wire value
        # would otherwise survive a reset forever (the change-mirror
        # _tx_previous was just zeroed along with the registers).
        for tx_link, rx_link in zip(self._tx_by_port, self._rx_by_port):
            for lane in range(self.lanes_per_port):
                if tx_link is not None:
                    tx_link.drive_forward(lane, 0)
                if rx_link is not None:
                    rx_link.drive_ack(lane, False)

    # -- reporting -----------------------------------------------------------------------

    def power(self, frequency_hz: float, cycles: int | None = None) -> PowerBreakdown:
        """Estimate the router's average power over the recorded activity."""
        model = PowerModel(self.tech)
        return model.estimate(self.area_model, self.activity, frequency_hz, cycles)

    def max_frequency_mhz(self) -> float:
        """Maximum clock frequency of this router instance (Table 4)."""
        return self.timing_model.max_frequency_mhz()

    @property
    def total_area_mm2(self) -> float:
        """Silicon area of this router instance (Table 4)."""
        return self.area_model.total_mm2


class _MemberWireWatch:
    """What a change on a wire between two routers of a :class:`LaneDatapath`
    calls: a mark of the router that sees it, or the fault dispatch once the
    wire died."""

    __slots__ = ("datapath", "wire", "router")

    def __init__(self, datapath: "LaneDatapath", wire: LaneLink, router: CircuitSwitchedRouter) -> None:
        self.datapath, self.wire, self.router = datapath, wire, router

    def __call__(self) -> None:
        if self.wire.dead:
            self.datapath._member_wire_marked()
        else:
            self.datapath.mark(self.router)


class _Line:
    """One configured circuit under the pipe: a delay line from a source lane
    unit through the registers of its route to a sink lane unit.

    Every register on the line holds the source's phit sequence shifted by
    its position, so the line keeps that sequence once — :attr:`p`, one phit
    per source cycle from :attr:`base` on, idle after the last one stored —
    and the sink's acknowledge pulses once — :attr:`pulses` and their rising
    and falling :attr:`edges`.  An *observer* at offset ``o`` (the source
    unit at 0, the output register of hop ``k`` at ``k``, the sink unit at
    :attr:`d_off`) holds ``p[t - o]`` after the latch of cycle ``t``, and the
    acknowledge register of hop ``k`` the pulse of cycle ``t - (H - k + 1)``.
    A word is booked once, when the source loads it: its phits join the
    sequence and its delivery, ``d_off + phits - 1`` cycles on, joins the
    agenda; the sink is idle whenever a header reaches it, so the delivered
    packet is the loaded one.  :meth:`book` adds the toggles each observer
    saw since the last booking and :meth:`materialise` writes back what the
    walk would hold.

    The line starts from the walk's state after the latch of ``cycle - 1``:
    the registers and the source's shifter give the phits in flight, the
    sink's collected phits and the acknowledge registers the rest.  Its sink
    must be able to finish what it collects from phits already known
    (:attr:`misaligned` otherwise).
    """

    __slots__ = (
        "owner", "agenda", "seq", "src", "dst", "consumer", "regs", "s_wire", "d_wire", "s_off", "d_off",
        "span", "width", "phits", "mask", "shifts", "observers", "ack_observers", "base", "p", "cum",
        "s_free", "load_at", "booked", "deliveries", "pulses", "edges", "edges_dropped", "pulse_free",
        "owed", "misaligned",
    )

    def __init__(self, cycle, geometry, src, hops, dst, *, s_wire=None, d_wire=None, consumer=None,
                 s_late=False, d_late=False, head=0):
        self.src, self.dst, self.consumer, self.s_wire, self.d_wire = src, dst, consumer, s_wire, d_wire
        width, phits = self.width, self.phits = geometry
        #: Where each data phit sits in a data word, in the order it is sent.
        self.shifts = range((phits - 2) * width, -1, -width)
        self.mask = bit_mask(width)
        #: The cycle of the source's next look at its queue on the agenda.
        self.load_at = None
        depth = len(hops)
        # A bench endpoint adopted before its datapath joined a kernel acts
        # ahead of the routers: it drives the wire the cycle after its tick
        # (*s_late*) or ticks with what the wire held the cycle before (*d_late*).
        self.s_off = depth + s_late
        self.d_off = d_off = depth + d_late
        self.span = span = max(depth, d_off if dst is not None else 0)
        self.regs = []
        self.observers = [(0, src.activity.slots, None)] if src is not None else []
        self.ack_observers = []
        p = [0] * (span + 1)
        p[span] = src._current_phit if src is not None else head
        pulses = []
        for k, (router, out_idx, in_idx) in enumerate(hops, 1):
            lanes = router.lanes_per_port
            out_port, out_lane = divmod(out_idx, lanes)
            in_port, in_lane = divmod(in_idx, lanes)
            out_link = router._tx_by_port[out_port] if out_port else None
            self.regs.append((
                router._out_data, out_idx, out_link, out_lane, router._tx_previous,
                router._ack_out, in_idx, router._rx_by_port[in_port] if in_port else None, in_lane,
            ))
            slots = router.activity.slots
            self.observers.append((k, slots, out_link is not None))
            self.ack_observers.append((depth - k + 1, slots))
            p[span - k] = router._out_data[out_idx]
            if router._ack_out[in_idx]:
                pulses.append(cycle - 1 - (depth - k + 1))
        if dst is not None:
            self.observers.append((d_off, dst.activity.slots, None))
            p[span - d_off] = dst._previous_phit
            if dst._ack_pulse:
                pulses.append(cycle - 1)
        self.base = cycle - 1 - span
        if src is not None:
            remaining = src._remaining_phits
            while remaining:
                p.append(remaining & self.mask)
                remaining >>= width + 1
            self.s_free = self.base + len(p)
        self.p, self.cum, self.booked = p, [0], cycle
        self.pulses, self.edges, self.edges_dropped, self.pulse_free, self.owed = [], [], 0, cycle, 0
        for pulse in pulses:
            self._pulse(pulse)
        # What the sink delivers from the phits already in flight.
        self.deliveries = deque()
        self.misaligned = False
        if dst is not None:
            # The sink's ticks, as LaneDeserializer.tick collects, up to the
            # last stored phit — and on over idle ones without a source.
            collected, t, stored = dst._collected, cycle, self.base + len(p)
            while True:
                index = t - d_off
                if index < stored:
                    phit = p[index - self.base]
                elif not collected:
                    break
                elif src is not None:
                    self.misaligned = True  # the rest of the word is not sent yet
                    break
                else:
                    phit = 0
                if collected:
                    collected = (collected << width) | phit
                    if collected >> dst._full_shift:
                        self.deliveries.append((t, collected))
                        collected = 0
                elif phit & VALID_MASK:
                    collected = phit
                t += 1

    def start(self, owner: "LaneDatapath", agenda: list, seq) -> None:
        """Put the line's events on *agenda*: the source's next load, the
        deliveries and acknowledges in flight, the pulses the sink owes."""
        self.owner, self.agenda, self.seq = owner, agenda, seq
        cycle = self.booked
        if self.src is not None:
            if self.src._queue:
                self.load_at = self.s_free
                heappush(agenda, (self.s_free, _LOAD, next(seq), self))
            for pulse in self.pulses:
                if pulse + self.s_off >= cycle:
                    heappush(agenda, (pulse + self.s_off, _ACK, next(seq), self))
        for delivery in self.deliveries:
            heappush(agenda, (delivery[0], _DELIVER, next(seq), self))
        if self.dst is not None:
            self.take_pulses(cycle)

    # -- the word edges ------------------------------------------------------------------

    def load(self, cycle: int) -> None:
        """Offer the source's next queued word at *cycle*: it loads if the
        shifter is empty and the window allows, which books the word's phits
        and delivery; a word waiting behind a busy shifter is offered again
        when it empties, one held by the window when an acknowledge arrives."""
        src = self.src
        if not src._queue:
            return
        if self.s_free > cycle:
            if self.load_at != self.s_free:
                self.load_at = self.s_free
                heappush(self.agenda, (self.s_free, _LOAD, next(self.seq), self))
            return
        if not src.window.can_send():
            return
        encoded = src.take_word()
        head, data = encoded >> src.data_width, encoded & src._data_mask
        p = self.p
        gap = cycle - self.base - len(p)
        if gap > _STORED_PHITS:
            # A long idle stretch: book up to here and keep only idle phits behind the word.
            self.book(cycle)
            idle = self._tail()
            self.base = cycle - 1 - self.span
            self.p = p = [0] * (self.span + 1)
            self.cum = [idle] * (self.span + 1)
        elif gap:
            p.extend([0] * gap)
        p.append(head)
        p += map(and_, map(rshift, repeat(data), self.shifts), repeat(self.mask))
        self.s_free = end = cycle + self.phits
        if src._queue:
            self.load_at = end
            heappush(self.agenda, (end, _LOAD, next(self.seq), self))
        dst = self.dst
        if dst is not None:
            if not head & VALID_MASK:
                # The sink would not take this header: the routers walk from the next cycle.
                self.owner._pipe_check = True
                return
            arrival = end - 1 + self.d_off
            self.deliveries.append((arrival, (head << dst._header_shift) | data))
            heappush(self.agenda, (arrival, _DELIVER, next(self.seq), self))
        if len(p) > _STORED_PHITS:
            self.book(cycle)
            self._trim(cycle)

    def take_pulses(self, cycle: int) -> None:
        """Schedule the acknowledge pulses a read queued at the sink since the
        last look, the first at *cycle*: one per cycle, after those owed."""
        dst = self.dst
        count = dst._pending_ack_pulses - self.owed
        if count > 0:
            dst._pending_ack_pulses = self.owed
            for _ in range(count):
                pulse = self._pulse(max(cycle, self.pulse_free))
                if self.src is not None:
                    heappush(self.agenda, (pulse + self.s_off, _ACK, next(self.seq), self))

    def _pulse(self, cycle: int) -> int:
        self.pulses.append(cycle)
        edges = self.edges
        if edges and edges[-1] == cycle:
            edges[-1] = cycle + 1
        else:
            edges += (cycle, cycle + 1)
        self.pulse_free = cycle + 1
        return cycle

    # -- booking and write-back ---------------------------------------------------------

    def _tail(self) -> int:
        """The cumulative toggle count from the last stored phit on (every later one is idle)."""
        p, cum = self.p, self.cum
        done = len(cum)
        if done < len(p):
            cum += accumulate(map(int.bit_count, map(xor, p[done - 1 :], p[done:])), initial=cum.pop())
        return cum[-1] + p[-1].bit_count()

    def book(self, cycle: int) -> None:
        """Book the toggles every observer saw up to the latch of ``cycle - 1``."""
        start = self.booked
        if cycle <= start:
            return
        tail = self._tail()
        cum, last = self.cum, len(self.p) - 1
        for offset, slots, link in self.observers:
            now = cycle - 1 - offset - self.base
            then = start - 1 - offset - self.base
            bits = (cum[now] if now <= last else tail) - (cum[then] if then <= last else tail)
            if bits:
                if link is not None:  # a crossbar output register
                    slots[XBAR_TOGGLE_BITS] += bits
                    if link:
                        slots[LINK_TOGGLE_BITS] += bits
                slots[REG_TOGGLE_BITS] += bits
        edges = self.edges
        if edges:
            for delay, slots in self.ack_observers:
                bits = bisect_right(edges, cycle - 1 - delay) - bisect_right(edges, start - 1 - delay)
                if bits:
                    slots[REG_TOGGLE_BITS] += bits
        self.booked = cycle

    def materialise(self, cycle: int) -> None:
        """Book and write back what the walk holds after the latch of ``cycle - 1``:
        registers, wires, the shifter, the collected phits and the pulses."""
        dst = self.dst
        if dst is not None:
            self.take_pulses(cycle)
        self.book(cycle)
        p, base, last, width = self.p, self.base, cycle - 1, self.width
        stored = len(p)

        def at(index: int) -> int:
            index -= base
            return p[index] if index < stored else 0

        edges, dropped, depth = self.edges, self.edges_dropped, len(self.regs)
        for k, (data, out_idx, out_link, out_lane, previous, acks, in_idx, in_link, in_lane) in enumerate(
            self.regs, 1
        ):
            data[out_idx] = value = at(last - k)
            if out_link is not None:
                previous[out_idx] = value
                if not out_link.dead:
                    out_link.forward[out_lane] = value
            acks[in_idx] = high = (dropped + bisect_right(edges, last - (depth - k + 1))) % 2 == 1
            if in_link is not None and not in_link.dead:
                in_link.ack[in_lane] = high
        src = self.src
        if src is not None:
            src._current_phit = at(last)
            remaining, marker = 0, 1 << width
            for index in range(self.s_free - 1, last, -1):
                remaining = (remaining << (width + 1)) | marker | at(index)
            src._remaining_phits = remaining
            if self.s_wire is not None:
                link, lane = self.s_wire
                if not link.dead:
                    link.forward[lane] = src._current_phit
        if dst is not None:
            dst._previous_phit = at(last - self.d_off)
            collected = 0
            if self.deliveries:
                arrival, packet = self.deliveries[0]
                if arrival - self.phits < last:
                    collected = packet >> ((arrival - last) * width)
            dst._collected = collected
            dst._ack_pulse = pulse = (dropped + bisect_right(edges, last)) % 2 == 1
            pulses = self.pulses
            dst._pending_ack_pulses = self.owed = len(pulses) - bisect_left(pulses, cycle)
            if self.d_wire is not None:
                link, lane = self.d_wire
                if not link.dead:
                    link.ack[lane] = pulse
        self._trim(cycle)

    def _trim(self, cycle: int) -> None:
        """Forget the phits, pulses and edges no observer reads again."""
        cut = cycle - 1 - self.span - self.base
        if cut >= len(self.p):
            self.p, self.cum, self.base = [0], [self._tail()], cycle - 1 - self.span
        elif cut > 0:
            del self.p[:cut]
            del self.cum[:cut]
            self.base += cut
        del self.pulses[: bisect_left(self.pulses, cycle)]
        cut = bisect_right(self.edges, cycle - 2 - len(self.regs))
        if cut:
            del self.edges[:cut]
            self.edges_dropped += cut


class LaneDatapath(FabricDatapath):
    """Clocks a set of :class:`CircuitSwitchedRouter` objects as one component.

    A cycle is one :meth:`commit`: the early drivers fire, the routers that
    can move (:attr:`_next`) sample their inputs, the late drivers fire,
    then every one of them latches.  A router whose latch leaves it frozen
    (:meth:`frozen`) is parked in :attr:`_parked` with the first cycle whose
    constant register bits it owes; a mark (:meth:`mark`) books them and
    puts it back on the walk — of the cycle in flight when it comes before
    the sampling walk or between the walk and the latch (joining with the
    next state it sampled last, which nothing has changed since), of the
    next cycle from the latch on — and ``sync`` books them for every parked
    router (:meth:`settle`).  A wire between two routers marks its reader on
    a forward change and its writer on an acknowledge change, and checks for
    a fault; a wire to the outside marks its router, as do the tile
    interfaces and configuration writes.

    **The pipe** (the skeleton's protocol, :meth:`FabricDatapath._lay_pipe`).
    Under ``schedule="vector"`` without clock gating the end of the first
    commit, and of one after a configuration write, a relink, a fault or an
    endpoint's adoption or release, lays the *lines* (:class:`_Line`): every
    configured route from a serialiser (a tile lane's or an adopted
    :class:`~repro.core.testbench.CircuitLinkDriver`'s) to a deserialiser
    (a tile lane's or an adopted :class:`~repro.core.testbench.CircuitLinkSink`'s)
    or to nowhere, and every unit off a route that holds state.  Every router
    is then parked and every endpoint unit rests; a cycle handles only the
    agenda's events — an acknowledge reaching a source, a shifter emptying,
    a delivery — and the loads the drivers' and tiles' writes make possible.
    A route with a multicast acknowledge fan-in, one that reads or drives a
    wire to the outside no adopted endpoint stands behind (a shard boundary)
    and one across a dead wire keep the routers it joins by routes on the
    walk (:attr:`_walkers`, with the endpoints on their wires), beside the
    lines of the rest; when that is every router, all walk.

    The stream endpoints it adopted run inside its cycle (:meth:`adopt`).
    """

    wire_watchers = ("watch_forward", "watch_ack")

    def __init__(self, name: str, routers: Sequence[CircuitSwitchedRouter]) -> None:
        super().__init__(name, routers)
        #: Routers to walk in the next cycle, and the ones walked in the cycle
        #: in flight, from their sampling to their latch (insertion-ordered
        #: sets).
        self._next: Dict[CircuitSwitchedRouter, None] = {}
        self._walk: Dict[CircuitSwitchedRouter, None] = _NOT_WALKING
        #: The cycle after the last one that latched: a mark from the latch
        #: on is seen from this cycle on.
        self._edge = 0
        #: Routers whose program compiles at the next walk (a new
        #: configuration version, a relink, a fault, a reset), and the ones
        #: whose commit in the cycle in flight is the sweep that follows.
        self._stale: Dict[CircuitSwitchedRouter, None] = {}
        self._sweeps: Dict[CircuitSwitchedRouter, None] = {}
        #: Parked router -> the first cycle whose idle register bits it owes.
        self._parked: Dict[CircuitSwitchedRouter, int] = {}
        #: The lane units adopted before this datapath joined a kernel and
        #: after, each stepped on its own side of the routers' commit
        #: (:meth:`_place`); the drivers numbered below ``_early_drivers``
        #: fire ahead of the routers' sampling.
        self._units_before, self._units_after, self._early_drivers = {}, {}, 0
        #: The tile consumers, each mapped to its drain queue: one drained
        #: ahead of the routers' commit, or after it.
        self._sinks, self._drain_before, self._drain_after = {}, {}, {}
        #: Per router, what its tile interface and its wires to the outside call.
        self._marks = {router: partial(self.mark, router) for router in self.routers}
        for router in self.routers:
            router.converter.mark_hook = self._marks[router]
            router.config.on_change = partial(self._compile, router)
        self._rewire()

    def _reset_pipe(self) -> None:
        super()._reset_pipe()
        #: The pipe runs the routers' cycles, all but :attr:`_walkers`' ones,
        #: which walk with the endpoint units on their wires
        #: (:attr:`_walk_units`).
        self._walkers: Dict[CircuitSwitchedRouter, None] = {}
        self._walk_units: Dict[object, None] = {}
        #: Each lane unit's line and what a mark, a tile write or a driver's word dirtied.
        self._line_of: Dict[object, _Line] = {}
        self._pipe_dirty: Dict[object, None] = {}

    # -- stream endpoints ------------------------------------------------------------------

    def _place(self, record, early: bool) -> None:
        """A record adopted before this datapath joined a kernel acts ahead of
        the routers in every cycle, one adopted later after them.  A tile
        consumer drains after each delivery on its lane, what already waits
        at its first turn.  A lane unit adopted under the pipe puts the
        routers back on the walk."""
        if hasattr(record, "pacer") and early:
            self._early_drivers = self.drivers.count
        if hasattr(record, "step"):
            if self._piping:
                self._pipe_release()
            (self._units_before if early else self._units_after)[record] = None
        elif not hasattr(record, "pacer"):
            if record in self._sinks:
                raise ConfigurationError(f"{record.name!r} is already adopted")
            queue = self._sinks[record] = self._drain_before if early else self._drain_after
            record.router.tile.watch_rx(record.lane, partial(self._delivered, record))
            queue[record] = None

    def _unplace(self, record) -> None:
        if self._piping and record in self._units:
            self._pipe_release()
        self._units_before.pop(record, None)
        self._units_after.pop(record, None)
        self._sinks.pop(record, {}).pop(record, None)

    def _delivered(self, sink) -> None:
        """A word arrived on *sink*'s lane: unless released, it drains at its next turn."""
        if sink in self._sinks:
            self._sinks[sink][sink] = None

    def _stir(self, unit) -> None:
        # A link endpoint's driver emitted: under the pipe its source may
        # load.  A fault on its wire puts the routers back on the walk.
        if not self._piping or unit in self._walk_units:
            self._resting.pop(unit, None)
        elif unit.link.dead:
            self._pipe_release()
        else:
            self._pipe_dirty[unit] = None

    # -- marks -----------------------------------------------------------------------------

    def _listener(self, wire: LaneLink, router: CircuitSwitchedRouter):
        if wire in self._reader and wire in self._writer:
            return _MemberWireWatch(self, wire, router)
        return self._marks[router]

    def mark(self, router: CircuitSwitchedRouter) -> None:
        """An input of *router* changed: it walks from the first cycle that
        can see the change, its idle cycles booked up to there (under the
        pipe, its tile lanes are looked at in the next cycle)."""
        if self._piping and router not in self._walkers:
            self._pipe_dirty[router] = None
            return
        active = self._next
        if router in active:
            return
        if router not in self._parked:
            # It sampled in the cycle in flight: it walks the next one too.
            active[router] = None
            return
        kernel = self._scheduler
        cycle = kernel.cycle if kernel is not None else 0
        walk = self._walk
        if walk is not _NOT_WALKING:
            # Between the walk and the latch: joins the cycle in flight.  Its
            # next state is what it last sampled: nothing it samples changed
            # since it parked, and nothing does before the latch.
            assert self._edge <= cycle, "a mark joined a cycle that latched"
            self._book(router, self._parked.pop(router), cycle)
            walk[router] = None
            return
        # Before the walk the change is seen in this cycle, from the latch on
        # in the next one.
        self._book(router, self._parked.pop(router), max(cycle, self._edge))
        active[router] = None

    def _compile(self, router: CircuitSwitchedRouter) -> None:
        # Also the routers' configuration ``on_change`` hook.  The route
        # program holds direct wire references and the routes of one
        # configuration version: compile it at the next walk.
        if self._piping:
            self._pipe_release()
        self._pipe_check = True
        self._stale[router] = None
        self.mark(router)

    # -- simulation ------------------------------------------------------------------------

    def commit(self, cycle: int) -> None:
        if self._piping and not self._walkers:
            self._pipe_commit(cycle)
            return
        # Before the walk: the early drivers, then every walking router samples.
        drivers = self.drivers
        if drivers.next_due == cycle and self._early_drivers:
            drivers.fire(cycle, self._early_drivers)
        walk = self._walk = self._next
        self._next = {}
        if self._stale:
            for router in self._stale:
                router._compile()
            self._sweeps, self._stale = self._stale, {}
        for router in walk:
            eval_tile, eval_rx, ack_tile, ack_wire, ack_any, next_data, next_acks = router._sample
            for out_idx, serializer in eval_tile:
                next_data[out_idx] = serializer._current_phit
            for out_idx, wires, lane in eval_rx:
                next_data[out_idx] = wires[lane]
            for in_idx, deserializer in ack_tile:
                next_acks[in_idx] = deserializer._ack_pulse
            for in_idx, wires, lane in ack_wire:
                next_acks[in_idx] = wires[lane]
            for in_idx, pulses, sources in ack_any:
                next_acks[in_idx] = any(d._ack_pulse for d in pulses) or any(
                    wires[lane] for wires, lane in sources
                )
        # Between the walk and the latch: the late drivers, a mark joining this cycle.
        if drivers.next_due == cycle:
            drivers.fire(cycle)
        # From the latch on a mark is seen in the next cycle.
        self._edge, self._walk = cycle + 1, _NOT_WALKING
        if self._units_before:
            self._turn(self._units_before, cycle)
        if self._drain_before:
            for sink in self._drain_before:
                sink.drain()
            self._drain_before.clear()
        active, sweeps, sleepers = self._next, self._sweeps, []
        for router in walk:
            if sweeps and router in sweeps:
                router._sweep(cycle)
                latched = router._latched
            else:
                (latch_data, latch_ack, out_data, next_data, ack_out, next_acks, previous, mask, slots,
                 clocked_bits, gated_bits, tick, gated) = router._latch
                # 1. Latch the routed output registers; a change drives its wire.
                toggles = link_toggles = 0
                for out_idx, link, lane in latch_data:
                    new = next_data[out_idx]
                    old = out_data[out_idx]
                    if new != old:
                        bits = ((old ^ new) & mask).bit_count()
                        toggles += bits
                        out_data[out_idx] = new
                        if link is not None:
                            link_toggles += bits
                            previous[out_idx] = new
                            link.drive_forward(lane, new)
                if toggles:
                    slots[XBAR_TOGGLE_BITS] += toggles
                # 2. Latch the acknowledge registers; a change drives its wire.
                for in_idx, link, lane in latch_ack:
                    new = next_acks[in_idx]
                    if new != ack_out[in_idx]:
                        toggles += 1
                        ack_out[in_idx] = new
                        if link is not None:
                            link.drive_ack(lane, new)
                latched = router._latched = toggles != 0
                if toggles:
                    slots[REG_TOGGLE_BITS] += toggles
                # 3. The constant register bits, the converter, the link toggles.
                if clocked_bits:
                    slots[REG_CLOCKED_BITS] += clocked_bits
                if gated_bits:
                    slots[REG_GATED_BITS] += gated_bits
                tick(out_data, ack_out, cycle, gated)
                if link_toggles:
                    slots[LINK_TOGGLE_BITS] += link_toggles
            # A router stays on the walk while it moves or once marked since
            # it sampled.
            if latched or router in active or not self.frozen(router):
                active[router] = None
            else:
                sleepers.append(router)
        if sleepers:
            for router in sleepers:
                if router not in active:  # unless a later latch marked it
                    self._parked[router] = cycle + 1
        if sweeps:
            self._sweeps = {}
        if self._piping:  # beside the walkers
            self._pipe_events(cycle)
        if self._units_after:
            self._turn(self._units_after, cycle)
        if self._drain_after:
            for sink in self._drain_after:
                sink.drain()
            self._drain_after.clear()
        if self._pipe_check:
            if self._piping:
                self._pipe_release(cycle + 1)
            self._lay_pipe(cycle + 1)

    def frozen(self, router: CircuitSwitchedRouter) -> bool:
        """True when another cycle of *router* with unchanged inputs would
        only book its constant register bits.

        That holds when the last commit latched no change, the data converter
        is at rest (every unit drained or, without clock gating,
        window-stalled with an idle output lane — a stalled serialiser still
        clocks its registers where the idle booking would gate them), and the
        crossbar sits at a fixed point of the live inputs.  A commit latches
        every register the program samples, so only an output fed by a
        serialiser (at rest, it drives the idle phit) and a fan-in that
        samples a deserialiser pulse (at rest, none) or that the commit does
        not latch (clock gating) can differ from what the next walk would
        sample.  Nothing then moves until an acknowledge or a new word
        arrives, and either marks the router.
        """
        if router._latched or router in self._stale:
            return False
        if not router.converter.at_rest(router.clock_gating):
            return False
        out_data = router._out_data
        for out_idx, _serializer in router._eval_tile:
            if out_data[out_idx]:
                return False
        ack_out = router._ack_out
        for in_idx, sources in router._park_ack:
            if ack_out[in_idx] != any(wires[lane] for wires, lane in sources):
                return False
        return True

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Now while a router walks, a lane unit is not at rest, a consumer ahead of
        the routers has words or the pipe has a write to look at; else the
        pipe's next event or when the next driver is due, whichever is first."""
        if self._next or self._drain_before or self._pipe_dirty:
            return cycle
        if self._units and len(self._resting) < len(self._units):
            return cycle
        return self._pipe_next_event(cycle)

    def _book(self, router: CircuitSwitchedRouter, start: int, end: int) -> None:
        """Book *router*'s constant register bits of the idle cycles ``[start, end)``."""
        if end <= start:
            return
        cycles = end - start
        clocked, gated = router.crossbar.idle_cycle_bits(router.clock_gating)
        if router.clock_gating:
            gated += router.converter.idle_cycle_bits()
        else:
            clocked += router.converter.idle_cycle_bits()
        if clocked:
            router.activity.add(ActivityKeys.REG_CLOCKED_BITS, clocked * cycles)
        if gated:
            router.activity.add(ActivityKeys.REG_GATED_BITS, gated * cycles)

    def settle(self, start_cycle: int, cycles: int) -> None:
        """At ``sync``: every parked router's idle cycles booked up to now,
        then the skeleton's booking (the lines materialised first)."""
        end = start_cycle + cycles
        parked = self._parked
        for router, start in parked.items():
            self._book(router, start, end)
            parked[router] = end
        super().settle(start_cycle, cycles)

    def reset(self) -> None:
        """Routers and endpoints back to power-on, all on the walk; the pipe is laid after the first cycle."""
        self._parked.clear()
        self._walk, self._sweeps, self._edge = _NOT_WALKING, {}, 0
        self._next = dict.fromkeys(self.routers)
        self._stale = dict.fromkeys(self.routers)
        self._drain_before.clear()
        self._drain_after.clear()
        for sink in self._sinks:
            sink.reset()
        super().reset()

    # -- the pipe --------------------------------------------------------------------------

    def _pipe_commit(self, cycle: int) -> None:
        """One cycle under the pipe: every driver due (the early ones first,
        by their numbers), the consumers ahead of the routers, the marks
        since the last cycle and the events due, the consumers after them."""
        drivers = self.drivers
        if drivers.next_due == cycle:
            drivers.fire(cycle)
        self._edge = cycle + 1
        if self._drain_before:
            for sink in self._drain_before:
                sink.drain()
            self._drain_before.clear()
        self._pipe_events(cycle)
        if self._drain_after:
            for sink in self._drain_after:
                sink.drain()
            self._drain_after.clear()
        if self._pipe_check:
            # A word the sink would not take: the walk from the next cycle.
            self._pipe_release(cycle + 1)
            self._lay_pipe(cycle + 1)

    def _pipe_events(self, cycle: int) -> None:
        """The pipe's part of a cycle: the marks since the last one, then the events due."""
        if self._pipe_dirty:
            self._pipe_stir(cycle)
        agenda = self._agenda
        while agenda and agenda[0][0] == cycle:
            _, kind, _, line = heappop(agenda)
            if kind == _LOAD:
                line.load(cycle)
            elif kind == _ACK:
                line.src.acknowledge()
                line.load(cycle)
            else:
                _, packet = line.deliveries.popleft()
                dst = line.dst
                dst.deliver(packet, cycle)
                consumer = line.consumer
                if consumer is not None:
                    # A link consumer reads every word as it ticks; the pulses follow.
                    received = consumer.received
                    while (word := dst.receive()) is not None:
                        received.append(word)
                    line.take_pulses(cycle + 1)

    def _pipe_stir(self, cycle: int) -> None:
        """Look at what the marks since the last cycle dirtied: a tile lane may
        have a word to load or pulses to send, a link driver a word."""
        dirty, self._pipe_dirty = self._pipe_dirty, {}
        line_of = self._line_of
        for key in dirty:
            if not isinstance(key, CircuitSwitchedRouter):  # a link driver's word
                line = line_of.get(key.serializer)
                if line is not None:
                    line.load(cycle)
                continue
            converter = key.converter
            for serializer in converter.serializers:
                if serializer._queue:
                    line = line_of.get(serializer) or self._start_line(
                        _Line(cycle, self._geometry(key), serializer, (), None)
                    )
                    line.load(cycle)
            for deserializer in converter.deserializers:
                if deserializer._pending_ack_pulses:
                    line = line_of.get(deserializer) or self._start_line(
                        _Line(cycle, self._geometry(key), None, (), deserializer)
                    )
                    line.take_pulses(cycle)

    @staticmethod
    def _geometry(router: CircuitSwitchedRouter) -> Tuple[int, int]:
        return router.lane_width, router.converter.serializers[0].phits_per_packet

    def _start_line(self, line: _Line) -> _Line:
        line.start(self, self._agenda, self._sequence)
        self._lines.append(line)
        for unit in (line.src, line.dst):
            if unit is not None:
                self._line_of[unit] = line
        return line

    def _start_pipe(self, plan, cycle: int) -> None:
        """At the end of the commit before *cycle*: start the lines and park
        every router but the walkers."""
        lines, walkers, walk_units = plan
        self._walkers, self._walk_units = walkers, walk_units
        self._piped_members = len(self.routers) - len(walkers)
        for line in lines:
            self._start_line(line)
        parked, walking = self._parked, self._next
        for router in list(walking):
            if router not in walkers:
                parked[router] = cycle
                del walking[router]
        resting, owed = self._resting, self._owed
        for unit in self._units:
            if unit not in resting and unit not in walk_units:
                resting[unit] = None
                owed.setdefault(unit, cycle)

    def _plan_pipe(self, cycle: int):
        """The lines of the state after the latch of ``cycle - 1``, the routers
        that walk beside them and the endpoint units on their wires, and why
        those walk (``None`` if none do) — or ``None``, why every router must
        walk and whether to look again after the next cycle (a word half
        collected).

        Routes chained through wires join their routers into one group; a
        route the pipe cannot lay keeps its group on the walk, and a group
        that walks every router keeps them all on it."""
        routers = self.routers
        if any(router.clock_gating for router in routers):
            return None, "clock gating keeps the routers on the walk", False
        drivers, consumers = {}, {}
        for unit in self._units:
            (drivers if hasattr(unit, "serializer") else consumers)[unit.link, unit.lane] = unit
        routed: Dict[Tuple[CircuitSwitchedRouter, int], int] = {}
        outputs = set()
        for router in routers:
            for out_idx, src_idx in router.crossbar.active_routes():
                routed[router, src_idx] = out_idx
                outputs.add((router, out_idx))
        self.live_routes = len(routed)
        refused: Dict[CircuitSwitchedRouter, str] = {}
        for router in routers:
            for _in_idx, outs in router.crossbar.ack_fanins():
                if len(outs) > 1:
                    refused.setdefault(router, f"a multicast acknowledge fan-in at router {router.name!r}")
            lanes = router.lanes_per_port
            for out_idx, src_idx in router.crossbar.active_routes():
                port, lane = divmod(src_idx, lanes)
                rx = router._rx_by_port[port] if port else None
                if rx is not None:
                    if rx.dead:
                        refused.setdefault(router, f"a route at router {router.name!r} crosses the dead wire {rx.name!r}")
                    elif rx not in self._writer and (rx, lane) not in drivers:
                        refused.setdefault(
                            router, f"a route at router {router.name!r} reads {rx.name!r}, which no adopted driver drives"
                        )
                port, lane = divmod(out_idx, lanes)
                tx = router._tx_by_port[port] if port else None
                if tx is not None:
                    if tx.dead:
                        refused.setdefault(router, f"a route at router {router.name!r} crosses the dead wire {tx.name!r}")
                    elif tx not in self._reader and (tx, lane) not in consumers:
                        refused.setdefault(
                            router, f"router {router.name!r} drives {tx.name!r}, which no adopted consumer reads"
                        )
        walkers: Dict[CircuitSwitchedRouter, None] = {}
        walk_units: Dict[object, None] = {}
        reason = None
        if refused:
            walkers = self._chained(refused, outputs)
            reason = next(iter(refused.values()))
            if len(walkers) == len(routers):
                return None, reason, False
            reason = f"{len(walkers)} of {len(routers)} routers walk: {reason}"
        lines, hops_laid, used = [], 0, set()
        for (router, src_idx), out_idx in routed.items():
            if router in walkers:
                continue
            lanes = router.lanes_per_port
            port, lane = divmod(src_idx, lanes)
            src = s_wire = None
            s_late = False
            if not port:
                src = router.converter.serializers[lane]
            else:
                rx = router._rx_by_port[port]
                if rx is not None:
                    writer = self._writer.get(rx)
                    if writer is not None:
                        if (writer[0], writer[1] * lanes + lane) in outputs:
                            continue  # not the head of its line
                    else:
                        driver = drivers[rx, lane]
                        src, s_wire, s_late = driver.serializer, (rx, lane), driver in self._units_before
                        used.add(driver)
            hops = [(router, out_idx, src_idx)]
            dst = d_wire = consumer = None
            while True:
                hop_router, hop_out, _ = hops[-1]
                port, lane = divmod(hop_out, lanes)
                if not port:
                    dst = hop_router.converter.deserializers[lane]
                    break
                tx = hop_router._tx_by_port[port]
                if tx is None:
                    break
                reader = self._reader.get(tx)
                if reader is None:
                    consumer = consumers[tx, lane]
                    used.add(consumer)
                    dst, d_wire = consumer.deserializer, (tx, lane)
                    break
                in_idx = reader[1] * lanes + lane
                next_out = routed.get((reader[0], in_idx))
                if next_out is None:
                    break
                hops.append((reader[0], next_out, in_idx))
            hops_laid += len(hops)
            lines.append(_Line(
                cycle, self._geometry(router), src, hops, dst, s_wire=s_wire, d_wire=d_wire, consumer=consumer,
                s_late=s_late, d_late=consumer is not None and consumer in self._units_before,
            ))
        if hops_laid < sum(1 for router, _src_idx in routed if router not in walkers):
            return None, "a ring of routes feeds itself", False
        # The tile lanes off every route that hold state.
        laid = {line.src for line in lines} | {line.dst for line in lines}
        for router in routers:
            if router in walkers:
                continue
            geometry = self._geometry(router)
            for serializer, deserializer in zip(router.converter.serializers, router.converter.deserializers):
                if serializer not in laid and not serializer.quiescent:
                    lines.append(_Line(cycle, geometry, serializer, (), None))
                if deserializer not in laid and not deserializer.quiescent:
                    lines.append(_Line(cycle, geometry, None, (), deserializer))
        for unit in self._units:
            if unit in used:
                continue
            if (self._reader if hasattr(unit, "serializer") else self._writer).get(unit.link, (None,))[0] in walkers:
                walk_units[unit] = None  # it steps with the router on its wire
                continue
            if (unit.link, unit.lane) in drivers and (unit.link, unit.lane) in consumers:
                return None, f"{unit.link.name!r} joins a driver to a consumer with no route between", False
            if unit.link.dead:
                return None, f"{unit.name!r} drives or reads the dead wire {unit.link.name!r}", False
            late, wire = unit in self._units_before, (unit.link, unit.lane)
            if hasattr(unit, "serializer"):
                geometry = (unit.link.lane_width, unit.serializer.phits_per_packet)
                lines.append(_Line(cycle, geometry, unit.serializer, (), None, s_wire=wire, s_late=late))
            else:
                geometry = (unit.link.lane_width, unit.deserializer.phits_per_packet)
                lines.append(_Line(
                    cycle, geometry, None, (), unit.deserializer, d_wire=wire, consumer=unit, d_late=late,
                    head=unit.link.forward[unit.lane],
                ))
        for line in lines:
            if line.misaligned:
                reason = f"a half-collected word waits at {line.dst!r} for phits not yet sent"
                return None, reason, True
        return (lines, walkers, walk_units), reason, False

    def _chained(self, routers, outputs) -> Dict[CircuitSwitchedRouter, None]:
        """*routers* and every router chained to one of them by routes: a
        route that reads a wire whose writer routes to it joins the two."""
        links: Dict[CircuitSwitchedRouter, list] = {}
        for router in self.routers:
            lanes = router.lanes_per_port
            for _out_idx, src_idx in router.crossbar.active_routes():
                port, lane = divmod(src_idx, lanes)
                rx = router._rx_by_port[port] if port else None
                writer = self._writer.get(rx) if rx is not None and not rx.dead else None
                if writer is not None and (writer[0], writer[1] * lanes + lane) in outputs:
                    links.setdefault(router, []).append(writer[0])
                    links.setdefault(writer[0], []).append(router)
        chained, todo = dict.fromkeys(routers), list(routers)
        while todo:
            for other in links.get(todo.pop(), ()):
                if other not in chained:
                    chained[other] = None
                    todo.append(other)
        return chained

    def _unpipe(self) -> None:
        """Every router back on the walk and every endpoint unit stepping from the next cycle."""
        self._walkers, self._walk_units, self._line_of, self._pipe_dirty = {}, {}, {}, {}
        for router in self.routers:
            # The lane units moved behind the converters' lists.
            router.converter.rescan()
            self.mark(router)
        for unit in self._units:
            self._resting.pop(unit, None)
