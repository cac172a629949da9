"""Data converter between the 16-bit tile interface and the 4-bit lanes (Fig. 5).

The processing tile talks to the network in whole data words (16 bits, the
same interface as the packet-switched alternative of Kavaldjiev), while the
circuit-switched network transports 4-bit phits over individual lanes.  The
data converter therefore contains, per tile-port lane:

* a **serialiser** (tile → network): accepts lane packets, checks the
  window-counter flow control, and shifts the packet out as five phits,
* a **deserialiser** (network → tile): watches the tile-port output lane,
  acquires frame synchronisation on a valid header nibble, reassembles the
  packet, queues the received word for the tile and generates acknowledge
  pulses after the tile has read ``X`` words.

The :class:`TileInterface` is the word-level facade the processing tiles (and
the traffic generators of the experiments) use.

Both shift registers are held as packed integers.  The serialiser keeps the
phits still to send as one ``lane_width + 1``-bit field per phit (the phit
under a set marker bit, next phit lowest), so "shift out" is a mask and a
right shift and "empty" is zero even when the trailing data phits are.  The
deserialiser keeps the collected phits header first; the header's ``VALID``
bit makes the value non-zero from the first phit on and reaches a fixed bit
position exactly when the packet is complete.  The vector plane
(:mod:`repro.sim.vector`) holds the same two integers per lane in NumPy
columns and calls only the *word edges* here — :meth:`LaneSerializer.load_word`,
:meth:`LaneSerializer.acknowledge` and :meth:`LaneDeserializer.deliver` — so
the scalar classes stay the one definition of what a word boundary does.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, List, NamedTuple, Optional, Tuple

from repro.common import CapacityError, bit_mask, check_field, toggle_count
from repro.core.flow_control import AckGenerator, FlowControlConfig, WindowCounterSource
from repro.core.header import (
    EOB_MASK,
    SOB_MASK,
    USER_MASK,
    VALID_MASK,
    LanePacket,
    phits_per_packet,
)
from repro.energy.activity import (
    ACKS_DELIVERED, REG_CLOCKED_BITS, REG_GATED_BITS, REG_TOGGLE_BITS, WORDS_DELIVERED, WORDS_INJECTED,
    ActivityCounters,
)

__all__ = ["ReceivedWord", "LaneSerializer", "LaneDeserializer", "DataConverter", "TileInterface"]


class ReceivedWord(NamedTuple):
    """A data word delivered to the tile, with its header flags and arrival time."""

    data: int
    sob: bool
    eob: bool
    user: bool
    cycle: int


class LaneSerializer:
    """Tile → network serialiser for one tile-port lane."""

    def __init__(
        self,
        lane: int,
        lane_width: int = 4,
        data_width: int = 16,
        tx_queue_depth: int = 4,
        flow: FlowControlConfig = FlowControlConfig(),
        activity: ActivityCounters | None = None,
    ) -> None:
        if tx_queue_depth < 1:
            raise ValueError("tx_queue_depth must be positive")
        self.lane = lane
        self.lane_width = lane_width
        self.data_width = data_width
        self.tx_queue_depth = tx_queue_depth
        self.activity = activity if activity is not None else ActivityCounters()
        self.window = WindowCounterSource(flow)
        self.phits_per_packet = phits_per_packet(data_width, lane_width)
        #: Width of the packet shift register.
        self.packet_bits = self.phits_per_packet * lane_width
        #: Register bits this serialiser clocks (or gates) per idle cycle.
        self.idle_cycle_bits = self.packet_bits + lane_width
        self._phit_mask = bit_mask(lane_width)
        self._data_mask = bit_mask(data_width)
        #: Encoded lane packets (header nibble above the data word) in order.
        self._queue: Deque[int] = deque()
        #: Phits still to shift out, packed (see the module docstring).
        self._remaining_phits = 0
        self._current_phit = 0  # committed output register value
        self._hold_register = 0
        self.words_loaded = 0

    # -- tile-side API ------------------------------------------------------------

    def can_accept(self) -> bool:
        """True when the tile may submit another word this cycle."""
        return len(self._queue) < self.tx_queue_depth

    def submit(self, packet: LanePacket) -> None:
        """Queue a lane packet for transmission."""
        self._enqueue(packet.encode())

    def submit_word(self, data: int, sob: bool = False, eob: bool = False, user: bool = False) -> None:
        """Queue a valid word: :meth:`submit` of the :class:`LanePacket` with this data
        and these header flags, its range check included, without building it."""
        check_field(data, self.data_width, "lane packet data")
        flags = VALID_MASK | (SOB_MASK if sob else 0) | (EOB_MASK if eob else 0) | (USER_MASK if user else 0)
        self._enqueue((flags << self.data_width) | data)

    def _enqueue(self, encoded: int) -> None:
        if len(self._queue) >= self.tx_queue_depth:
            raise CapacityError(
                f"serialiser queue of lane {self.lane} is full "
                f"({self.tx_queue_depth} entries)"
            )
        self._queue.append(encoded)

    @property
    def pending(self) -> int:
        """Words queued but not yet (fully) transmitted."""
        return len(self._queue) + (1 if self._remaining_phits else 0)

    @property
    def busy(self) -> bool:
        """True while a packet is being shifted out or waiting in the queue."""
        return bool(self._remaining_phits or self._queue)

    @property
    def quiescent(self) -> bool:
        """True when a tick with no acknowledge input would change nothing."""
        return not (self._remaining_phits or self._queue or self._current_phit)

    @property
    def window_stalled(self) -> bool:
        """True while blocked on flow control with the output lane idle.

        In this state a tick without an acknowledge is *functionally* an idle
        tick — queued words cannot move until credit returns and the output
        stays at zero — but the registers still clock (never gate), which is
        why the owning router may only treat a stalled lane as idle when
        clock gating is off.
        """
        return bool(
            self._queue
            and not self._remaining_phits
            and not self._current_phit
            and not self.window.can_send()
        )

    # -- network-side API -----------------------------------------------------------

    @property
    def output_phit(self) -> int:
        """Committed value currently driven into the crossbar input lane."""
        return self._current_phit

    def configure_flow(self, flow: FlowControlConfig) -> None:
        """Replace the window-counter configuration (new connection set-up)."""
        self.window = WindowCounterSource(flow)

    # -- word edges -------------------------------------------------------------------

    def acknowledge(self) -> None:
        """An acknowledge pulse arrived on the reverse path: return its credit."""
        self.window.on_ack()
        self.activity.slots[ACKS_DELIVERED] += 1

    def load_word(self) -> Tuple[int, int]:
        """Take the next queued packet for the shift register.

        The caller has checked that the shifter is empty, a packet is queued
        and the window counter allows sending.  Returns the header phit (the
        output register's next value) and the packed data phits (the new
        ``_remaining_phits``), which the caller stores where it keeps them.
        """
        encoded = self._queue.popleft()
        self.window.on_send()
        width = self.lane_width
        mask = self._phit_mask
        marker = mask + 1
        data = encoded & self._data_mask
        remaining = 0
        for _ in range(self.phits_per_packet - 1):
            # Least significant phit first: it is sent last, so ends up highest.
            remaining = (remaining << (width + 1)) | marker | (data & mask)
            data >>= width
        slots = self.activity.slots
        slots[REG_TOGGLE_BITS] += toggle_count(self._hold_register, encoded, self.packet_bits)
        self._hold_register = encoded
        self.words_loaded += 1
        slots[WORDS_INJECTED] += 1
        return encoded >> self.data_width, remaining

    # -- clocking ----------------------------------------------------------------------

    def tick(self, ack_pulse: bool, clock_gating: bool = False) -> None:
        """Advance by one clock cycle.

        Parameters
        ----------
        ack_pulse:
            Acknowledge value arriving (through the crossbar's reverse path)
            for this lane during this cycle.
        clock_gating:
            When true and the serialiser is completely idle, its registers are
            treated as clock-gated for the activity accounting.
        """
        slots = self.activity.slots

        if ack_pulse:
            self.acknowledge()

        remaining = self._remaining_phits
        if remaining:
            next_phit = remaining & self._phit_mask
            self._remaining_phits = remaining >> (self.lane_width + 1)
        elif self._queue and self.window.can_send():
            next_phit, self._remaining_phits = self.load_word()
        else:
            next_phit = 0

        idle = not self.busy and next_phit == 0 and self._current_phit == 0
        if clock_gating and idle:
            slots[REG_GATED_BITS] += self.idle_cycle_bits
        else:
            slots[REG_CLOCKED_BITS] += self.idle_cycle_bits
            slots[REG_TOGGLE_BITS] += ((self._current_phit ^ next_phit) & self._phit_mask).bit_count()
        self._current_phit = next_phit

    def reset(self) -> None:
        """Return to the idle state (queue and shift register cleared)."""
        self._queue.clear()
        self._remaining_phits = 0
        self._current_phit = 0
        self._hold_register = 0
        self.words_loaded = 0
        self.window.reset()


class LaneDeserializer:
    """Network → tile deserialiser for one tile-port lane."""

    def __init__(
        self,
        lane: int,
        lane_width: int = 4,
        data_width: int = 16,
        flow: FlowControlConfig = FlowControlConfig(),
        activity: ActivityCounters | None = None,
    ) -> None:
        self.lane = lane
        self.lane_width = lane_width
        self.data_width = data_width
        self.activity = activity if activity is not None else ActivityCounters()
        self.flow = flow
        self.ack_generator = AckGenerator(flow)
        self.phits_per_packet = phits_per_packet(data_width, lane_width)
        #: Register bits this deserialiser clocks (or gates) per idle cycle.
        self.idle_cycle_bits = self.phits_per_packet * lane_width + 1
        #: Position of the header phit within a complete packet.
        self._header_shift = (self.phits_per_packet - 1) * lane_width
        #: ``_collected >> _full_shift`` is non-zero exactly when the packet is
        #: complete: the header's VALID bit has been shifted up that far.
        self._full_shift = self._header_shift + VALID_MASK.bit_length() - 1
        self._phit_mask = bit_mask(lane_width)
        self._data_mask = bit_mask(data_width)
        #: Phits collected so far, packed header first (see the module docstring).
        self._collected = 0
        self._previous_phit = 0
        self._rx_queue: Deque[ReceivedWord] = deque()
        self._pending_ack_pulses = 0
        self._ack_pulse = False  # committed one-cycle pulse
        self.words_received = 0
        self.max_occupancy = 0
        #: Callback fired when a reassembled word enters the receive queue
        #: (:meth:`TileInterface.watch_rx`).
        self.on_deliver: Optional[Callable[[], None]] = None

    # -- tile-side API -------------------------------------------------------------

    def available(self) -> int:
        """Number of received words waiting for the tile."""
        return len(self._rx_queue)

    def receive(self) -> Optional[ReceivedWord]:
        """Pop the oldest received word; returns ``None`` when empty.

        Reading a word feeds the acknowledge generator, which is how the
        destination returns credit to the source (Section 5.2).
        """
        if not self._rx_queue:
            return None
        word = self._rx_queue.popleft()
        self._pending_ack_pulses += self.ack_generator.on_consumed(1)
        return word

    def configure_flow(self, flow: FlowControlConfig) -> None:
        """Replace the acknowledge-generation configuration."""
        self.flow = flow
        self.ack_generator = AckGenerator(flow)

    # -- network-side API --------------------------------------------------------------

    @property
    def ack_pulse(self) -> bool:
        """Committed acknowledge pulse fed back into the crossbar's reverse path."""
        return self._ack_pulse

    @property
    def collecting(self) -> bool:
        """True while in the middle of reassembling a packet."""
        return bool(self._collected)

    @property
    def quiescent(self) -> bool:
        """True when a tick with an idle (zero) input would change nothing.

        Words already queued for the tile are allowed: they sit still until
        the tile reads them, and reading marks the owning router through the
        tile-interface hook.
        """
        return not (
            self._collected
            or self._previous_phit
            or self._pending_ack_pulses
            or self._ack_pulse
        )

    # -- clocking ------------------------------------------------------------------------

    def tick(self, input_phit: int, cycle: int, clock_gating: bool = False) -> None:
        """Advance by one clock cycle with *input_phit* observed on the lane."""
        slots = self.activity.slots

        collected = self._collected
        if collected:
            collected = (collected << self.lane_width) | input_phit
            if collected >> self._full_shift:
                self._collected = 0
                self.deliver(collected, cycle)
            else:
                self._collected = collected
        elif input_phit & VALID_MASK:
            # Frame synchronisation: an idle lane carries the all-zero nibble.
            self._collected = input_phit

        idle = not self._collected and input_phit == 0 and self._previous_phit == 0
        if clock_gating and idle:
            slots[REG_GATED_BITS] += self.idle_cycle_bits
        else:
            slots[REG_CLOCKED_BITS] += self.idle_cycle_bits
            slots[REG_TOGGLE_BITS] += ((self._previous_phit ^ input_phit) & self._phit_mask).bit_count()
        self._previous_phit = input_phit

        # Emit at most one acknowledge pulse per cycle.
        if self._pending_ack_pulses > 0:
            self._ack_pulse = True
            self._pending_ack_pulses -= 1
        else:
            self._ack_pulse = False

    def deliver(self, packet: int, cycle: int) -> None:
        """Word edge: queue the complete *packet* (packed phits, header first)."""
        header = packet >> self._header_shift
        self._rx_queue.append(
            ReceivedWord(
                packet & self._data_mask,
                bool(header & SOB_MASK),
                bool(header & EOB_MASK),
                bool(header & USER_MASK),
                cycle,
            )
        )
        self.words_received += 1
        self.max_occupancy = max(self.max_occupancy, len(self._rx_queue))
        self.activity.slots[WORDS_DELIVERED] += 1
        window = self.flow.window_size
        if window is not None and len(self._rx_queue) > window:
            raise CapacityError(
                f"destination buffer overflow on lane {self.lane}: "
                f"{len(self._rx_queue)} words buffered but the window is {window} "
                "(window-counter flow control violated)"
            )
        if self.on_deliver is not None:
            self.on_deliver()

    def reset(self) -> None:
        """Return to the idle state."""
        self._collected = 0
        self._previous_phit = 0
        self._rx_queue.clear()
        self._pending_ack_pulses = 0
        self._ack_pulse = False
        self.words_received = 0
        self.max_occupancy = 0
        self.ack_generator.reset()


class DataConverter:
    """All serialisers and deserialisers of one router's tile port.

    A cycle ticks only the *listed* lane units: the ones the owning router's
    routes read or feed (:meth:`route_lanes`, once per configuration
    version), plus the ones holding state when the lists were last built —
    a ``send`` or ``receive`` on a lane no route touches rebuilds them, and
    such a unit leaves them once quiescent again.  Every other unit is
    quiescent and sees idle inputs, so its tick would only book its idle
    register bits; those are booked as one constant.  Whatever may move a
    unit behind the lists' back (a flow reconfiguration, the vector plane
    handing its lanes back) calls :meth:`rescan`.
    """

    def __init__(
        self,
        lanes_per_port: int = 4,
        lane_width: int = 4,
        data_width: int = 16,
        tx_queue_depth: int = 4,
        activity: ActivityCounters | None = None,
    ) -> None:
        self.lanes_per_port = lanes_per_port
        self.lane_width = lane_width
        self.data_width = data_width
        self.activity = activity if activity is not None else ActivityCounters()
        self.serializers = [
            LaneSerializer(lane, lane_width, data_width, tx_queue_depth, activity=self.activity)
            for lane in range(lanes_per_port)
        ]
        self.deserializers = [
            LaneDeserializer(lane, lane_width, data_width, activity=self.activity)
            for lane in range(lanes_per_port)
        ]
        #: Callback fired when the tile interface injects or consumes data;
        #: the datapath clocking the router installs its mark of the router.
        self.mark_hook = None
        #: Register bits of a fully idle converter per cycle (constant: the
        #: per-lane idle widths depend only on the geometry, never on flow
        #: reconfiguration).
        self._idle_bits_total = sum(s.idle_cycle_bits for s in self.serializers) + sum(
            d.idle_cycle_bits for d in self.deserializers
        )
        #: Lanes whose unit a route reads or feeds.  Every lane until the
        #: owning router says otherwise (:meth:`route_lanes`), so a converter
        #: driven directly ticks every unit.
        self._routed_tx = self._routed_rx = frozenset(range(lanes_per_port))
        #: ``(lane, unit)`` of the ticked units: the routed ones and the ones
        #: holding state, as of the last :meth:`_relist`.
        self._ticking_tx: List[Tuple[int, LaneSerializer]] = []
        self._ticking_rx: List[Tuple[int, LaneDeserializer]] = []
        #: The ticked units no route touches: the lists are rebuilt once one
        #: of them is quiescent again.
        self._transients: list = []
        #: Idle register bits of the units not ticked.
        self._unlisted_bits = 0
        #: The lists must be rebuilt before the next tick.
        self._stale = True
        self.interface = TileInterface(self)

    # -- the live lists -----------------------------------------------------------------

    def route_lanes(self, tx_lanes: Iterable[int], rx_lanes: Iterable[int]) -> None:
        """Name the lanes whose units a route reads or feeds: the serialisers
        whose acknowledge register may be set, the deserialisers whose output
        register may be non-idle.  Every other unit sees idle inputs."""
        self._routed_tx = frozenset(tx_lanes)
        self._routed_rx = frozenset(rx_lanes)
        self._stale = True

    def rescan(self) -> None:
        """List every unit that holds state before the next tick."""
        self._stale = True

    def _relist(self) -> None:
        routed_tx = self._routed_tx
        routed_rx = self._routed_rx
        self._ticking_tx = ticking_tx = [
            (lane, unit) for lane, unit in enumerate(self.serializers) if lane in routed_tx or not unit.quiescent
        ]
        self._ticking_rx = ticking_rx = [
            (lane, unit) for lane, unit in enumerate(self.deserializers) if lane in routed_rx or not unit.quiescent
        ]
        self._transients = [unit for lane, unit in ticking_tx if lane not in routed_tx] + [
            unit for lane, unit in ticking_rx if lane not in routed_rx
        ]
        lanes = self.lanes_per_port
        self._unlisted_bits = (lanes - len(ticking_tx)) * self.serializers[0].idle_cycle_bits + (
            lanes - len(ticking_rx)
        ) * self.deserializers[0].idle_cycle_bits
        self._stale = False

    # -- state ---------------------------------------------------------------------------

    def at_rest(self, clock_gating: bool) -> bool:
        """True when idle-input ticks would only book register bits: every
        listed unit is quiescent (an unlisted one is by construction) or,
        without clock gating, a window-stalled serialiser with an idle output
        lane — frozen until credit returns, though still clocking."""
        if self._stale:
            self._relist()
        for _lane, serializer in self._ticking_tx:
            if not (serializer.quiescent or (not clock_gating and serializer.window_stalled)):
                return False
        for _lane, deserializer in self._ticking_rx:
            if not deserializer.quiescent:
                return False
        return True

    def idle_cycle_bits(self) -> int:
        """Register bits the whole converter clocks (or gates) per idle cycle."""
        return self._idle_bits_total

    def tx_phit(self, lane: int) -> int:
        """Committed phit driven into the crossbar's tile-port input lane."""
        return self.serializers[lane].output_phit

    def rx_ack_pulse(self, lane: int) -> bool:
        """Committed acknowledge pulse of the tile-port output lane's deserialiser."""
        return self.deserializers[lane].ack_pulse

    def tick(
        self,
        rx_phits: List[int],
        tx_acks: List[bool],
        cycle: int,
        clock_gating: bool = False,
    ) -> None:
        """Advance all serialisers and deserialisers by one cycle.

        *rx_phits* / *tx_acks* are the committed crossbar output and
        acknowledge registers, dense-indexed (tile-port lanes first); *cycle*
        timestamps received words.  Only the listed units tick; the rest
        book what their ticks would have: their idle bits, clocked with a
        zero toggle contribution or gated.
        """
        if self._stale:
            self._relist()
        for lane, serializer in self._ticking_tx:
            serializer.tick(tx_acks[lane], clock_gating)
        for lane, deserializer in self._ticking_rx:
            deserializer.tick(rx_phits[lane], cycle, clock_gating)
        for unit in self._transients:
            if unit.quiescent:
                self._stale = True
        idle_bits = self._unlisted_bits
        if idle_bits:
            slots = self.activity.slots
            if clock_gating:
                slots[REG_GATED_BITS] += idle_bits
            else:
                slots[REG_CLOCKED_BITS] += idle_bits
                slots[REG_TOGGLE_BITS] += 0  # marks the key, as a clocked tick does

    def reset(self) -> None:
        """Reset every serialiser and deserialiser."""
        for serializer in self.serializers:
            serializer.reset()
        for deserializer in self.deserializers:
            deserializer.reset()
        self._stale = True


class TileInterface:
    """Word-level interface of a processing tile to its circuit-switched router.

    The interface is deliberately identical in spirit to the packet-switched
    router's tile interface (16-bit words in, 16-bit words out), which is what
    makes the paper's comparison fair.
    """

    def __init__(self, converter: DataConverter) -> None:
        self._converter = converter

    @property
    def lanes(self) -> int:
        """Number of lanes available towards the network."""
        return self._converter.lanes_per_port

    # -- configuration -------------------------------------------------------------

    def configure_tx(self, lane: int, flow: FlowControlConfig = FlowControlConfig()) -> None:
        """Configure the window-counter flow control of an outgoing lane."""
        self._converter.serializers[lane].configure_flow(flow)
        self._converter.rescan()
        self._notify()

    def configure_rx(self, lane: int, flow: FlowControlConfig = FlowControlConfig()) -> None:
        """Configure acknowledge generation of an incoming lane."""
        self._converter.deserializers[lane].configure_flow(flow)
        self._converter.rescan()
        self._notify()

    def _notify(self) -> None:
        hook = self._converter.mark_hook
        if hook is not None:
            hook()

    def watch_rx(self, lane: int, listener: Callable[[], None]) -> None:
        """Invoke *listener* whenever a word is delivered on *lane* (the
        datapath running the lane's consumer queues it for a drain)."""
        self._converter.deserializers[lane].on_deliver = listener

    # -- sending ----------------------------------------------------------------------

    def can_send(self, lane: int) -> bool:
        """True when a word can be submitted on *lane* this cycle."""
        return self._converter.serializers[lane].can_accept()

    def send(self, lane: int, data: int, *, sob: bool = False, eob: bool = False, user: bool = False) -> bool:
        """Submit one data word; returns ``False`` when the lane queue is full."""
        converter = self._converter
        serializer = converter.serializers[lane]
        if not serializer.can_accept():
            return False
        serializer.submit_word(data, sob, eob, user)
        if lane not in converter._routed_tx:
            converter._stale = True  # a unit no route touches joins the ticked ones
        hook = converter.mark_hook
        if hook is not None:
            hook()
        return True

    def tx_pending(self, lane: int) -> int:
        """Words queued on *lane* that have not yet left the router."""
        return self._converter.serializers[lane].pending

    # -- receiving --------------------------------------------------------------------

    def rx_available(self, lane: int) -> int:
        """Number of words waiting to be read from *lane*."""
        return self._converter.deserializers[lane].available()

    def receive(self, lane: int) -> Optional[ReceivedWord]:
        """Read the oldest word from *lane* (``None`` when empty)."""
        converter = self._converter
        word = converter.deserializers[lane].receive()
        if word is not None:
            # Reading feeds the acknowledge generator, which may schedule an
            # acknowledge pulse on the reverse path next cycle.
            if lane not in converter._routed_rx:
                converter._stale = True
            hook = converter.mark_hook
            if hook is not None:
                hook()
        return word

    # -- statistics ---------------------------------------------------------------------

    @property
    def words_sent(self) -> int:
        """Total words accepted from the tile across all lanes."""
        return sum(s.words_loaded for s in self._converter.serializers)

    @property
    def words_received(self) -> int:
        """Total words delivered to the tile across all lanes."""
        return sum(d.words_received for d in self._converter.deserializers)
