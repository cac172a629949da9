"""The circuit router's route program against the dense per-lane reference.

``_ReferenceCircuitRouter`` is the router as it was before it compiled its
routes: every cycle it samples every lane into flat lists, runs the
crossbar's route loop (:class:`_ReferenceCrossbar`), latches every register
(or, clock-gated, every lane with an active output route), ticks every
serialiser and deserialiser (:class:`_ReferenceConverter`) and drives every
attached wire.  It shares with production only what the route program does
not touch: the configuration memory, the lane wires, the lane units'
per-cycle ``tick`` and the activity counters.  Production runs under both
schedules in its :class:`~repro.core.router.LaneDatapath`, batched in its
vector plane where the fabric allows one, with the stream endpoints as
records the datapath runs.  The reference routers and the four endpoints as
they were (``_Reference*``) are kernel components under ``strict``.  After
every cycle the registers, wires (forward, acknowledge, dead, dropped),
every lane unit's state, ``activity.as_dict()`` and what every endpoint
counted and received must be equal, and under the event schedule without a
plane the park answers too: the datapath parks its routers exactly when
every reference router would (:func:`_parked`).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, List, Optional, Tuple

import pytest
from conftest import FabricScenario, fabric_scenarios, twin_benches
from hypothesis import given, settings, strategies as st
from pacing import CyclePacer

from repro.common import NEIGHBOR_PORTS, ConfigurationError, Port, bit_mask
from repro.core.config_memory import ConfigurationMemory, LaneConfig
from repro.core.data_converter import LaneDeserializer, LaneSerializer, ReceivedWord
from repro.core.flow_control import FlowControlConfig
from repro.core.header import phits_per_packet
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter
from repro.core.testbench import (
    LaneStreamConsumer, LaneStreamDriver, TileStreamConsumer, TileStreamDriver, WordSource,
)
from repro.energy.activity import LINK_TOGGLE_BITS, REG_CLOCKED_BITS, REG_GATED_BITS, REG_TOGGLE_BITS, \
    XBAR_TOGGLE_BITS, ActivityCounters, ActivityKeys
from repro.noc import Mesh2D
from repro.noc.network import CircuitSwitchedNoC
from repro.sim.engine import DEFAULT_SCHEDULE, ClockedComponent


class _ReferenceCrossbar:
    """The crossbar's dense commit and flat-list evaluate, verbatim."""

    def __init__(self, config, lane_width=4, activity=None):
        self.config = config
        self.lane_width = lane_width
        self._lane_mask = bit_mask(lane_width)
        self.activity = activity
        total = len(list(config.iter_lanes()))
        self._total = total
        self._out_data = [0] * total
        self._ack_out = [False] * total
        self._next_out = [0] * total
        self._next_ack = [False] * total
        self._routes = []
        self._active_flags = [False] * total
        self._ack_routes = []
        self._cached_version = -1
        self._commit_changed = True

    def _refresh_cache(self):
        config = self.config
        lanes_per_port = config.lanes_per_port
        routes = []
        flags = [False] * self._total
        reverse = {}
        for out_port, out_lane, cfg in config.active_entries():
            out_idx = out_port * lanes_per_port + out_lane
            src_idx = cfg.source_port * lanes_per_port + cfg.source_lane
            routes.append((out_idx, src_idx))
            flags[out_idx] = True
            reverse.setdefault(src_idx, []).append(out_idx)
        self._routes = routes
        self._active_flags = flags
        self._ack_routes = [(in_idx, tuple(outs)) for in_idx, outs in sorted(reverse.items())]
        next_out = self._next_out
        next_ack = self._next_ack
        fed = set(reverse)
        for idx in range(self._total):
            if not flags[idx]:
                next_out[idx] = 0
            if idx not in fed:
                next_ack[idx] = False
        self._cached_version = config.version

    def evaluate_flat(self, input_values, downstream_acks):
        if self._cached_version != self.config.version:
            self._refresh_cache()
        next_out = self._next_out
        for out_idx, src_idx in self._routes:
            next_out[out_idx] = input_values[src_idx]
        next_ack = self._next_ack
        for in_idx, outs in self._ack_routes:
            value = False
            for out_idx in outs:
                if downstream_acks[out_idx]:
                    value = True
                    break
            next_ack[in_idx] = value

    def commit(self, clock_gating=False):
        if self._cached_version != self.config.version:
            self._refresh_cache()
        slots = self.activity.slots
        width = self.lane_width
        mask = self._lane_mask
        out_data = self._out_data
        next_out = self._next_out
        ack_out = self._ack_out
        next_ack = self._next_ack
        reg_toggles = 0
        clocked_bits = 0
        gated_bits = 0
        xbar_toggles = 0
        if clock_gating:
            flags = self._active_flags
            active_count = len(self._routes)
            gated_bits = (self._total - active_count) * (width + 1)
            clocked_bits = active_count * (width + 1)
            for idx, active in enumerate(flags):
                if not active:
                    continue
                new_value = next_out[idx]
                old_value = out_data[idx]
                if new_value != old_value:
                    toggles = ((old_value ^ new_value) & mask).bit_count()
                    reg_toggles += toggles
                    xbar_toggles += toggles
                    out_data[idx] = new_value
                new_ack = next_ack[idx]
                if new_ack != ack_out[idx]:
                    reg_toggles += 1
                    ack_out[idx] = new_ack
        else:
            clocked_bits = self._total * (width + 1)
            for idx in range(self._total):
                new_value = next_out[idx]
                old_value = out_data[idx]
                if new_value != old_value:
                    toggles = ((old_value ^ new_value) & mask).bit_count()
                    reg_toggles += toggles
                    xbar_toggles += toggles
                    out_data[idx] = new_value
                new_ack = next_ack[idx]
                if new_ack != ack_out[idx]:
                    reg_toggles += 1
                    ack_out[idx] = new_ack
        self._commit_changed = reg_toggles != 0
        if reg_toggles:
            slots[REG_TOGGLE_BITS] += reg_toggles
        if xbar_toggles:
            slots[XBAR_TOGGLE_BITS] += xbar_toggles
        if clocked_bits:
            slots[REG_CLOCKED_BITS] += clocked_bits
        if gated_bits:
            slots[REG_GATED_BITS] += gated_bits

    def is_fixed_point(self, input_values, downstream_acks):
        if self._cached_version != self.config.version:
            self._refresh_cache()
        out_data = self._out_data
        for out_idx, src_idx in self._routes:
            if out_data[out_idx] != input_values[src_idx]:
                return False
        ack_out = self._ack_out
        for in_idx, outs in self._ack_routes:
            expected = False
            for out_idx in outs:
                if downstream_acks[out_idx]:
                    expected = True
                    break
            if ack_out[in_idx] != expected:
                return False
        return True

    def idle_cycle_bits(self, clock_gating):
        if self._cached_version != self.config.version:
            self._refresh_cache()
        per_lane = self.lane_width + 1
        if clock_gating:
            active_count = len(self._routes)
            return active_count * per_lane, (self._total - active_count) * per_lane
        return self._total * per_lane, 0

    @property
    def committed_data(self):
        return self._out_data

    @property
    def committed_acks(self):
        return self._ack_out

    def reset(self):
        for idx in range(self._total):
            self._out_data[idx] = 0
            self._ack_out[idx] = False
            self._next_out[idx] = 0
            self._next_ack[idx] = False
        self._cached_version = -1
        self._commit_changed = True


class _ReferenceConverter:
    """The data converter's every-unit tick and quiescence checks, verbatim."""

    def __init__(self, lanes_per_port=4, lane_width=4, data_width=16, activity=None):
        self.lanes_per_port = lanes_per_port
        self.activity = activity
        self.serializers = [LaneSerializer(lane, lane_width, data_width, 4, activity=activity)
                            for lane in range(lanes_per_port)]
        self.deserializers = [LaneDeserializer(lane, lane_width, data_width, activity=activity)
                              for lane in range(lanes_per_port)]
        self.wake_hook = None
        self._idle_bits_total = sum(s.idle_cycle_bits for s in self.serializers) + sum(
            d.idle_cycle_bits for d in self.deserializers)
        self.interface = _ReferenceTile(self)

    def quiescent(self):
        return all(s.quiescent for s in self.serializers) and all(d.quiescent for d in self.deserializers)

    def quiescent_or_stalled(self):
        return all(s.quiescent or s.window_stalled for s in self.serializers) and all(
            d.quiescent for d in self.deserializers)

    def idle_cycle_bits(self):
        return self._idle_bits_total

    def tick(self, rx_phits, tx_acks, cycle, clock_gating=False):
        for lane, serializer in enumerate(self.serializers):
            serializer.tick(tx_acks[lane], clock_gating)
        for lane, deserializer in enumerate(self.deserializers):
            deserializer.tick(rx_phits[lane], cycle, clock_gating)

    def reset(self):
        for serializer in self.serializers:
            serializer.reset()
        for deserializer in self.deserializers:
            deserializer.reset()


class _ReferenceTile:
    """The word-level tile interface, verbatim (what the benches call)."""

    def __init__(self, converter):
        self._converter = converter

    def configure_tx(self, lane, flow=FlowControlConfig()):
        self._converter.serializers[lane].configure_flow(flow)
        self._notify()

    def _notify(self):
        hook = self._converter.wake_hook
        if hook is not None:
            hook()

    def watch_rx(self, lane, listener):
        self._converter.deserializers[lane].on_deliver = listener

    def send(self, lane, data, *, sob=False, eob=False, user=False):
        serializer = self._converter.serializers[lane]
        if not serializer.can_accept():
            return False
        serializer.submit_word(data, sob, eob, user)
        self._notify()
        return True

    def rx_available(self, lane):
        return self._converter.deserializers[lane].available()

    def receive(self, lane) -> Optional[ReceivedWord]:
        word = self._converter.deserializers[lane].receive()
        if word is not None:
            self._notify()
        return word


class _ReferenceCircuitRouter(ClockedComponent):
    """The circuit router's dense evaluate/commit and park rule, verbatim.

    Its bench runs ``strict`` (the reference endpoints need it).  The park
    rule reads an input-dirty flag: :meth:`wake`, which its wires, tile and
    configuration call, sets it and ``evaluate`` clears it, as the event
    schedule the rule was written for did.
    """

    NUM_PORTS = 5
    bench_schedule = "strict"

    def __init__(self, name, lanes_per_port=4, lane_width=4, data_width=16, position=(0, 0),
                 clock_gating=False):
        super().__init__(name)
        self.lanes_per_port = lanes_per_port
        self.lane_width = lane_width
        self._lane_mask = bit_mask(lane_width)
        self.data_width = data_width
        self.position = position
        self.clock_gating = clock_gating
        self.activity = ActivityCounters(name)
        self.config = ConfigurationMemory(self.NUM_PORTS, lanes_per_port)
        self.crossbar = _ReferenceCrossbar(self.config, lane_width, self.activity)
        self.converter = _ReferenceConverter(lanes_per_port, lane_width, data_width, self.activity)
        self._rx_links = {p: None for p in NEIGHBOR_PORTS}
        self._tx_links = {p: None for p in NEIGHBOR_PORTS}
        total = self.NUM_PORTS * lanes_per_port
        self._total_lanes = total
        self._input_vals = [0] * total
        self._ack_vals = [False] * total
        self._tx_previous = [0] * total
        self._rx_flat = []
        self._tx_flat = []
        self._input_dirty = False
        self.config.on_change = self.wake
        self.converter.wake_hook = self.wake

    def wake(self):
        self._input_dirty = True

    @property
    def tile(self):
        return self.converter.interface

    def attach_link(self, port, rx_link, tx_link):
        port = Port(port)
        if port not in NEIGHBOR_PORTS:
            raise ConfigurationError("links can only be attached to neighbour ports")
        self._rx_links[port] = rx_link
        self._tx_links[port] = tx_link
        if rx_link is not None:
            rx_link.watch_forward(self.wake)
        if tx_link is not None:
            tx_link.watch_ack(self.wake)
        lanes_per_port = self.lanes_per_port
        self._rx_flat = [(int(p) * lanes_per_port, link) for p, link in self._rx_links.items() if link is not None]
        self._tx_flat = [(int(p) * lanes_per_port, link) for p, link in self._tx_links.items() if link is not None]
        self.wake()

    def rx_link(self, port):
        return self._rx_links[Port(port)]

    def tx_link(self, port):
        return self._tx_links[Port(port)]

    def configure(self, out_port, out_lane, in_port, in_lane):
        self.config.set_entry(out_port, out_lane, LaneConfig(True, Port(in_port), in_lane))
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def deconfigure(self, out_port, out_lane):
        self.config.set_entry(out_port, out_lane, None)
        self.activity.add(ActivityKeys.CONFIG_WRITES, 1)

    def evaluate(self, cycle):
        self._input_dirty = False
        lanes_per_port = self.lanes_per_port
        values = self._input_vals
        acks = self._ack_vals
        serializers = self.converter.serializers
        for lane in range(lanes_per_port):
            values[lane] = serializers[lane].output_phit
        for base, link in self._rx_flat:
            values[base : base + lanes_per_port] = link.forward
        deserializers = self.converter.deserializers
        for lane in range(lanes_per_port):
            acks[lane] = deserializers[lane].ack_pulse
        for base, link in self._tx_flat:
            acks[base : base + lanes_per_port] = link.ack
        self.crossbar.evaluate_flat(values, acks)

    def commit(self, cycle):
        lanes_per_port = self.lanes_per_port
        crossbar = self.crossbar
        crossbar.commit(self.clock_gating)
        out_data = crossbar.committed_data
        ack_data = crossbar.committed_acks
        self.converter.tick(out_data[:lanes_per_port], ack_data[:lanes_per_port], cycle, self.clock_gating)
        previous = self._tx_previous
        link_toggles = 0
        mask = self._lane_mask
        for base, tx_link in self._tx_flat:
            for lane in range(lanes_per_port):
                idx = base + lane
                value = out_data[idx]
                if value != previous[idx]:
                    link_toggles += ((previous[idx] ^ value) & mask).bit_count()
                    previous[idx] = value
                    tx_link.drive_forward(lane, value)
        if link_toggles:
            self.activity.slots[LINK_TOGGLE_BITS] += link_toggles
        for base, rx_link in self._rx_flat:
            link_ack = rx_link.ack
            for lane in range(lanes_per_port):
                value = ack_data[base + lane]
                if link_ack[lane] != value:
                    rx_link.drive_ack(lane, value)
        self.activity.cycles = cycle + 1

    def next_event_cycle(self, cycle):
        if self.crossbar._commit_changed:
            return cycle
        converter = self.converter
        if not (converter.quiescent() if self.clock_gating else converter.quiescent_or_stalled()):
            return cycle
        values = self._input_vals
        acks = self._ack_vals
        for lane in range(self.lanes_per_port):
            values[lane] = 0
            acks[lane] = False
        if not self.crossbar.is_fixed_point(values, acks):
            return cycle
        return None

    def reset(self):
        self.crossbar.reset()
        self.converter.reset()
        self.activity.reset()
        for idx in range(self._total_lanes):
            self._tx_previous[idx] = 0
        for _base, tx_link in self._tx_flat:
            for lane in range(self.lanes_per_port):
                tx_link.drive_forward(lane, 0)
        for _base, rx_link in self._rx_flat:
            for lane in range(self.lanes_per_port):
                rx_link.drive_ack(lane, False)


# ---------------------------------------------------------------------------
# The stream endpoints as kernel components
# ---------------------------------------------------------------------------

# The four circuit endpoints as they were before they became records of their
# datapath, verbatim but for the commit-phase replay flag and the wakes and
# idle ticks of the event schedule: their commits read live wires and tiles,
# which only that replay made exact under the event schedule, so every
# reference kernel runs ``strict``.

class _ReferenceLaneStreamDriver(ClockedComponent):
    """Drives one lane of a link *into* the router under test.

    Parameters
    ----------
    link:
        The :class:`LaneLink` attached as the router's incoming bundle on the
        chosen port; the driver plays the role of the upstream router.
    lane:
        Which lane of the bundle the stream occupies.
    word_source:
        Callable returning the next 16-bit data word.
    load:
        Offered load as a fraction of the lane's capacity (1.0 = a word every
        5 cycles at the default geometry).
    """

    def __init__(
        self,
        name: str,
        link: LaneLink,
        lane: int,
        word_source: WordSource,
        load: float = 1.0,
        data_width: int = 16,
        flow: FlowControlConfig = FlowControlConfig(),
    ) -> None:
        super().__init__(name)
        link.read_forward(lane)  # the lane is checked once, here
        self.link = link
        self.lane = lane
        self._forward = link.forward
        self._ack = link.ack
        self.word_source = word_source
        self.data_width = data_width
        self.activity = ActivityCounters(name)
        self.serializer = LaneSerializer(
            lane, link.lane_width, data_width, tx_queue_depth=4, flow=flow, activity=self.activity
        )
        self._pacer = CyclePacer(load, phits_per_packet(data_width, link.lane_width))
        self.words_offered = 0
        self.words_dropped = 0

    def evaluate(self, cycle: int) -> None:
        if self._pacer.should_emit():
            self.words_offered += 1
            if self.serializer.can_accept():
                self.serializer.submit_word(self.word_source())
            else:
                self.words_dropped += 1

    def commit(self, cycle: int) -> None:
        lane = self.lane
        serializer = self.serializer
        serializer.tick(self._ack[lane])
        phit = serializer._current_phit
        if phit != self._forward[lane]:
            self.link.drive_forward(lane, phit)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if not self.serializer.quiescent or self._ack[self.lane]:
            return cycle
        return self._pacer.next_emit_cycle(cycle)

    @property
    def words_sent(self) -> int:
        """Words actually loaded into the lane."""
        return self.serializer.words_loaded

    def reset(self) -> None:
        self.serializer.reset()
        self._pacer.reset()
        self.words_offered = 0
        self.words_dropped = 0
        # The wire is this driver's register output: back to idle with it.
        self.link.drive_forward(self.lane, 0)


class _ReferenceLaneStreamConsumer(ClockedComponent):
    """Consumes one lane of a link *out of* the router under test."""

    def __init__(
        self,
        name: str,
        link: LaneLink,
        lane: int,
        data_width: int = 16,
        flow: FlowControlConfig = FlowControlConfig(),
    ) -> None:
        super().__init__(name)
        link.read_forward(lane)  # the lane is checked once, here
        self.link = link
        self.lane = lane
        self._forward = link.forward
        self._ack = link.ack
        self.activity = ActivityCounters(name)
        self.deserializer = LaneDeserializer(
            lane, link.lane_width, data_width, flow=flow, activity=self.activity
        )
        self.received: List[ReceivedWord] = []

    def evaluate(self, cycle: int) -> None:  # all work happens at the clock edge
        pass

    def commit(self, cycle: int) -> None:
        lane = self.lane
        deserializer = self.deserializer
        deserializer.tick(self._forward[lane], cycle)
        # The destination tile reads everything immediately (it never stalls).
        while (word := deserializer.receive()) is not None:
            self.received.append(word)
        pulse = deserializer._ack_pulse
        if pulse != self._ack[lane]:
            self.link.drive_ack(lane, pulse)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if (
            self._forward[self.lane]
            or not self.deserializer.quiescent
            or self.deserializer.available()
        ):
            return cycle
        return None

    @property
    def words_received(self) -> int:
        """Words fully reassembled and consumed."""
        return len(self.received)

    def reset(self) -> None:
        self.deserializer.reset()
        self.received.clear()
        self.link.drive_ack(self.lane, False)


class _ReferenceTileStreamDriver(ClockedComponent):
    """Feeds a stream into the router through its own tile interface."""

    def __init__(
        self,
        name: str,
        router: CircuitSwitchedRouter,
        lane: int,
        word_source: WordSource,
        load: float = 1.0,
        mark_blocks: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        self.router = router
        self.lane = lane
        self.word_source = word_source
        self.mark_blocks = mark_blocks
        self._pacer = CyclePacer(
            load, phits_per_packet(router.data_width, router.lane_width)
        )
        self.words_offered = 0
        self.words_sent = 0
        self.words_dropped = 0
        self._index = 0

    def evaluate(self, cycle: int) -> None:
        if not self._pacer.should_emit():
            return
        self.words_offered += 1
        sob = eob = False
        if self.mark_blocks:
            position = self._index % self.mark_blocks
            sob = position == 0
            eob = position == self.mark_blocks - 1
        if self.router.tile.send(self.lane, self.word_source(), sob=sob, eob=eob):
            self.words_sent += 1
            self._index += 1
        else:
            self.words_dropped += 1

    def commit(self, cycle: int) -> None:  # the router itself owns the clocked state
        pass

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return self._pacer.next_emit_cycle(cycle)

    def reset(self) -> None:
        self._pacer.reset()
        self.words_offered = 0
        self.words_sent = 0
        self.words_dropped = 0
        self._index = 0


class _ReferenceTileStreamConsumer(ClockedComponent):
    """Drains words arriving at the router's tile interface."""

    def __init__(self, name: str, router: CircuitSwitchedRouter, lane: int) -> None:
        super().__init__(name)
        self.router = router
        self.lane = lane
        self.received: List[ReceivedWord] = []

    def evaluate(self, cycle: int) -> None:
        pass

    def commit(self, cycle: int) -> None:
        receive = self.router.tile.receive
        while (word := receive(self.lane)) is not None:
            self.received.append(word)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return cycle if self.router.tile.rx_available(self.lane) else None

    @property
    def words_received(self) -> int:
        """Words delivered to the local tile."""
        return len(self.received)

    def reset(self) -> None:
        self.received.clear()


def _reference_tile_driver(driver):
    """The kernel-component twin of a :class:`TileStreamDriver` record."""
    return _ReferenceTileStreamDriver(driver.name, driver.router, driver.lane, driver.word_source,
                                      driver.pacer.load, driver.mark_blocks)


class _ReferenceCircuitNoC(CircuitSwitchedNoC):
    """A circuit fabric of reference routers and reference endpoints, under
    ``strict``; :attr:`compared_schedule` is the one its twin runs."""

    def __init__(self, topology, schedule=DEFAULT_SCHEDULE, **kwargs):
        self.compared_schedule = schedule
        super().__init__(topology, schedule="strict", **kwargs)

    def _build_router(self, position):
        return _ReferenceCircuitRouter(
            self.topology.router_name(position), lanes_per_port=self.lanes_per_port,
            lane_width=self.lane_width, data_width=self.data_width, position=position,
            clock_gating=self.clock_gating,
        )

    def _register_with_kernel(self):
        for router in self.routers.values():
            self.kernel.add(router)

    def _adopt_driver(self, driver):
        return self.kernel.add(_reference_tile_driver(driver))

    def _adopt_sink(self, sink):
        return self.kernel.add(_ReferenceTileStreamConsumer(sink.name, sink.router, sink.lane))

    def _remove_component(self, component):
        if component is not None and component._scheduler is self.kernel:
            self.kernel.remove(component)


# ---------------------------------------------------------------------------
# What a cycle can change
# ---------------------------------------------------------------------------


def _unit_state(unit):
    """A lane unit's whole state (its flow-control objects by value)."""
    state = {}
    for key, value in vars(unit).items():
        if key in ("activity", "on_deliver"):
            continue
        if key in ("window", "ack_generator"):
            value = vars(value)
        elif isinstance(value, deque):
            value = list(value)
        state[key] = value
    return state


def _router_state(router):
    converter = router.converter
    return (
        (router.activity.as_dict(), router.activity.cycles),
        list(router.crossbar.committed_data),
        list(router.crossbar.committed_acks),
        [_unit_state(unit) for unit in (*converter.serializers, *converter.deserializers)],
    )


def _wire_state(link):
    return list(link.forward), list(link.ack), link.dead, link.dropped


def _parked(schedule, cycle, routers, batched=False):
    """Whether the routers park after this cycle under the event *schedule*:
    the datapath walks none of them next cycle, or every reference router
    would park (its input unchanged since it evaluated and its own answer
    ``None``).  ``None`` under ``strict``, which parks no reference router,
    and on a fabric whose datapath may batch in a vector plane (*batched*),
    which parks once the whole batch is at a fixed point."""
    if schedule != "vector" or batched:
        return None
    datapath = getattr(next(iter(routers)), "datapath", None)
    if datapath is not None:
        return not datapath._next
    return all(not r._input_dirty and r.next_event_cycle(cycle) is None for r in routers)


def _network_state(network):
    schedule = getattr(network, "compared_schedule", network.kernel.schedule)
    return (
        {position: _router_state(router) for position, router in network.routers.items()},
        {key: _wire_state(link) for key, link in network.links.items()},
        _parked(schedule, network.kernel.cycle, network.routers.values(), batched=not network.clock_gating),
        network.stream_statistics(),  # a word counts in the cycle it is delivered
    )


# ---------------------------------------------------------------------------
# Drawn fabrics
# ---------------------------------------------------------------------------


class TestFabricsEqualTheReference:
    @given(scenario=fabric_scenarios(max_cycles=160), clock_gating=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_lockstep_on_drawn_fabrics(self, scenario, clock_gating):
        """Random channels and one mid-run link fault (re-routed or not) on a
        drawn mesh, torus or irregular mesh, under the drawn schedule: equal
        registers, wires, lane units, counters and park answers after every
        cycle, equal stream statistics and drops at the end."""
        scenario.run_in_lockstep(
            lambda topology, **kw: CircuitSwitchedNoC(topology, clock_gating=clock_gating, **kw),
            lambda topology, **kw: _ReferenceCircuitNoC(topology, clock_gating=clock_gating, **kw),
            _network_state,
        )

    @pytest.mark.parametrize("schedule", [None, "strict"])
    def test_full_load_rows_with_a_fault(self, schedule):
        """Every row of a 4×4 mesh at full load (the plane batches), one link
        on the second row dies and the channel re-routes."""
        topology = Mesh2D(4, 4)
        channels = [((0, row), (3, row), 200.0, 1.0) for row in range(4)]
        scenario = FabricScenario(topology, channels, 200, (90, (1, 1), (2, 1), True), schedule)
        scenario.run_in_lockstep(CircuitSwitchedNoC, _ReferenceCircuitNoC, _network_state)

    def test_reference_is_wired_in(self):
        network = _ReferenceCircuitNoC(Mesh2D(2, 1))
        assert type(network.router_at((0, 0))) is _ReferenceCircuitRouter
        assert network.datapath is None and network.router_at((0, 0)) in network.kernel.components
        network = CircuitSwitchedNoC(Mesh2D(2, 1))
        assert network.kernel.components == (network.datapath,) and network.datapath.plane is not None


# ---------------------------------------------------------------------------
# Single-router benches
# ---------------------------------------------------------------------------


def _words(seed):
    rng = random.Random(seed)
    return lambda: rng.getrandbits(16)


def _table3_setup(router, links):
    """Scenario IV of Table 3 plus a stray tile driver on a lane no route
    reads: records, or the reference components on a reference router."""
    router.configure(Port.EAST, 0, Port.TILE, 0)
    router.configure(Port.TILE, 0, Port.NORTH, 0)
    router.configure(Port.EAST, 1, Port.WEST, 0)
    if isinstance(router, _ReferenceCircuitRouter):
        tile_driver, tile_sink = _ReferenceTileStreamDriver, _ReferenceTileStreamConsumer
        lane_driver, lane_sink = _ReferenceLaneStreamDriver, _ReferenceLaneStreamConsumer
    else:
        tile_driver, tile_sink, lane_driver, lane_sink = (
            TileStreamDriver, TileStreamConsumer, LaneStreamDriver, LaneStreamConsumer)
    return [
        tile_driver("s1_src", router, 0, _words(1), load=1.0),
        lane_sink("s1_dst", links[Port.EAST][1], 0),
        lane_driver("s2_src", links[Port.NORTH][0], 0, _words(2), load=0.7),
        tile_sink("s2_dst", router, 0),
        lane_driver("s3_src", links[Port.WEST][0], 0, _words(3), load=1.0),
        lane_sink("s3_dst", links[Port.EAST][1], 1),
        tile_driver("stray", router, 2, _words(4), load=0.3),
    ]


def _table3_benches(**kwargs):
    """Twin :func:`_table3_setup` benches, production first; each bench
    carries its endpoints last."""
    endpoints = {}

    def setup(router, links):
        endpoints[router] = _table3_setup(router, links)
        return endpoints[router]

    benches = twin_benches(
        (CircuitSwitchedRouter, _ReferenceCircuitRouter),
        lambda name, router: LaneLink(name, router.lanes_per_port, router.lane_width),
        setup,
        **kwargs,
    )
    return [(router, links, kernel, endpoints[router]) for router, links, kernel in benches]


def _endpoint_state(endpoint):
    """What a bench endpoint counted and received so far, and its lane unit's state."""
    unit = getattr(endpoint, "serializer", None) or getattr(endpoint, "deserializer", None)
    return (
        [getattr(endpoint, key, None) for key in ("words_offered", "words_sent", "words_dropped")],
        list(getattr(endpoint, "received", ())),
        unit and (_unit_state(unit), endpoint.activity.as_dict()),
    )


def _bench_states(benches):
    """Every bench's state, the park answers under the first bench's schedule."""
    schedule = benches[0][2].schedule
    return [
        (
            _router_state(router),
            {port: (_wire_state(rx), _wire_state(tx)) for port, (rx, tx) in links.items()},
            _parked(schedule, kernel.cycle, [router]),
            [_endpoint_state(endpoint) for endpoint in endpoints],
        )
        for router, links, kernel, endpoints in benches
    ]


#: Between-cycle writes: (cycle, what to do to a router).
_RECONFIGURATIONS: List[Tuple[int, Callable]] = [
    (70, lambda router: router.deconfigure(Port.EAST, 0)),          # a driven route goes
    (140, lambda router: router.configure(Port.EAST, 0, Port.TILE, 0)),   # and comes back
    (190, lambda router: router.configure(Port.EAST, 1, Port.NORTH, 1)),  # reroute to an idle lane
    (230, lambda router: router.configure(Port.EAST, 1, Port.WEST, 0)),   # and back
    (260, lambda router: router.configure(Port.SOUTH, 3, Port.TILE, 2)),  # the stray lane joins
    (280, lambda router: router.configure(Port.NORTH, 2, Port.TILE, 2)),  # and multicasts
    (300, lambda router: router.deconfigure(Port.TILE, 0)),          # the sink loses its route
    (340, lambda router: router.tile.configure_tx(0, FlowControlConfig(window_size=2))),
]


class TestBenchesEqualTheReference:
    @pytest.mark.parametrize("clock_gating", [False, True])
    @pytest.mark.parametrize("schedule", [None, "strict"])
    def test_table3_bench_through_reconfigurations(self, clock_gating, schedule):
        benches = _table3_benches(schedule=schedule, clock_gating=clock_gating)
        writes = dict(_RECONFIGURATIONS)
        for cycle in range(420):
            for router, _links, kernel, _endpoints in benches:
                if cycle in writes:
                    writes[cycle](router)
                kernel.step()
            states = _bench_states(benches)
            assert states[0] == states[1], f"diverged in cycle {cycle}"

    def test_reset_then_rerun_matches_the_reference(self):
        benches = _table3_benches()
        for router, _links, kernel, _endpoints in benches:
            kernel.run(83)
            router.deconfigure(Port.EAST, 1)
            kernel.run(40)
            kernel.reset()
        for _ in range(150):
            for _router, _links, kernel, _endpoints in benches:
                kernel.step()
            states = _bench_states(benches)
            assert states[0] == states[1]
