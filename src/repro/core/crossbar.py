"""The lane crossbar with registered output lanes (Section 5.1).

The crossbar connects every input lane to the output lanes of all *other*
ports (a 16 × 20 structure in the default router: 20 output lanes, each able
to select one of the 16 input lanes that do not belong to its own port).  The
output lanes are registered, so a hop through a router costs exactly one
clock cycle and the cycle time only depends on the mux tree plus the link
wire — the property that gives the circuit-switched router its 1075 MHz
clock in Table 4.

The reverse acknowledge wire of every lane is routed *backwards* through the
same configuration (output lane → its configured input lane) and is also
registered per hop.

The crossbar records its switching activity (register toggles, output-net
toggles, clocked vs. clock-gated bits) in the router's
:class:`repro.energy.activity.ActivityCounters`.

Implementation note: all per-lane state lives in flat lists indexed by the
dense lane index ``port * lanes_per_port + lane`` and the active routes are
cached per configuration version, so the per-cycle loops allocate nothing
and inactive lanes cost no work during ``evaluate``.  The ``(port,
lane)``-keyed :meth:`Crossbar.evaluate` and :meth:`Crossbar.commit` serve
direct users and the unit tests; :class:`repro.core.router.CircuitSwitchedRouter`
compiles :meth:`Crossbar.active_routes` / :meth:`Crossbar.ack_fanins` into
its own route program, which writes the next-state lists
(:attr:`Crossbar.next_data` / :attr:`Crossbar.next_acks`) and latches the
registers itself, and calls :meth:`Crossbar.commit` once per configuration
version as the sweep that flushes lanes a reconfiguration stranded.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.common import Port, bit_mask
from repro.core.config_memory import ConfigurationMemory
from repro.energy.activity import (
    REG_CLOCKED_BITS, REG_GATED_BITS, REG_TOGGLE_BITS, XBAR_TOGGLE_BITS, ActivityCounters,
)

__all__ = ["Crossbar"]

LaneKey = Tuple[Port, int]


class Crossbar:
    """Bit-accurate model of the configured lane crossbar."""

    def __init__(
        self,
        config: ConfigurationMemory,
        lane_width: int = 4,
        activity: ActivityCounters | None = None,
        name: str = "crossbar",
    ) -> None:
        if lane_width < 1:
            raise ValueError("lane_width must be positive")
        self.name = name
        self.config = config
        self.lane_width = lane_width
        self._lane_mask = bit_mask(lane_width)
        self.activity = activity if activity is not None else ActivityCounters(name)

        lanes = list(config.iter_lanes())
        self._lanes: List[LaneKey] = lanes
        self._lanes_per_port = config.lanes_per_port
        total = len(lanes)
        self._total = total
        # Committed (visible) state of the registered output stage, indexed
        # by the dense lane index port * lanes_per_port + lane.
        self._out_data: List[int] = [0] * total
        self._ack_out: List[bool] = [False] * total
        # Next state computed during evaluate.
        self._next_out: List[int] = [0] * total
        self._next_ack: List[bool] = [False] * total
        # Configuration caches, refreshed when config.version changes:
        #   _routes        (out_idx, src_idx) per active output lane,
        #   _active_flags  per-lane activation (drives the clock gate),
        #   _ack_routes    (in_idx, out indices fed from it) per input lane
        #                  that feeds at least one output.
        self._routes: List[Tuple[int, int]] = []
        self._active_flags: List[bool] = [False] * total
        self._ack_routes: List[Tuple[int, Tuple[int, ...]]] = []
        self._cached_version = -1

    # -- configuration cache ----------------------------------------------------

    def _refresh_cache(self) -> None:
        config = self.config
        lanes_per_port = self._lanes_per_port
        routes: List[Tuple[int, int]] = []
        flags = [False] * self._total
        reverse: dict[int, List[int]] = {}
        for out_port, out_lane, cfg in config.active_entries():
            out_idx = out_port * lanes_per_port + out_lane
            src_idx = cfg.source_port * lanes_per_port + cfg.source_lane
            routes.append((out_idx, src_idx))
            flags[out_idx] = True
            reverse.setdefault(src_idx, []).append(out_idx)
        self._routes = routes
        self._active_flags = flags
        self._ack_routes = [
            (in_idx, tuple(outs)) for in_idx, outs in sorted(reverse.items())
        ]
        # Lanes without a route (or without ack fan-in) are pinned to the
        # idle next-state once; evaluate never has to visit them again.
        next_out = self._next_out
        next_ack = self._next_ack
        fed = set(reverse)
        for idx in range(self._total):
            if not flags[idx]:
                next_out[idx] = 0
            if idx not in fed:
                next_ack[idx] = False
        self._cached_version = config.version

    # -- two-phase execution -------------------------------------------------------

    def evaluate(
        self,
        input_data: Mapping[LaneKey, int],
        downstream_ack: Mapping[LaneKey, bool],
    ) -> None:
        """Compute the next output/acknowledge register values.

        *input_data* maps ``(port, lane)`` to the committed value of an input
        lane, *downstream_ack* to the acknowledge observed *behind* an output
        lane (from the downstream router on neighbour ports, from the local
        deserialiser on tile-port output lanes); missing keys read as idle.
        """
        if self._cached_version != self.config.version:
            self._refresh_cache()
        lanes = self._lanes
        next_out = self._next_out
        for out_idx, src_idx in self._routes:
            next_out[out_idx] = input_data.get(lanes[src_idx], 0)
        next_ack = self._next_ack
        for in_idx, outs in self._ack_routes:
            next_ack[in_idx] = any(downstream_ack.get(lanes[out_idx], False) for out_idx in outs)

    def commit(self, clock_gating: bool = False) -> bool:
        """Latch every output and acknowledge register; record activity.

        Returns whether any register changed.  With *clock_gating* only the
        lanes with an active output route clock: the data register *and the
        acknowledge register of the same lane index* latch, every other lane
        holds and counts as gated.  (The acknowledge register of index ``i``
        belongs to *input* lane ``i``, so a fan-in whose input index carries
        no active output never latches under gating: the clock-gated benches
        stall once their window is spent.  Kept as modelled; see ROADMAP.)
        """
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
            # Inactive lanes are clock-gated: registers hold their value and
            # only the gated-bit count is recorded.
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

        if reg_toggles:
            slots[REG_TOGGLE_BITS] += reg_toggles
        if xbar_toggles:
            slots[XBAR_TOGGLE_BITS] += xbar_toggles
        if clocked_bits:
            slots[REG_CLOCKED_BITS] += clocked_bits
        if gated_bits:
            slots[REG_GATED_BITS] += gated_bits
        return reg_toggles != 0

    # -- quiescence support ----------------------------------------------------------

    def idle_cycle_bits(self, clock_gating: bool) -> Tuple[int, int]:
        """Per-cycle ``(clocked_bits, gated_bits)`` of a quiescent crossbar."""
        if self._cached_version != self.config.version:
            self._refresh_cache()
        per_lane = self.lane_width + 1
        if clock_gating:
            active_count = len(self._routes)
            return active_count * per_lane, (self._total - active_count) * per_lane
        return self._total * per_lane, 0

    # -- observation ---------------------------------------------------------------

    def active_routes(self) -> List[Tuple[int, int]]:
        """``(out_idx, src_idx)`` per configured output lane (cache-fresh).

        Dense lane indexing (``port * lanes_per_port + lane``), one entry per
        active route of the current configuration version.  Used by the
        router's route program and the circuit datapath's pipe to lay its
        lines; the returned list is the live cache — treat it as read-only.
        """
        if self._cached_version != self.config.version:
            self._refresh_cache()
        return self._routes

    def ack_fanins(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(in_idx, fed_out_indices)`` per acknowledge fan-in (cache-fresh).

        The reverse-routed acknowledge structure of the current
        configuration version, sorted by input index.  Same read-only
        convention as :meth:`active_routes`.
        """
        if self._cached_version != self.config.version:
            self._refresh_cache()
        return self._ack_routes

    @property
    def next_data(self) -> List[int]:
        """Next-state output-lane values, dense-indexed.

        The owning router's route program writes the routed entries in its
        sampling walk; the rest hold the idle value the cache refresh
        pinned them to.
        """
        return self._next_out

    @property
    def next_acks(self) -> List[bool]:
        """Next-state acknowledge values, dense-indexed (same convention as
        :attr:`next_data`, for the acknowledge fan-ins)."""
        return self._next_ack

    @property
    def committed_data(self) -> List[int]:
        """Committed output-lane values, dense-indexed (read-only by convention)."""
        return self._out_data

    @property
    def committed_acks(self) -> List[bool]:
        """Committed acknowledge values, dense-indexed (read-only by convention)."""
        return self._ack_out

    def output(self, port: Port, lane: int) -> int:
        """Committed value of one registered output lane."""
        return self._out_data[Port(port) * self._lanes_per_port + lane]

    def ack_output(self, port: Port, lane: int) -> bool:
        """Committed acknowledge value routed back towards one input lane."""
        return self._ack_out[Port(port) * self._lanes_per_port + lane]

    def outputs_for_port(self, port: Port) -> List[int]:
        """Committed values of all output lanes of *port*, in lane order."""
        base = Port(port) * self._lanes_per_port
        return self._out_data[base : base + self._lanes_per_port]

    def reset(self) -> None:
        """Return all registers to the idle state."""
        for idx in range(self._total):
            self._out_data[idx] = 0
            self._ack_out[idx] = False
            self._next_out[idx] = 0
            self._next_ack[idx] = False
        self._cached_version = -1
