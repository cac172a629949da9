"""Lane bundles: the physical wires between two circuit-switched routers.

The bidirectional link between two routers consists of two unidirectional
bundles, each made of ``num_lanes`` small data channels ("lanes",
Section 5.1) of ``lane_width`` bits plus one acknowledge wire per lane
running in the reverse direction (Section 5.2, Fig. 7).

A :class:`LaneLink` is a pure wire bundle: it stores the values most recently
*committed* by the routers at either end.  The registers driving those values
live inside the routers (the crossbar output stage is registered), so the
link itself has no clocked state; it only needs to be written during the
commit phase and read during the evaluate phase of the two-phase simulation
model.

The bundle doubles as the kernel's dirty-bit network: each direction carries
a :class:`repro.sim.signals.DirtyBit`, and a write that actually changes a
wire marks it, waking the component that reads the wire.  Writes that leave
the value unchanged — the overwhelmingly common case on an idle fabric — are
skipped after a single comparison, which is what makes sleeping routers free.
"""

from __future__ import annotations

from typing import List

from repro.common import bit_mask
from repro.sim.signals import DirtyBit, Listener

__all__ = ["LaneLink", "link_width_bits"]


def link_width_bits(num_lanes: int, lane_width: int) -> int:
    """Total forward data width of one link direction (paper: 4 × 4 = 16)."""
    if num_lanes < 1 or lane_width < 1:
        raise ValueError("num_lanes and lane_width must be positive")
    return num_lanes * lane_width


class LaneLink:
    """One unidirectional bundle of lanes plus reverse acknowledge wires.

    Attributes
    ----------
    name:
        Identifier used in traces (e.g. ``"r00.E->r10.W"``).
    num_lanes / lane_width:
        Geometry of the bundle (paper default: 4 lanes of 4 bits).
    forward:
        Per-lane forward data value, written by the *source* router's
        registered output lanes.
    ack:
        Per-lane reverse acknowledge wire, written by the *destination*
        router (a one-cycle pulse means "credit returned").
    """

    __slots__ = (
        "name",
        "num_lanes",
        "lane_width",
        "_mask",
        "forward",
        "ack",
        "forward_dirty",
        "ack_dirty",
        "dead",
        "dropped",
    )

    def __init__(self, name: str, num_lanes: int = 4, lane_width: int = 4) -> None:
        if num_lanes < 1:
            raise ValueError("a link needs at least one lane")
        if lane_width < 1:
            raise ValueError("lane width must be positive")
        self.name = name
        self.num_lanes = num_lanes
        self.lane_width = lane_width
        self._mask = bit_mask(lane_width)
        self.forward: List[int] = [0] * num_lanes
        self.ack: List[bool] = [False] * num_lanes
        #: Dirty-bit of the forward wires; its listener is the reading
        #: (destination) side's mark.
        self.forward_dirty = DirtyBit()
        #: Dirty-bit of the acknowledge wires; its listener is the source
        #: side's mark.
        self.ack_dirty = DirtyBit()
        #: True once :meth:`fail` killed the bundle (fault model).
        self.dead = False
        #: Phits swallowed by the dead bundle (in-flight at the kill plus
        #: every non-idle value driven afterwards).
        self.dropped = 0

    # -- dirty-bit wiring ------------------------------------------------------

    def watch_forward(self, listener: Listener) -> None:
        """Call *listener* whenever a forward wire changes value."""
        self.forward_dirty.listener = listener

    def watch_ack(self, listener: Listener) -> None:
        """Call *listener* whenever an acknowledge wire changes value."""
        self.ack_dirty.listener = listener

    # -- forward data --------------------------------------------------------

    def drive_forward(self, lane: int, value: int) -> None:
        """Set the forward data of *lane* (called by the source router)."""
        forward = self.forward
        if not 0 <= lane < self.num_lanes:
            self._check_lane(lane)
        if value == forward[lane]:
            return
        if self.dead:
            # A broken wire swallows the phit; the serialisers upstream keep
            # their window-counter protocol (no acknowledge ever returns).
            self.dropped += 1
            return
        if value < 0 or value > self._mask:
            raise ValueError(
                f"value {value:#x} does not fit in a {self.lane_width}-bit lane"
            )
        forward[lane] = value
        self.forward_dirty.mark()

    def read_forward(self, lane: int) -> int:
        """Read the forward data of *lane* (called by the destination router)."""
        self._check_lane(lane)
        return self.forward[lane]

    # -- reverse acknowledge ---------------------------------------------------

    def drive_ack(self, lane: int, value: bool) -> None:
        """Set the reverse acknowledge of *lane* (called by the destination)."""
        ack = self.ack
        if not 0 <= lane < self.num_lanes:
            self._check_lane(lane)
        value = bool(value)
        if value == ack[lane]:
            return
        if self.dead:
            return
        ack[lane] = value
        self.ack_dirty.mark()

    def read_ack(self, lane: int) -> bool:
        """Read the reverse acknowledge of *lane* (called by the source)."""
        self._check_lane(lane)
        return self.ack[lane]

    # -- silent synchronisation (vector plane) ---------------------------------

    def sync_forward_silent(self, lane: int, value: int) -> None:
        """Write a forward wire without marking the dirty-bit.

        Used only by the vector plane's flush: both endpoints of an
        internal link are plane members whose batched execution already
        accounted for the change, so marking the reader here would be a
        spurious (though harmless) mark.  Never call this on a wire whose
        reader is outside the plane.
        """
        self.forward[lane] = value

    def sync_ack_silent(self, lane: int, value: bool) -> None:
        """Write an acknowledge wire without marking the dirty-bit.

        Same contract as :meth:`sync_forward_silent`, reverse direction.
        """
        self.ack[lane] = value

    # -- helpers ---------------------------------------------------------------

    @property
    def width_bits(self) -> int:
        """Forward data width of the whole bundle."""
        return link_width_bits(self.num_lanes, self.lane_width)

    def idle(self) -> bool:
        """True when every forward lane carries the idle (all-zero) value."""
        return all(value == 0 for value in self.forward)

    def reset(self) -> None:
        """Return all wires to the idle state."""
        for lane in range(self.num_lanes):
            self.forward[lane] = 0
            self.ack[lane] = False

    def fail(self) -> int:
        """Kill the bundle: wires fall to idle and future drives are swallowed.

        Returns the number of in-flight phits lost on the wires.  Both ends
        are marked so they re-sample the now-idle bundle (a fault is
        injected between cycles).
        """
        if self.dead:
            return 0
        self.dead = True
        in_flight = sum(1 for value in self.forward if value)
        self.dropped += in_flight
        self.reset()
        self.forward_dirty.mark()
        self.ack_dirty.mark()
        return in_flight

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.num_lanes:
            raise IndexError(f"lane {lane} out of range 0..{self.num_lanes - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LaneLink({self.name!r}, num_lanes={self.num_lanes}, "
            f"lane_width={self.lane_width})"
        )
