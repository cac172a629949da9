"""Links of the packet-switched baseline: 16-bit flit channel plus credits.

A :class:`PacketLink` is the packet-switched counterpart of
:class:`repro.core.lane.LaneLink`: one unidirectional 16-bit flit channel and
a per-virtual-channel credit return path in the reverse direction.  Like the
lane link it is a pure wire bundle — the registers driving it live in the
routers at either end.

Both directions carry a :class:`repro.sim.signals.DirtyBit` so the
event-driven kernel can park the routers at either end: a flit placed on
the wire wakes the receiver, a credit returned wakes the sender.  Driving the
idle value (``None``) onto an already idle wire — every cycle of an idle
fabric — costs a single comparison.

Both directions remember one clock edge, which lets a router's visit be one
pass (``commit`` alone; its ``evaluate`` samples nothing).  A ``drive`` or
``return_credit`` in cycle *c* keeps what the wires held (``before`` /
``credits_before``) and notes the cycle (``changed_at`` / ``credited_at``); a
reader committing in cycle *c* takes the remembered value while the change
is that fresh and the live one otherwise — what an evaluate-phase sample
would have seen, whichever end commits first.  A write between cycles (a
fault, a boundary frame, a drive without a cycle) is fresh in no cycle.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baseline.flit import Flit
from repro.sim.signals import DirtyBit, WakeListener

__all__ = ["PacketLink"]


class PacketLink:
    """One unidirectional flit channel with credit-based flow control."""

    __slots__ = (
        "name",
        "num_vcs",
        "forward",
        "credits",
        "before", "changed_at", "credits_before", "credited_at",  # what the wires remember
        "flit_dirty",
        "credit_dirty",
        "dead",
        "dropped",
    )

    def __init__(
        self,
        name: str,
        num_vcs: int = 4,
        forward: Optional[Flit] = None,
        credits: Optional[List[int]] = None,
    ) -> None:
        if num_vcs < 1:
            raise ValueError("a packet link needs at least one virtual channel")
        self.name = name
        self.num_vcs = num_vcs
        #: Committed flit currently on the wire (``None`` = idle).
        self.forward = forward
        #: The flit :meth:`drive` replaced, and the cycle it did.
        self.before, self.changed_at = None, -1
        #: Pending credit returns per virtual channel (written by the
        #: receiver, consumed by the sender).
        self.credits: List[int] = credits if credits else [0] * num_vcs
        #: ``credits`` before the first return of cycle ``credited_at``.
        self.credits_before, self.credited_at = self.credits, -1
        #: Dirty-bit of the flit wire; its listener is the receiver's ``wake``.
        self.flit_dirty = DirtyBit()
        #: Dirty-bit of the credit wires; its listener is the sender's ``wake``.
        self.credit_dirty = DirtyBit()
        #: True once :meth:`fail` killed the channel (fault model).
        self.dead = False
        #: Flits swallowed by the dead channel (in-flight at the kill plus
        #: every flit driven afterwards).
        self.dropped = 0

    # -- dirty-bit wiring --------------------------------------------------------

    def watch_flits(self, listener: WakeListener) -> None:
        """Wake *listener* whenever a flit is placed on the wire."""
        self.flit_dirty.listener = listener

    def watch_credits(self, listener: WakeListener) -> None:
        """Wake *listener* whenever credits are returned."""
        self.credit_dirty.listener = listener

    # -- forward flit -------------------------------------------------------------

    def drive(self, flit: Optional[Flit], cycle: int = -1) -> None:
        """Place *flit* (``None`` = idle) on the wire at the clock edge of
        *cycle*; without one, between two cycles.

        Only a new flit wakes the receiver: the receiver cannot have been
        asleep while a flit was on the wire (ingesting it keeps it busy for
        at least the following cycle), so the flit→idle transition needs no
        wake-up.
        """
        if flit is None:
            if self.forward is None:
                return
        elif self.dead:
            # A broken channel swallows the flit.  The credit it would have
            # consumed downstream is synthesised back immediately, so the
            # sending router drains its buffered worm into the void and can
            # go quiescent instead of stalling forever on a dead wire.
            self.dropped += 1
            self.credits[flit.vc] += 1
            self.credit_dirty.mark()
            return
        if self.changed_at != cycle:
            self.before = self.forward
            self.changed_at = cycle
        self.forward = flit
        if flit is not None:
            self.flit_dirty.mark()

    def read(self) -> Optional[Flit]:
        """Sample the flit currently on the wire."""
        return self.forward

    # -- credit return ---------------------------------------------------------------

    def return_credit(self, vc: int, amount: int = 1, cycle: int = -1) -> None:
        """Called by the receiver when it frees *amount* buffer slots of *vc* (in *cycle*)."""
        self._check_vc(vc)
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        if amount:
            if self.credited_at != cycle:
                self.credits_before = self.credits[:]
                self.credited_at = cycle
            self.credits[vc] += amount
            self.credit_dirty.mark()

    def take_credits(self, vc: int) -> int:
        """Called by the sender: collect (and clear) pending credits of *vc*."""
        self._check_vc(vc)
        amount = self.credits[vc]
        self.credits[vc] = 0
        return amount

    def reset(self) -> None:
        """Return the link to the idle state and forget its last changes."""
        self.forward = self.before = None
        for vc in range(self.num_vcs):
            self.credits[vc] = 0
        self.changed_at = self.credited_at = -1

    def fail(self) -> int:
        """Kill the channel: the wire falls idle, future flits are swallowed.

        Returns the number of in-flight flits lost (0 or 1 — the wire holds
        at most one committed flit).  The lost flit's credit is synthesised
        back so the upstream router's credit accounting recovers; both ends
        are woken to re-sample the dead wire.
        """
        if self.dead:
            return 0
        self.dead = True
        dropped = 0
        flit = self.forward
        if flit is not None:
            dropped = 1
            self.dropped += 1
            self.forward = None
            self.credits[flit.vc] += 1
        self.flit_dirty.mark()
        self.credit_dirty.mark()
        return dropped

    def _check_vc(self, vc: int) -> None:
        if not 0 <= vc < self.num_vcs:
            raise IndexError(f"virtual channel {vc} out of range 0..{self.num_vcs - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketLink({self.name!r}, num_vcs={self.num_vcs})"
