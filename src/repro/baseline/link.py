"""Links of the packet-switched baseline: 16-bit flit channel plus credits.

A :class:`PacketLink` is the packet-switched counterpart of
:class:`repro.core.lane.LaneLink`: one unidirectional 16-bit flit channel and
a per-virtual-channel credit return path in the reverse direction.  Like the
lane link it is a pure wire bundle — the registers driving it live in the
routers at either end — and it keeps no history.

Between two routers of one :class:`~repro.baseline.router.PacketDatapath`
the link is a pair of one-cycle registers the datapath reads and writes
itself: a flit placed in ``forward`` and a credit added to ``credits`` in
cycle *c* are taken (and cleared) in cycle *c + 1*.  A link with an end
outside the datapath (a stream driver's or consumer's, a shard's boundary
mirror) goes through :meth:`drive` / :meth:`return_credit`, whose dirty-bits
mark a stream endpoint at the other end, and the datapath samples it when a
cycle begins.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baseline.flit import VC_MASK
from repro.sim.signals import DirtyBit, Listener

__all__ = ["PacketLink"]


class PacketLink:
    """One unidirectional flit channel with credit-based flow control."""

    __slots__ = (
        "name",
        "num_vcs",
        "forward",
        "credits",
        "drives",
        "flit_dirty",
        "credit_dirty",
        "dead",
        "dropped",
    )

    def __init__(self, name: str, num_vcs: int = 4) -> None:
        if num_vcs < 1:
            raise ValueError("a packet link needs at least one virtual channel")
        self.name = name
        self.num_vcs = num_vcs
        #: Packed flit currently on the wire (``None`` = idle).
        self.forward: Optional[int] = None
        #: Pending credit returns per virtual channel (written by the
        #: receiver, consumed by the sender).
        self.credits: List[int] = [0] * num_vcs
        #: Flits :meth:`drive` has placed so far: tells two equal flits on
        #: consecutive cycles apart (the shard boundary ships changes).
        self.drives = 0
        #: Dirty-bit of the flit wire; its listener is the receiver's mark.
        self.flit_dirty = DirtyBit()
        #: Dirty-bit of the credit wires; its listener is the sender's mark.
        self.credit_dirty = DirtyBit()
        #: True once :meth:`fail` killed the channel (fault model).
        self.dead = False
        #: Flits swallowed by the dead channel (in-flight at the kill plus
        #: every flit driven afterwards).
        self.dropped = 0

    # -- dirty-bit wiring --------------------------------------------------------

    def watch_flits(self, listener: Listener) -> None:
        """Call *listener* whenever a flit is placed on the wire."""
        self.flit_dirty.listener = listener

    def watch_credits(self, listener: Listener) -> None:
        """Call *listener* whenever credits are returned."""
        self.credit_dirty.listener = listener

    # -- forward flit -------------------------------------------------------------

    def drive(self, flit: Optional[int]) -> None:
        """Place *flit* (``None`` = idle) on the wire at the clock edge.

        Only a new flit marks the receiver: it cannot have been at rest while
        a flit was on the wire, so the flit→idle transition needs no mark.
        """
        if flit is None:
            self.forward = None
            return
        if self.dead:
            # A broken channel swallows the flit.  The credit it would have
            # consumed downstream is synthesised back immediately, so the
            # sending router drains its buffered worm into the void and can
            # go quiescent instead of stalling forever on a dead wire.
            self.dropped += 1
            self.credits[flit & VC_MASK] += 1
            self.credit_dirty.mark()
            return
        self.forward = flit
        self.drives += 1
        self.flit_dirty.mark()

    def read(self) -> Optional[int]:
        """Sample the flit currently on the wire."""
        return self.forward

    # -- credit return ---------------------------------------------------------------

    def return_credit(self, vc: int, amount: int = 1) -> None:
        """Called by the receiver when it frees *amount* buffer slots of *vc*."""
        self._check_vc(vc)
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        if amount:
            self.credits[vc] += amount
            self.credit_dirty.mark()

    def take_credits(self, vc: int) -> int:
        """Called by the sender: collect (and clear) pending credits of *vc*."""
        self._check_vc(vc)
        amount = self.credits[vc]
        self.credits[vc] = 0
        return amount

    def reset(self) -> None:
        """Return the link to the idle state."""
        self.forward = None
        for vc in range(self.num_vcs):
            self.credits[vc] = 0

    def fail(self) -> int:
        """Kill the channel: the wire falls idle, future flits are swallowed.

        Returns the number of in-flight flits lost (0 or 1 — the wire holds
        at most one committed flit).  The lost flit's credit is synthesised
        back so the upstream router's credit accounting recovers; both ends
        are marked to re-sample the dead wire.
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
            self.credits[flit & VC_MASK] += 1
        self.flit_dirty.mark()
        self.credit_dirty.mark()
        return dropped

    def _check_vc(self, vc: int) -> None:
        if not 0 <= vc < self.num_vcs:
            raise IndexError(f"virtual channel {vc} out of range 0..{self.num_vcs - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketLink({self.name!r}, num_vcs={self.num_vcs})"
