"""The dirty-bit network the wire bundles wake their readers through.

Each direction of a wire bundle (:class:`repro.core.lane.LaneLink`,
:class:`repro.baseline.link.PacketLink`, ...) embeds a :class:`DirtyBit`;
a write that actually changes a value marks it and calls the listener the
reading side attached.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["DirtyBit", "WakeListener"]

WakeListener = Callable[[], None]
"""Callback fired by a signal/wire bundle when a committed value changes.

The event-driven kernel (:mod:`repro.sim.engine`) hands the bound
``wake`` method of the reading component to the wire bundles that feed it;
the bundles call it only on an actual value change, which is what turns the
wires into the kernel's dirty-bit network.
"""


class DirtyBit:
    """A change-notification bit with an attached wake listener.

    Wire bundles with structured payloads (lane bundles, flit channels) embed
    one of these per direction: writers call :meth:`mark` when a value
    actually changed, and the attached :class:`WakeListener` — the reading
    component's ``wake`` in the event-driven kernel — is invoked
    immediately so a sleeping reader is rescheduled.  The stored flag is a
    sticky "has ever changed" indicator kept for debugging; wake-up is
    entirely listener-driven.
    """

    __slots__ = ("dirty", "listener")

    def __init__(self, listener: WakeListener | None = None) -> None:
        self.dirty = False
        self.listener = listener

    def mark(self) -> None:
        """Record a value change and wake the attached listener (if any)."""
        self.dirty = True
        listener = self.listener
        if listener is not None:
            listener()

    def add_listener(self, listener: WakeListener) -> None:
        """Attach *listener* without displacing an existing one.

        Whoever owns the wire keeps the plain :attr:`listener` slot (routers
        claim it through the links' ``watch_*`` methods); additional readers
        — link-side stream endpoints sharing a bundle — chain themselves in
        with this method, and :meth:`mark` then fans out to all of them.
        """
        previous = self.listener
        if previous is None or previous is listener:
            self.listener = listener
            return

        def _fanout() -> None:
            previous()
            listener()

        self.listener = _fanout
