"""The dirty-bits the wire bundles mark their readers' datapaths through.

Each direction of a wire bundle (:class:`repro.core.lane.LaneLink`,
:class:`repro.baseline.link.PacketLink`, ...) embeds a :class:`DirtyBit`;
a write that actually changes a value marks it and calls the listener the
datapath or stream endpoint on the other side attached.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["DirtyBit", "Listener"]

Listener = Callable[[], None]
"""Callback fired by a wire bundle when a committed value changes.

A datapath hands its mark of the reading router, its fault check of a wire
between two of its routers, or a stream endpoint's unit mark to the wire
bundles; the bundles call it only on an actual value change.
"""


class DirtyBit:
    """A change notification with an attached listener.

    Wire bundles with structured payloads (lane bundles, flit channels) embed
    one of these per direction: writers call :meth:`mark` when a value
    actually changed, and the attached :data:`Listener` is invoked
    immediately.
    """

    __slots__ = ("listener",)

    def __init__(self, listener: Listener | None = None) -> None:
        self.listener = listener

    def mark(self) -> None:
        """Call the attached listener (if any): a value changed."""
        listener = self.listener
        if listener is not None:
            listener()

    def add_listener(self, listener: Listener) -> None:
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
