"""Input virtual-channel buffers of the packet-switched baseline router.

The buffers are the dominant area (0.1034 mm² of the 0.18 mm² router in
Table 4) and energy cost of the packet-switched router — every flit is
written into and read out of a FIFO even when the output port is free, which
is exactly the overhead the circuit-switched router avoids.  Every write and
read is therefore recorded in the activity counters.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.baseline.flit import Flit
from repro.common import CapacityError
from repro.energy.activity import BUFFER_READ_BITS, BUFFER_WRITE_BITS, ActivityCounters

__all__ = ["VirtualChannelBuffer"]


class VirtualChannelBuffer:
    """A FIFO of flits for one (input port, virtual channel) pair."""

    def __init__(
        self,
        name: str,
        depth: int = 8,
        activity: ActivityCounters | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError("buffer depth must be positive")
        self.name = name
        self.depth = depth
        self.activity = activity if activity is not None else ActivityCounters(name)
        self._fifo: Deque[Flit] = deque()
        #: ``[mask]`` cell and this buffer's bit in it: set while a flit is
        #: stored.  A router points its buffers at one shared cell, so its
        #: per-cycle loops visit the occupied buffers only.
        self._occupied: List[int] = [0]
        self._bit = 1
        self.total_writes = 0
        self.total_reads = 0
        self.max_occupancy = 0

    # -- occupancy ----------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of flits currently stored."""
        return len(self._fifo)

    @property
    def free_slots(self) -> int:
        """Remaining capacity in flits."""
        return self.depth - len(self._fifo)

    def is_empty(self) -> bool:
        """True when no flit is stored."""
        return not self._fifo

    def is_full(self) -> bool:
        """True when no further flit can be accepted."""
        return len(self._fifo) >= self.depth

    # -- data movement ----------------------------------------------------------------

    def push(self, flit: Flit) -> None:
        """Write one flit into the FIFO (records buffer-write energy)."""
        fifo = self._fifo
        if len(fifo) >= self.depth:
            raise CapacityError(
                f"buffer {self.name} overflow: upstream ignored credit-based flow control"
            )
        fifo.append(flit)
        self._occupied[0] |= self._bit
        self.total_writes += 1
        if len(fifo) > self.max_occupancy:
            self.max_occupancy = len(fifo)
        self.activity.slots[BUFFER_WRITE_BITS] += flit.storage_bits

    def front(self) -> Optional[Flit]:
        """The head-of-line flit without removing it (``None`` when empty)."""
        return self._fifo[0] if self._fifo else None

    def pop(self) -> Flit:
        """Remove and return the head-of-line flit (records buffer-read energy)."""
        fifo = self._fifo
        if not fifo:
            raise CapacityError(f"buffer {self.name} underflow: pop from an empty FIFO")
        flit = fifo.popleft()
        if not fifo:
            self._occupied[0] &= ~self._bit
        self.total_reads += 1
        self.activity.slots[BUFFER_READ_BITS] += flit.storage_bits
        return flit

    def reset(self) -> None:
        """Drop all stored flits and statistics."""
        self._fifo.clear()
        self._occupied[0] &= ~self._bit
        self.total_writes = 0
        self.total_reads = 0
        self.max_occupancy = 0
